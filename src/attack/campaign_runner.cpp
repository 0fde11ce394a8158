#include "attack/campaign_runner.hpp"

#include <chrono>

#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace explframe::attack {

TrialRow TrialRow::from_report(const CampaignReport& report) {
  TrialRow row;
  row.template_found = report.template_found;
  row.rows_scanned = report.rows_scanned;
  row.flips_found = report.flips_found;
  row.steered = report.steered;
  row.fault_injected = report.fault_injected;
  row.fault_as_predicted = report.fault_as_predicted;
  row.key_recovered = report.key_recovered;
  row.ciphertexts_used = report.ciphertexts_used;
  row.residual_search = report.residual_search;
  row.success = report.success;
  row.failure_stage = report.failure_stage();
  row.total_time = report.total_time;
  return row;
}

std::vector<std::pair<std::string, std::string>> TrialRow::csv_columns()
    const {
  return {{"template_found", Table::to_cell(template_found)},
          {"rows_scanned", Table::to_cell(rows_scanned)},
          {"flips_found", Table::to_cell(flips_found)},
          {"steered", Table::to_cell(steered)},
          {"fault_injected", Table::to_cell(fault_injected)},
          {"fault_as_predicted", Table::to_cell(fault_as_predicted)},
          {"key_recovered", Table::to_cell(key_recovered)},
          {"ciphertexts_used", Table::to_cell(ciphertexts_used)},
          {"residual_search", Table::to_cell(residual_search)},
          {"success", Table::to_cell(success)},
          {"failure_stage", failure_stage},
          {"sim_seconds", Table::to_cell(sim_seconds())}};
}

void TrialStats::add(const TrialRow& row) {
  ++trials;
  templated += row.template_found;
  steered += row.steered;
  fault_injected += row.fault_injected;
  key_recovered += row.key_recovered;
  succeeded += row.success;
  rows_scanned.add(static_cast<double>(row.rows_scanned));
  if (row.success) ciphertexts_used.add(row.ciphertexts_used);
  sim_seconds.add(row.sim_seconds());
  ++failure_stages[row.failure_stage];
}

void TrialStats::add(const std::vector<TrialRow>& rows) {
  for (const TrialRow& row : rows) add(row);
}

std::string TrialStats::success_fraction() const {
  return std::to_string(succeeded) + "/" + std::to_string(trials);
}

Table TrialStats::phase_table() const {
  Table t({"phase", "success", "rate"});
  const auto pct = [&](std::uint32_t n) {
    const auto ci = wilson_interval(n, trials);
    return Table::percent(ci.p) + "  [" + Table::percent(ci.lo) + ", " +
           Table::percent(ci.hi) + "]";
  };
  t.row("1 template (usable flip found)", templated, pct(templated));
  t.row("3 steer (victim got planted frame)", steered, pct(steered));
  t.row("4 fault injected into table", fault_injected, pct(fault_injected));
  t.row("6 key recovered", key_recovered, pct(key_recovered));
  t.row("overall success", succeeded, pct(succeeded));
  return t;
}

std::pair<std::uint64_t, std::uint64_t> CampaignRunner::trial_seeds(
    std::uint64_t master_seed, std::uint32_t trial) noexcept {
  // Hash (master, trial) once, then give each consumer its own salted
  // stream. Two draws from ONE incremented SplitMix64 state would overlap
  // across trials: the per-trial jump and the generator's own step are the
  // same golden-ratio constant, making trial t's campaign seed identical
  // to trial t+1's system seed.
  SplitMix64 base(master_seed + 0x9e3779b97f4a7c15ULL * (trial + 1ULL));
  const std::uint64_t h = base.next();
  const std::uint64_t system_seed = SplitMix64(h ^ 0x243f6a8885a308d3ULL).next();
  const std::uint64_t campaign_seed =
      SplitMix64(h ^ 0x452821e638d01377ULL).next();
  return {system_seed, campaign_seed};
}

CampaignReport CampaignRunner::run_trial(const RunnerConfig& config,
                                         std::uint32_t trial) {
  return run_trial_group(config, {config.campaign}, trial).front();
}

std::vector<CampaignReport> CampaignRunner::run_trial_group(
    const RunnerConfig& base, const std::vector<CampaignConfig>& variants,
    std::uint32_t trial) {
  EXPLFRAME_CHECK(!variants.empty());
  const auto [system_seed, campaign_seed] = trial_seeds(base.seed, trial);
  kernel::SystemConfig sys_cfg = base.system;
  sys_cfg.seed = system_seed;
  kernel::System sys(sys_cfg);
  CampaignConfig first = variants.front();
  first.seed = campaign_seed;
  // Template once; every variant forks from the shared snapshot (run_fork
  // CHECKs that each variant matches the base's template_key). A lone
  // variant snapshots only if it asks to, exactly like run_campaign.
  TemplatedCampaign templated(sys, first,
                              variants.size() > 1 || first.fork_from_snapshot);
  std::vector<CampaignReport> reports;
  reports.reserve(variants.size());
  for (const CampaignConfig& variant : variants) {
    CampaignConfig cfg = variant;
    cfg.seed = campaign_seed;
    reports.push_back(templated.run_fork(cfg));
  }
  return reports;
}

CampaignAggregate CampaignRunner::run() {
  EXPLFRAME_CHECK(config_.trials > 0);
  // determinism: allow(steady-clock) aggregate wall_seconds diagnostic, never emitted
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<CampaignReport> reports(config_.trials);
  // threads == 0 clamps to one worker, as RunnerConfig promises.
  parallel_for(config_.trials, config_.threads, [&](std::size_t trial) {
    reports[trial] = run_trial(config_, static_cast<std::uint32_t>(trial));
  });
  const std::chrono::duration<double> wall =
      // determinism: allow(steady-clock) aggregate wall_seconds diagnostic, never emitted
      std::chrono::steady_clock::now() - wall_start;

  // Aggregate serially, in trial order, so the aggregate is independent of
  // which worker ran which trial.
  CampaignAggregate agg;
  agg.wall_seconds = wall.count();
  for (const CampaignReport& r : reports) {
    agg.add(TrialRow::from_report(r));
    agg.template_sim_seconds.add(static_cast<double>(r.template_time) /
                                 kSecond);
    agg.template_wall_seconds += r.template_wall_seconds;
  }
  agg.reports = std::move(reports);
  return agg;
}

}  // namespace explframe::attack
