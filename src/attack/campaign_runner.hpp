// attack::CampaignRunner — executes N independent campaign trials on
// parallel_for's worker pool (one task per trial) and aggregates the
// per-phase outcome statistics. TrialRow and TrialStats, the per-trial
// record and its accumulator, are shared with the scenario and sweep
// report emitters.
//
// Each trial gets its own kernel::System (simulated machine) and its own
// deterministically derived (system seed, campaign seed) pair, so results
// are bit-identical for a fixed master seed regardless of thread count or
// scheduling — parallelism changes only the wall clock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "attack/campaign.hpp"
#include "kernel/system.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace explframe::attack {

/// A sweep: N trials of one campaign configuration across a worker pool.
struct RunnerConfig {
  /// Independent simulated machines to attack.
  std::uint32_t trials = 8;
  /// Worker threads (each owns one System at a time). 0 = 1.
  std::uint32_t threads = 2;
  /// Per-trial machine; its seed is overridden by the derived trial seed.
  kernel::SystemConfig system;
  /// Per-trial campaign; its seed is overridden by the derived trial seed.
  CampaignConfig campaign;
  /// Master seed all per-trial seeds derive from.
  std::uint64_t seed = 1;
};

/// The per-trial outcome every report publishes: a CampaignReport
/// restricted to the per-trial CSV columns. It is also the unit of sweep
/// checkpoint serialization — every field round-trips losslessly as text,
/// so a resumed sweep point emits the same bytes as a fresh one.
struct TrialRow {
  bool template_found = false;
  std::uint64_t rows_scanned = 0;
  std::uint64_t flips_found = 0;
  bool steered = false;
  bool fault_injected = false;
  bool fault_as_predicted = false;
  bool key_recovered = false;
  std::uint32_t ciphertexts_used = 0;
  std::uint32_t residual_search = 0;
  bool success = false;
  std::string failure_stage;  ///< CampaignReport::failure_stage() string.
  SimTime total_time = 0;     ///< Simulated nanoseconds (exact integer).

  /// Project a campaign report onto the published columns.
  static TrialRow from_report(const CampaignReport& report);

  double sim_seconds() const noexcept {
    return static_cast<double>(total_time) / kSecond;
  }
  /// The per-trial CSV columns as (header, cell) pairs, in column order —
  /// the one column list behind every per-trial CSV emitter.
  std::vector<std::pair<std::string, std::string>> csv_columns() const;

  bool operator==(const TrialRow&) const = default;
};

/// Per-phase tallies and samples over any set of trials — the one
/// accumulator behind every aggregate table.
struct TrialStats {
  std::uint32_t trials = 0;
  std::uint32_t templated = 0;
  std::uint32_t steered = 0;
  std::uint32_t fault_injected = 0;
  std::uint32_t key_recovered = 0;
  std::uint32_t succeeded = 0;

  Samples rows_scanned;      ///< All trials.
  Samples ciphertexts_used;  ///< Successful trials only.
  Samples sim_seconds;       ///< Simulated attack time, all trials.
  /// failure_stage -> count, including "none" for successes.
  std::map<std::string, std::uint32_t> failure_stages;

  void add(const TrialRow& row);
  void add(const std::vector<TrialRow>& rows);  ///< Each row, in order.

  double success_rate() const noexcept {
    return trials > 0 ? static_cast<double>(succeeded) / trials : 0.0;
  }
  /// "succeeded/trials", the grid tables' success cell.
  std::string success_fraction() const;

  /// Per-phase success table (the EXP-T4-style bench output).
  Table phase_table() const;
};

/// Aggregated outcome of a campaign sweep: the trial stats plus the
/// reports they were built from and the host-side diagnostics.
struct CampaignAggregate : TrialStats {
  /// Simulated templating time per trial — the slice of sim_seconds the
  /// snapshot/fork engine amortizes away when trials share a base.
  Samples template_sim_seconds;
  /// Host seconds spent templating, summed over trials as reported (trials
  /// forked from one base repeat the shared run's value). Diagnostic only;
  /// never part of byte-stable emitters.
  double template_wall_seconds = 0.0;

  /// Per-trial reports in trial order (independent of worker scheduling).
  std::vector<CampaignReport> reports;

  double wall_seconds = 0.0;  ///< Host wall-clock time for the whole sweep.
  double trials_per_second() const noexcept {
    return wall_seconds > 0.0 ? trials / wall_seconds : 0.0;
  }
};

/// Executes a RunnerConfig; see the file comment for the determinism
/// guarantee (results are independent of thread count and scheduling).
class CampaignRunner {
 public:
  explicit CampaignRunner(const RunnerConfig& config) : config_(config) {}

  CampaignAggregate run();

  /// The (system seed, campaign seed) pair trial `trial` runs with —
  /// exposed so a single trial can be reproduced outside the runner.
  static std::pair<std::uint64_t, std::uint64_t> trial_seeds(
      std::uint64_t master_seed, std::uint32_t trial) noexcept;

  /// Run exactly one trial (the runner's unit of work) synchronously.
  static CampaignReport run_trial(const RunnerConfig& config,
                                  std::uint32_t trial);

  /// Run one trial of several campaign variants that agree on every
  /// template-shaping field (attack::template_key; CHECKed) over ONE
  /// machine: template once, snapshot, fork each variant from the shared
  /// post-templating state (a single variant snapshots only when its
  /// fork_from_snapshot asks). Element i corresponds to variants[i] and is
  /// byte-identical to a lone run of that campaign config — this is the
  /// sweep amortization (SweepRunner groups grid points by template_key).
  static std::vector<CampaignReport> run_trial_group(
      const RunnerConfig& base, const std::vector<CampaignConfig>& variants,
      std::uint32_t trial);

  const RunnerConfig& config() const noexcept { return config_; }

 private:
  RunnerConfig config_;
};

}  // namespace explframe::attack
