// The snapshot/fork acceptance tests:
//
//  * fork ≡ fresh at campaign level — for EVERY registered scenario
//    (including all four defence configurations), trial reports produced
//    by forking from the post-templating snapshot must equal the straight
//    single-shot path field for field, template_time included;
//  * run_trial_group ≡ run_trial — a variant family sharing one
//    template_key, executed off one shared templated machine, reports
//    exactly what independent fresh trials report;
//  * thread counts stay invisible — the full CampaignRunner aggregate is
//    identical at 1 and 3 workers with forking on;
//  * SweepRunner template-sharing groups emit byte-identical records to
//    each point run alone through scenario::run_scenario (a shared-seed
//    grid over a post-template axis is what actually forms a multi-point
//    group).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "attack/campaign_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace explframe::attack {
namespace {

#define EXPECT_REPORTS_EQUAL(a, b, label)                                   \
  do {                                                                      \
    EXPECT_EQ((a).cipher, (b).cipher) << (label);                           \
    EXPECT_EQ((a).template_found, (b).template_found) << (label);           \
    EXPECT_EQ((a).rows_scanned, (b).rows_scanned) << (label);               \
    EXPECT_EQ((a).flips_found, (b).flips_found) << (label);                 \
    EXPECT_EQ((a).table_index, (b).table_index) << (label);                 \
    EXPECT_EQ((a).fault_mask, (b).fault_mask) << (label);                   \
    EXPECT_EQ((a).steered, (b).steered) << (label);                         \
    EXPECT_EQ((a).planted_pfn, (b).planted_pfn) << (label);                 \
    EXPECT_EQ((a).victim_table_pfn, (b).victim_table_pfn) << (label);       \
    EXPECT_EQ((a).fault_injected, (b).fault_injected) << (label);           \
    EXPECT_EQ((a).fault_as_predicted, (b).fault_as_predicted) << (label);   \
    EXPECT_EQ((a).ciphertexts_used, (b).ciphertexts_used) << (label);       \
    EXPECT_EQ((a).residual_search, (b).residual_search) << (label);         \
    EXPECT_EQ((a).key_recovered, (b).key_recovered) << (label);             \
    EXPECT_EQ((a).recovered_key, (b).recovered_key) << (label);             \
    EXPECT_EQ((a).victim_key, (b).victim_key) << (label);                   \
    EXPECT_EQ((a).success, (b).success) << (label);                         \
    EXPECT_EQ((a).total_time, (b).total_time) << (label);                   \
    EXPECT_EQ((a).template_time, (b).template_time) << (label);             \
  } while (0)

TEST(ForkDifferential, ForkedAndFreshReportsIdenticalForEveryScenario) {
  for (const scenario::Scenario& s : scenario::Registry::builtin().all()) {
    RunnerConfig cfg = s.runner_config();
    // Two trials per scenario keep the sweep fast while still covering
    // distinct seeds/machines; the fork flag is the ONLY difference.
    const std::uint32_t trials = std::min(cfg.trials, 2u);
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      RunnerConfig forked = cfg;
      forked.campaign.fork_from_snapshot = true;
      RunnerConfig straight = cfg;
      straight.campaign.fork_from_snapshot = false;
      const CampaignReport a = CampaignRunner::run_trial(forked, trial);
      const CampaignReport b = CampaignRunner::run_trial(straight, trial);
      const std::string label = s.name + " trial " + std::to_string(trial);
      EXPECT_REPORTS_EQUAL(a, b, label);
      EXPECT_TRUE(a.forked_from_template || !a.template_found) << label;
      EXPECT_FALSE(b.forked_from_template) << label;
    }
  }
}

TEST(ForkDifferential, TrialGroupMatchesIndependentTrials) {
  const scenario::Scenario& s = scenario::builtin_scenario("quickstart");
  RunnerConfig base = s.runner_config();
  // Variants differ only in post-template knobs (one shared template_key):
  // the harvest budget, the analysis cadence and the contention window.
  std::vector<CampaignConfig> variants;
  for (const std::uint32_t budget : {1500u, 4000u, 8000u}) {
    CampaignConfig cfg = base.campaign;
    cfg.ciphertext_budget = budget;
    variants.push_back(cfg);
  }
  variants.push_back(base.campaign);
  variants.back().analysis_check_interval = 64;
  variants.push_back(base.campaign);
  variants.back().noise_ops = 10;

  for (std::uint32_t trial = 0; trial < 2; ++trial) {
    const std::vector<CampaignReport> grouped =
        CampaignRunner::run_trial_group(base, variants, trial);
    ASSERT_EQ(grouped.size(), variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
      RunnerConfig single = base;
      single.campaign = variants[i];
      const CampaignReport fresh = CampaignRunner::run_trial(single, trial);
      const std::string label =
          "variant " + std::to_string(i) + " trial " + std::to_string(trial);
      EXPECT_REPORTS_EQUAL(grouped[i], fresh, label);
    }
  }
}

TEST(ForkDifferential, ThreadCountInvisibleWithForkingOn) {
  const scenario::Scenario& s =
      scenario::builtin_scenario("present-single-flip");
  RunnerConfig cfg = s.runner_config();
  cfg.trials = 3;
  cfg.campaign.fork_from_snapshot = true;

  RunnerConfig one = cfg;
  one.threads = 1;
  RunnerConfig three = cfg;
  three.threads = 3;
  const CampaignAggregate a = CampaignRunner(one).run();
  const CampaignAggregate b = CampaignRunner(three).run();
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i)
    EXPECT_REPORTS_EQUAL(a.reports[i], b.reports[i],
                         "trial " + std::to_string(i));
}

TEST(ForkDifferential, SweepTemplateSharingEmitsIdenticalRecords) {
  // A shared-seed grid over a post-template axis: every point shares one
  // template_key + master seed, so sharing forms ONE multi-point group.
  sweep::SweepSpec spec;
  spec.name = "fork-test-grid";
  spec.title = "ciphertext-budget curve off one templated base";
  spec.base = "quickstart";
  spec.seed_mode = sweep::SeedMode::kShared;
  spec.axes.push_back(
      sweep::Axis{"ciphertext_budget", {"1500", "4000", "8000"}});

  sweep::SweepRunOptions options;
  options.threads = 1;
  std::string error;
  const auto result = sweep::run_sweep(spec, scenario::Registry::builtin(),
                                       options, &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->records.size(), 3u);
  // The reference: every point run alone, templating its own machine per
  // trial instead of forking from the group's shared snapshot.
  for (const sweep::SweepPoint& point : result->points) {
    sweep::PointRecord alone;
    alone.index = point.index;
    alone.id = point.id;
    for (const CampaignReport& report :
         scenario::run_scenario(point.scenario, 1).aggregate.reports)
      alone.trials.push_back(sweep::TrialRow::from_report(report));
    EXPECT_EQ(result->records[point.index], alone) << point.id;
  }
}

}  // namespace
}  // namespace explframe::attack
