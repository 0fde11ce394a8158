// scenario::DebugSession against CampaignRunner — the debugger must observe
// the very attack the runner reports. For every registered scenario, the
// first (up to) three trials are stepped to the end in a DebugSession and
// the finished report is compared with CampaignRunner::run_trial's: every
// published sweep column plus the ground-truth fields. A full rewind and a
// second pass must land on the same report again (restores are exact).
#include "scenario/debug.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "attack/campaign_runner.hpp"
#include "scenario/registry.hpp"
#include "sweep/runner.hpp"

namespace explframe::scenario {
namespace {

void expect_same_report(const attack::CampaignReport& debugged,
                        const attack::CampaignReport& reference,
                        const std::string& label) {
  const sweep::TrialRow a = sweep::TrialRow::from_report(debugged);
  const sweep::TrialRow b = sweep::TrialRow::from_report(reference);
  EXPECT_EQ(a.template_found, b.template_found) << label;
  EXPECT_EQ(a.rows_scanned, b.rows_scanned) << label;
  EXPECT_EQ(a.flips_found, b.flips_found) << label;
  EXPECT_EQ(a.steered, b.steered) << label;
  EXPECT_EQ(a.fault_injected, b.fault_injected) << label;
  EXPECT_EQ(a.fault_as_predicted, b.fault_as_predicted) << label;
  EXPECT_EQ(a.key_recovered, b.key_recovered) << label;
  EXPECT_EQ(a.ciphertexts_used, b.ciphertexts_used) << label;
  EXPECT_EQ(a.residual_search, b.residual_search) << label;
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.failure_stage, b.failure_stage) << label;
  EXPECT_EQ(a.total_time, b.total_time) << label;
  EXPECT_EQ(a, b) << label;

  EXPECT_EQ(debugged.recovered_key, reference.recovered_key) << label;
  EXPECT_EQ(debugged.victim_key, reference.victim_key) << label;
  EXPECT_EQ(debugged.planted_pfn, reference.planted_pfn) << label;
  EXPECT_EQ(debugged.victim_table_pfn, reference.victim_table_pfn) << label;
  EXPECT_EQ(debugged.table_index, reference.table_index) << label;
  EXPECT_EQ(debugged.fault_mask, reference.fault_mask) << label;
}

TEST(DebugSession, SteppedTrialMatchesCampaignRunnerForEveryScenario) {
  for (const Scenario& s : Registry::builtin().all()) {
    const attack::RunnerConfig cfg = s.runner_config();
    const std::uint32_t trials = std::min(cfg.trials, 3u);
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      const std::string label = s.name + " trial " + std::to_string(trial);
      const attack::CampaignReport reference =
          attack::CampaignRunner::run_trial(cfg, trial);

      DebugSession session(s, trial);
      while (!session.done()) session.step();
      expect_same_report(session.report(), reference, label);

      std::string error;
      ASSERT_TRUE(session.rewind(session.position(), &error))
          << label << ": " << error;
      EXPECT_EQ(session.position(), 0u) << label;
      // Layer 0 is the post-template machine: its clock already holds the
      // templating time.
      EXPECT_EQ(session.report().total_time, reference.template_time) << label;
      while (!session.done()) session.step();
      expect_same_report(session.report(), reference, label + " (replayed)");
    }
  }
}

}  // namespace
}  // namespace explframe::scenario
