// The batched-harvest acceptance tests:
//
//  * batch ≡ per-call at campaign level — for EVERY registered scenario,
//    trial reports produced with the batched harvest fast path must equal
//    the per-call path field for field (the optimisation is
//    observation-free);
//  * run_campaign() must not mutate its config (templating seed,
//    seed-derived victim key), so configs are re-runnable and two fresh
//    campaigns with the same seed report identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "attack/campaign_runner.hpp"
#include "scenario/registry.hpp"

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
  } while (0)

TEST(HarvestDifferential, BatchedAndPerCallReportsIdenticalForEveryScenario) {
  for (const scenario::Scenario& s : scenario::Registry::builtin().all()) {
    RunnerConfig cfg = s.runner_config();
    // Two trials per scenario keep the sweep fast while still covering
    // distinct seeds/machines; the batched flag is the ONLY difference.
    const std::uint32_t trials = std::min(cfg.trials, 2u);
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      RunnerConfig batched = cfg;
      batched.campaign.batched_harvest = true;
      RunnerConfig per_call = cfg;
      per_call.campaign.batched_harvest = false;
      const CampaignReport a = CampaignRunner::run_trial(batched, trial);
      const CampaignReport b = CampaignRunner::run_trial(per_call, trial);
      const std::string label = s.name + " trial " + std::to_string(trial);
      EXPECT_REPORTS_EQUAL(a, b, label);
    }
  }
}

TEST(HarvestDifferential, RunDoesNotMutateConfigAndIsRepeatable) {
  const scenario::Scenario& s = scenario::builtin_scenario("quickstart");
  RunnerConfig cfg = s.runner_config();

  const auto run_fresh = [&] {
    kernel::SystemConfig sys_cfg = cfg.system;
    sys_cfg.seed = 7;
    kernel::System sys(sys_cfg);
    CampaignConfig campaign_cfg = cfg.campaign;
    campaign_cfg.seed = 7;
    const CampaignConfig before = campaign_cfg;
    const CampaignReport report = run_campaign(sys, campaign_cfg);
    // The config must read back exactly as configured: empty victim key
    // (the derived key lives in the report only) and untouched templating
    // seed.
    EXPECT_TRUE(campaign_cfg.victim.key.empty());
    EXPECT_EQ(campaign_cfg.templating.seed, before.templating.seed);
    return report;
  };

  const CampaignReport first = run_fresh();
  const CampaignReport second = run_fresh();
  EXPECT_REPORTS_EQUAL(first, second, "repeat");
  // The derived victim key made it into the report even though the config
  // stayed clean.
  EXPECT_FALSE(first.victim_key.empty());
}

}  // namespace
}  // namespace explframe::attack
