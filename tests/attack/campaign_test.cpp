// CampaignRunner: the parallel sweep layer. Covers the acceptance points of
// the Campaign API redesign — AES and PRESENT flow through the same code
// path, per-trial results are deterministic for a fixed master seed
// (independent of thread count), and the aggregate matches the individual
// trials it was built from — it is the shared TrialStats accumulator over
// each report's TrialRow.
#include "attack/campaign_runner.hpp"

#include <gtest/gtest.h>

namespace explframe::attack {
namespace {

kernel::SystemConfig vulnerable_cfg() {
  kernel::SystemConfig c;
  c.memory_bytes = 64 * kMiB;
  c.num_cpus = 2;
  c.dram.weak_cells.cells_per_mib = 128.0;
  c.dram.weak_cells.threshold_log_mean = 10.4;
  c.dram.weak_cells.threshold_min = 25'000;
  c.dram.weak_cells.threshold_max = 60'000;
  c.dram.data_pattern_sensitivity = false;
  return c;
}

RunnerConfig runner_cfg(crypto::CipherKind cipher, std::uint32_t trials,
                        std::uint32_t threads) {
  RunnerConfig cfg;
  cfg.trials = trials;
  cfg.threads = threads;
  cfg.system = vulnerable_cfg();
  if (cipher == crypto::CipherKind::kPresent80)
    cfg.system.dram.weak_cells.cells_per_mib = 512.0;
  cfg.campaign.cipher = cipher;
  cfg.campaign.templating.buffer_bytes = 4 * kMiB;
  cfg.campaign.templating.hammer_iterations = 100'000;
  cfg.campaign.ciphertext_budget =
      cipher == crypto::CipherKind::kPresent80 ? 2000 : 8000;
  cfg.seed = 42;
  return cfg;
}

bool reports_equal(const CampaignReport& a, const CampaignReport& b) {
  return a.cipher == b.cipher && a.template_found == b.template_found &&
         a.rows_scanned == b.rows_scanned && a.flips_found == b.flips_found &&
         a.table_index == b.table_index && a.fault_mask == b.fault_mask &&
         a.steered == b.steered && a.planted_pfn == b.planted_pfn &&
         a.victim_table_pfn == b.victim_table_pfn &&
         a.fault_injected == b.fault_injected &&
         a.ciphertexts_used == b.ciphertexts_used &&
         a.residual_search == b.residual_search &&
         a.key_recovered == b.key_recovered &&
         a.recovered_key == b.recovered_key &&
         a.victim_key == b.victim_key && a.success == b.success &&
         a.total_time == b.total_time;
}

TEST(CampaignRunner, TrialSeedsAreDeterministicAndDistinct) {
  const auto a = CampaignRunner::trial_seeds(7, 0);
  const auto b = CampaignRunner::trial_seeds(7, 0);
  EXPECT_EQ(a, b);
  const auto c = CampaignRunner::trial_seeds(7, 1);
  EXPECT_NE(a, c);
  const auto d = CampaignRunner::trial_seeds(8, 0);
  EXPECT_NE(a, d);
  // System and campaign streams must not collide within a trial…
  EXPECT_NE(a.first, a.second);
  // …nor across trials: a single incremented SplitMix64 state would make
  // trial t's campaign seed equal trial t+1's system seed.
  for (const std::uint64_t master : {7ull, 100ull, 0ull}) {
    for (std::uint32_t t = 0; t < 16; ++t) {
      const auto lo = CampaignRunner::trial_seeds(master, t);
      const auto hi = CampaignRunner::trial_seeds(master, t + 1);
      EXPECT_NE(lo.second, hi.first) << "master " << master << " trial " << t;
      EXPECT_NE(lo.first, hi.first);
      EXPECT_NE(lo.second, hi.second);
    }
  }
}

TEST(CampaignRunner, AesSweepAcrossTwoThreadsIsDeterministic) {
  // >= 8 trials across >= 2 worker threads (the acceptance bar), run twice:
  // every per-trial report must be bit-identical, and a single-threaded run
  // must produce the same results (scheduling independence).
  const RunnerConfig cfg = runner_cfg(crypto::CipherKind::kAes128, 8, 2);
  CampaignAggregate first = CampaignRunner(cfg).run();
  CampaignAggregate second = CampaignRunner(cfg).run();
  RunnerConfig serial_cfg = cfg;
  serial_cfg.threads = 1;
  CampaignAggregate serial = CampaignRunner(serial_cfg).run();

  ASSERT_EQ(first.reports.size(), 8u);
  ASSERT_EQ(second.reports.size(), 8u);
  ASSERT_EQ(serial.reports.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(reports_equal(first.reports[i], second.reports[i]))
        << "trial " << i << " differs between identical runs";
    EXPECT_TRUE(reports_equal(first.reports[i], serial.reports[i]))
        << "trial " << i << " depends on thread count";
  }
  // The sweep must actually attack: at least one trial recovers the key on
  // this vulnerable module.
  EXPECT_GT(first.succeeded, 0u);
  EXPECT_GT(first.wall_seconds, 0.0);
  EXPECT_GT(first.trials_per_second(), 0.0);
}

TEST(CampaignRunner, AggregateMatchesSingleTrialRuns) {
  const RunnerConfig cfg = runner_cfg(crypto::CipherKind::kAes128, 4, 2);
  const CampaignAggregate agg = CampaignRunner(cfg).run();

  std::uint32_t templated = 0, steered = 0, faulted = 0, recovered = 0,
                succeeded = 0;
  for (std::uint32_t i = 0; i < cfg.trials; ++i) {
    const CampaignReport r = CampaignRunner::run_trial(cfg, i);
    EXPECT_TRUE(reports_equal(r, agg.reports[i])) << "trial " << i;
    templated += r.template_found;
    steered += r.steered;
    faulted += r.fault_injected;
    recovered += r.key_recovered;
    succeeded += r.success;
  }
  EXPECT_EQ(agg.templated, templated);
  EXPECT_EQ(agg.steered, steered);
  EXPECT_EQ(agg.fault_injected, faulted);
  EXPECT_EQ(agg.key_recovered, recovered);
  EXPECT_EQ(agg.succeeded, succeeded);
  EXPECT_EQ(agg.trials, cfg.trials);
  EXPECT_EQ(agg.rows_scanned.count(), cfg.trials);

  std::uint32_t stage_total = 0;
  for (const auto& [stage, count] : agg.failure_stages) stage_total += count;
  EXPECT_EQ(stage_total, cfg.trials);
}

void expect_stats_equal(const TrialStats& a, const TrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.templated, b.templated);
  EXPECT_EQ(a.steered, b.steered);
  EXPECT_EQ(a.fault_injected, b.fault_injected);
  EXPECT_EQ(a.key_recovered, b.key_recovered);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.rows_scanned.values(), b.rows_scanned.values());
  EXPECT_EQ(a.ciphertexts_used.values(), b.ciphertexts_used.values());
  EXPECT_EQ(a.sim_seconds.values(), b.sim_seconds.values());
  EXPECT_EQ(a.failure_stages, b.failure_stages);
}

TEST(CampaignRunner, AggregateIsTrialStatsOverItsOwnReports) {
  const CampaignAggregate agg =
      CampaignRunner(runner_cfg(crypto::CipherKind::kAes128, 3, 2)).run();
  TrialStats stats;
  for (const CampaignReport& r : agg.reports)
    stats.add(TrialRow::from_report(r));
  expect_stats_equal(agg, stats);
}

TEST(TrialStats, HandBuiltRowsTallyEachPhase) {
  TrialRow success;
  success.template_found = success.steered = success.fault_injected = true;
  success.key_recovered = success.success = true;
  success.rows_scanned = 12;
  success.ciphertexts_used = 1536;
  success.failure_stage = "none";
  success.total_time = 2 * kSecond;

  TrialRow steering = success;
  steering.steered = steering.fault_injected = false;
  steering.key_recovered = steering.success = false;
  steering.rows_scanned = 30;
  // A failed trial's count must never reach the ciphertexts sample.
  steering.ciphertexts_used = 77;
  steering.failure_stage = "steering";

  TrialRow templating;
  templating.rows_scanned = 64;
  templating.failure_stage = "templating";
  templating.total_time = kSecond;

  TrialStats stats;
  stats.add({success, steering, templating});
  EXPECT_EQ(stats.trials, 3u);
  EXPECT_EQ(stats.templated, 2u);
  EXPECT_EQ(stats.steered, 1u);
  EXPECT_EQ(stats.fault_injected, 1u);
  EXPECT_EQ(stats.key_recovered, 1u);
  EXPECT_EQ(stats.succeeded, 1u);
  EXPECT_EQ(stats.success_fraction(), "1/3");
  EXPECT_EQ(stats.ciphertexts_used.values(), std::vector<double>{1536.0});
  EXPECT_EQ(stats.rows_scanned.values(),
            (std::vector<double>{12.0, 30.0, 64.0}));
  EXPECT_EQ(stats.sim_seconds.values(),
            (std::vector<double>{2.0, 2.0, 1.0}));

  std::uint32_t stage_total = 0;
  for (const auto& [stage, count] : stats.failure_stages) stage_total += count;
  EXPECT_EQ(stage_total, stats.trials);
  EXPECT_EQ(stats.failure_stages,
            (std::map<std::string, std::uint32_t>{
                {"none", 1}, {"steering", 1}, {"templating", 1}}));
}

TEST(CampaignRunner, AesAndPresentShareTheCampaignPath) {
  // The same RunnerConfig shape drives both ciphers; only the enum (and the
  // cipher-conditioned knobs) differ. Both must produce cipher-tagged
  // reports with the right key sizes out of the one campaign pipeline.
  const CampaignAggregate aes =
      CampaignRunner(runner_cfg(crypto::CipherKind::kAes128, 4, 2)).run();
  const CampaignAggregate present =
      CampaignRunner(runner_cfg(crypto::CipherKind::kPresent80, 4, 2)).run();

  for (const CampaignReport& r : aes.reports) {
    EXPECT_EQ(r.cipher, crypto::CipherKind::kAes128);
    EXPECT_EQ(r.victim_key.size(), 16u);
  }
  for (const CampaignReport& r : present.reports) {
    EXPECT_EQ(r.cipher, crypto::CipherKind::kPresent80);
    EXPECT_EQ(r.victim_key.size(), 10u);
  }
  // Different ciphers, different trials — but the same phase accounting.
  EXPECT_LE(aes.succeeded, aes.key_recovered);
  EXPECT_LE(present.succeeded, present.key_recovered);
}

TEST(CampaignRunner, ZeroThreadsClampsToOne) {
  // RunnerConfig documents "0 = 1": a zero thread count must run serially,
  // not hang or crash, and produce exactly the single-threaded results.
  RunnerConfig cfg = runner_cfg(crypto::CipherKind::kAes128, 2, 0);
  const CampaignAggregate zero = CampaignRunner(cfg).run();
  cfg.threads = 1;
  const CampaignAggregate one = CampaignRunner(cfg).run();
  ASSERT_EQ(zero.reports.size(), 2u);
  for (std::size_t i = 0; i < zero.reports.size(); ++i)
    EXPECT_TRUE(reports_equal(zero.reports[i], one.reports[i]))
        << "trial " << i;
}

TEST(CampaignRunner, MoreThreadsThanTrialsClampsToTrials) {
  // Oversubscription must not spawn idle workers or change results.
  RunnerConfig cfg = runner_cfg(crypto::CipherKind::kAes128, 2, 16);
  const CampaignAggregate wide = CampaignRunner(cfg).run();
  cfg.threads = 1;
  const CampaignAggregate serial = CampaignRunner(cfg).run();
  ASSERT_EQ(wide.reports.size(), 2u);
  for (std::size_t i = 0; i < wide.reports.size(); ++i)
    EXPECT_TRUE(reports_equal(wide.reports[i], serial.reports[i]))
        << "trial " << i;
}

TEST(CampaignRunner, DistinctMasterSeedsDecorrelateTrials) {
  const RunnerConfig cfg_a = runner_cfg(crypto::CipherKind::kAes128, 2, 2);
  RunnerConfig cfg_b = cfg_a;
  cfg_b.seed = cfg_a.seed + 1;
  const CampaignAggregate a = CampaignRunner(cfg_a).run();
  const CampaignAggregate b = CampaignRunner(cfg_b).run();
  std::size_t identical = 0;
  for (std::size_t i = 0; i < a.reports.size(); ++i)
    identical += reports_equal(a.reports[i], b.reports[i]) ? 1 : 0;
  EXPECT_LT(identical, a.reports.size());
  // Victim keys must differ: each trial's key derives from its own seed.
  EXPECT_NE(a.reports[0].victim_key, b.reports[0].victim_key);
}

}  // namespace
}  // namespace explframe::attack
