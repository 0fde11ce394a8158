// The traced per-layer run.
//
// Separate from the timed runs, it re-drives the workload's trials through
// the public pieces — System construction, TemplatedCampaign, run_fork per
// variant, plus an explicit System::snapshot/restore — with a span around
// every call. Standalone legs follow: each trial's WeakCellModel rebuilt
// from its geometry/params/seed, and each analysed fork replayed through
// fault::make_analysis. Layers the workload does not reach get a small leg
// of their own (CampaignRunner, run_sweep, Service), so every per-layer
// metric is measured on every workload.
//
// Faithfulness: every re-driven report must equal the untraced run's byte
// for byte, every replay must recover the same key with the same candidate
// count, and all simulated counters must agree between a run at the
// configured thread count and one at half of it. Otherwise the
// per-layer numbers would describe a different program.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>
#include <utility>

#include "attack/campaign.hpp"
#include "bench.hpp"
#include "dram/weak_cells.hpp"
#include "fault/analysis.hpp"
#include "scenario/registry.hpp"
#include "support/rng.hpp"
#include "sweep/registry.hpp"

namespace explbench {
namespace {

using ef::attack::CampaignConfig;
using ef::attack::CampaignReport;

/// The machine's simulated activity counters (deterministic in the seed).
struct Counters {
  std::uint64_t page_faults = 0, activations = 0, flips = 0, refreshes = 0,
                trr = 0, ecc = 0, pgalloc = 0, pcp_hits = 0;

  static Counters read(const ef::kernel::System& sys) {
    const auto& d = sys.dram();
    const auto& vm = sys.allocator().stats();
    return {sys.stats().page_faults, d.total_activations(), d.total_flips(),
            d.refresh_count(),       d.trr_interventions(), d.ecc_corrected_bits(),
            vm.pgalloc,              vm.pcp_alloc_hits};
  }
  void add(const Counters& c) { add(c, Counters()); }
  void add(const Counters& c, const Counters& minus) {
    page_faults += c.page_faults - minus.page_faults;
    activations += c.activations - minus.activations;
    flips += c.flips - minus.flips;
    refreshes += c.refreshes - minus.refreshes;
    trr += c.trr - minus.trr;
    ecc += c.ecc - minus.ecc;
    pgalloc += c.pgalloc - minus.pgalloc;
    pcp_hits += c.pcp_hits - minus.pcp_hits;
  }
  bool operator==(const Counters&) const = default;
};

/// One analysed fork, captured for the replay leg.
struct Replay {
  CampaignConfig config;
  ef::fault::FaultModel fault;
  std::vector<std::uint8_t> table;  ///< The victim's faulty stored table.
  std::uint64_t plaintext_seed = 0;
  CampaignReport expect;
  std::uint32_t trial = 0;
};

/// One trial's machine, captured for the weak-cell leg.
struct WeakLeg {
  std::uint64_t memory_bytes = 0;
  ef::dram::WeakCellParams params;
  std::uint64_t seed = 0;
  std::uint64_t cells = 0;  ///< What the trial's System built.
  std::uint32_t trial = 0;
};

/// Simulated tallies of a pipeline run; equal at any thread count.
struct Tally {
  Counters sim;  ///< Templating once per base, plus each fork's own work.
  std::uint64_t bases = 0, templated = 0, captures = 0, forks = 0,
                rows_scanned = 0, flips_found = 0, ciphertexts = 0,
                encryptions = 0, state_bytes = 0;
  bool operator==(const Tally&) const = default;
};

struct TaskOut {
  SpanLog log{0, 0};
  Tally tally;
  std::vector<Replay> replays;
  std::vector<WeakLeg> weak;
  std::vector<std::string> mismatches;
};

template <class F>
void parallel_for(std::size_t n, std::uint32_t threads, F&& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&](std::uint32_t tid) {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i, tid);
  };
  const auto workers = static_cast<std::uint32_t>(
      std::clamp<std::size_t>(threads, 1, std::max<std::size_t>(n, 1)));
  std::vector<std::thread> pool;
  for (std::uint32_t w = 1; w < workers; ++w) pool.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : pool) t.join();
}

/// One trial of `g`, exactly as CampaignRunner::run_trial(_group) runs it,
/// with a span around every call into the simulator.
void run_trial(const TraceGroup& g, std::uint32_t t, std::uint32_t trial_id,
               TaskOut& out) {
  SpanLog& log = out.log;
  log.set_trial(trial_id);
  log.span("bench.trial", [&] {
    const auto [system_seed, campaign_seed] =
        ef::attack::CampaignRunner::trial_seeds(g.base.seed, t);
    ef::kernel::SystemConfig sc = g.base.system;
    sc.seed = system_seed;
    const auto sys = log.span("kernel.system_build", [&] {
      return std::make_unique<ef::kernel::System>(sc);
    });
    out.weak.push_back({sc.memory_bytes, sc.dram.weak_cells, system_seed,
                        sys->dram().weak_cells().total_cells(), trial_id});

    CampaignConfig first = g.variants.front();
    first.seed = campaign_seed;
    std::optional<ef::attack::TemplatedCampaign> tc;
    log.span("attack.template", [&] { tc.emplace(*sys, first, g.take_snapshot); });
    const CampaignReport& tr = tc->template_result();
    Tally& tally = out.tally;
    ++tally.bases;
    tally.templated += tr.template_found;
    tally.captures += g.take_snapshot && tr.template_found;
    tally.rows_scanned += tr.rows_scanned;
    tally.flips_found += tr.flips_found;
    const Counters base = Counters::read(*sys);
    tally.sim.add(base);
    if (tr.template_found) {
      // An exact rollback to the state run_fork restores anyway.
      const auto snap = log.span("snapshot.capture", [&] { return sys->snapshot(); });
      log.span("snapshot.restore", [&] { sys->restore(*snap); });
    }

    for (std::size_t v = 0; v < g.variants.size(); ++v) {
      CampaignConfig cfg = g.variants[v];
      cfg.seed = campaign_seed;
      const std::uint64_t encryptions = tc->victim().encryptions();
      CampaignReport r = log.span("attack.fork", [&] { return tc->run_fork(cfg); });
      ++tally.forks;
      tally.sim.add(Counters::read(*sys), base);
      tally.encryptions += tc->victim().encryptions() - encryptions;
      tally.ciphertexts += r.ciphertexts_used;
      tally.state_bytes = std::max(tally.state_bytes, sys->dram().state_bytes());
      if (report_bytes(r) != g.expected[v][t])
        out.mismatches.push_back("trial " + std::to_string(trial_id) +
                                 ": traced report differs from the untraced run");
      if (r.steered && r.fault_injected)
        out.replays.push_back({cfg, tc->fault_model(), tc->victim().read_table(),
                               tc->plaintext_seed(), std::move(r), trial_id});
    }
  });
}

struct Pipeline {
  std::vector<TaskOut> tasks;
  double wall_s = 0.0;
  Tally tally;
};

/// Re-drive every group, batch by batch, on `threads` workers.
Pipeline run_pipeline(const std::vector<TraceGroup>& groups,
                      std::uint32_t threads) {
  struct Task {
    const TraceGroup* group;
    std::uint32_t first, last, trial_id;
  };
  std::vector<std::vector<Task>> batches;
  std::uint32_t trial_id = 0;
  for (const TraceGroup& g : groups) {
    if (batches.empty() || g.batch != groups[&g - groups.data() - 1].batch)
      batches.emplace_back();
    const std::uint32_t trials = g.base.trials;
    if (g.serial_trials) {
      batches.back().push_back({&g, 0, trials, trial_id});
    } else {
      for (std::uint32_t t = 0; t < trials; ++t)
        batches.back().push_back({&g, t, t + 1, trial_id + t});
    }
    trial_id += trials;
  }
  Pipeline p;
  const double start = now_s();
  for (const std::vector<Task>& batch : batches) {
    const std::size_t base = p.tasks.size();
    p.tasks.resize(base + batch.size());
    parallel_for(batch.size(), threads, [&](std::size_t i, std::uint32_t tid) {
      const Task& task = batch[i];
      TaskOut& out = p.tasks[base + i];
      out.log = SpanLog(task.trial_id, tid);
      for (std::uint32_t t = task.first; t < task.last; ++t)
        run_trial(*task.group, t, task.trial_id + t - task.first, out);
    });
  }
  p.wall_s = now_s() - start;
  for (const TaskOut& out : p.tasks) {
    Tally& t = p.tally;
    t.sim.add(out.tally.sim);
    t.bases += out.tally.bases;
    t.templated += out.tally.templated;
    t.captures += out.tally.captures;
    t.forks += out.tally.forks;
    t.rows_scanned += out.tally.rows_scanned;
    t.flips_found += out.tally.flips_found;
    t.ciphertexts += out.tally.ciphertexts;
    t.encryptions += out.tally.encryptions;
    t.state_bytes = std::max(t.state_bytes, out.tally.state_bytes);
  }
  return p;
}

/// Rebuild one trial's weak-cell population standalone.
std::uint64_t weak_cell_leg(const WeakLeg& w, SpanLog& log, Verdict& v) {
  log.set_trial(w.trial);
  return log.span("dram.weak_cells.build", [&]() -> std::uint64_t {
    const ef::dram::WeakCellModel model(
        ef::dram::Geometry::with_capacity(w.memory_bytes), w.params, w.seed);
    if (model.total_cells() != w.cells)
      v.fail(1, "trial " + std::to_string(w.trial) + ": weak-cell rebuild differs");
    return model.total_cells();
  });
}

/// Replay one fork's harvest + analysis from its fault model and victim key
/// (the campaign's batched loop: same plaintext stream, same cadence).
struct ReplayCount {
  std::uint64_t candidates = 0, recover_calls = 0;
};
ReplayCount replay_leg(const Replay& rp, SpanLog& log, Verdict& v) {
  log.set_trial(rp.trial);
  ReplayCount count;
  log.span("bench.replay", [&] {
    const auto& cipher = ef::crypto::cipher_for(rp.config.cipher);
    const auto analysis =
        ef::fault::make_analysis(rp.config.analysis, cipher, rp.fault);
    std::vector<std::uint8_t> round_keys(cipher.round_key_size());
    cipher.expand_key(rp.expect.victim_key, round_keys);
    const auto ctx = cipher.make_context(round_keys, rp.table);
    ef::Rng rng(rp.plaintext_seed);
    const std::size_t block = cipher.block_size();
    if (analysis->wants_known_pair()) {
      std::vector<std::uint8_t> pt(block), ct(block);
      rng.fill_bytes(pt);
      cipher.encrypt_batch(*ctx, pt, ct);
      analysis->set_known_pair(pt, ct);
    }
    std::uint32_t interval = rp.config.analysis_check_interval;
    if (interval == 0) interval = cipher.table_size() >= 256 ? 256 : 25;
    const std::uint32_t budget = rp.config.ciphertext_budget;
    const std::size_t cap = std::min(interval, budget) * block;
    std::vector<std::uint8_t> pts(cap), cts(cap);
    CampaignReport got;
    std::uint32_t done = 0;
    while (done < budget) {
      const std::uint32_t n = std::min(interval, budget - done);
      const std::span<std::uint8_t> pt(pts.data(), n * block), ct(cts.data(), n * block);
      rng.fill_bytes(pt);
      log.span("crypto.encrypt", [&] { cipher.encrypt_batch(*ctx, pt, ct); });
      log.span("fault.absorb", [&] { analysis->add_ciphertext_batch(ct, block); });
      done += n;
      ++count.recover_calls;
      if (auto key = log.span("fault.recover", [&] { return analysis->recover_key(); })) {
        got.key_recovered = true;
        got.recovered_key = std::move(*key);
        got.residual_search = analysis->residual_search();
        got.ciphertexts_used = done;
        break;
      }
    }
    if (!got.key_recovered) got.ciphertexts_used = budget;
    const CampaignReport& e = rp.expect;
    if (got.key_recovered != e.key_recovered || got.recovered_key != e.recovered_key ||
        got.residual_search != e.residual_search ||
        got.ciphertexts_used != e.ciphertexts_used)
      v.fail(1, "trial " + std::to_string(rp.trial) + ": analysis replay differs");
    count.candidates += got.residual_search;
  });
  return count;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void cross_check(const std::vector<TraceGroup>& groups, std::uint32_t threads,
                 Verdict& verdict) {
  const Pipeline p = run_pipeline(groups, threads);
  SpanLog scratch(0, 0);
  for (const TaskOut& out : p.tasks) {
    verdict.attempted += out.tally.forks;
    for (const std::string& m : out.mismatches) verdict.fail(1, m);
    for (const Replay& rp : out.replays) replay_leg(rp, scratch, verdict);
  }
}

Metrics run_traced(const Options& o, Workload& w, const std::string& stamp,
                   Verdict& verdict) {
  w.setup();
  // Two untraced reference passes (the first warms caches); the second's
  // wall time is the untraced baseline and its outputs the expected ones.
  SpanLog ref(0, 0);
  double untraced = 0.0;
  for (int i = 0; i < 2; ++i) {
    SpanLog scratch(0, 0);
    const double start = now_s();
    w.pass(i == 0 ? &scratch : &ref, o.threads);
    untraced = now_s() - start;
    w.check(verdict);
  }
  w.finish(verdict);
  const std::vector<TraceGroup> groups = w.trace_groups();

  Pipeline traced = run_pipeline(groups, o.threads);
  const std::uint32_t alt = other_threads(o);
  const Pipeline other = run_pipeline(groups, alt);
  for (const Pipeline* p : {&std::as_const(traced), &other})
    for (const TaskOut& out : p->tasks) {
      verdict.attempted += out.tally.forks;
      for (const std::string& m : out.mismatches) verdict.fail(1, m);
    }
  if (!(traced.tally == other.tally))
    verdict.fail(1, "simulated counters differ between " +
                        std::to_string(o.threads) + " and " +
                        std::to_string(alt) + " threads");

  // The reference pass's coarse spans feed the runner/sweep metrics and
  // the Chrome trace, but stay out of the self-time table: the pipeline
  // re-drives the same work.
  SpanSet reference, spans;
  reference.merge(ref);
  for (const TaskOut& out : traced.tasks) spans.merge(out.log);

  // Standalone legs, on the same workers.
  std::vector<const WeakLeg*> weak;
  std::vector<const Replay*> replays;
  for (const TaskOut& out : traced.tasks) {
    for (const WeakLeg& wl : out.weak) weak.push_back(&wl);
    for (const Replay& rp : out.replays) replays.push_back(&rp);
  }
  std::vector<SpanLog> leg_logs(weak.size() + replays.size(), SpanLog(0, 0));
  std::vector<std::uint64_t> cells(weak.size());
  std::vector<ReplayCount> counts(replays.size());
  std::vector<Verdict> leg_verdicts(leg_logs.size());
  parallel_for(leg_logs.size(), o.threads, [&](std::size_t i, std::uint32_t tid) {
    leg_logs[i] = SpanLog(0, tid);
    if (i < weak.size())
      cells[i] = weak_cell_leg(*weak[i], leg_logs[i], leg_verdicts[i]);
    else
      counts[i - weak.size()] =
          replay_leg(*replays[i - weak.size()], leg_logs[i], leg_verdicts[i]);
  });
  for (std::size_t i = 0; i < leg_logs.size(); ++i) {
    spans.merge(leg_logs[i]);
    verdict.attempted += 1;
    verdict.failed += leg_verdicts[i].failed;
    for (const std::string& s : leg_verdicts[i].issues) verdict.fail(0, s);
  }

  // Legs for layers the workload itself does not reach.
  SpanLog legs(0, 0);
  if (reference.count("attack.runner") == 0 && !groups.empty()) {
    ef::attack::RunnerConfig rc = groups.front().base;
    rc.threads = o.threads;
    const auto agg =
        legs.span("attack.runner", [&] { return ef::attack::CampaignRunner(rc).run(); });
    verdict.attempted += agg.trials;
    // The group's first variant is its base campaign.
    const std::vector<std::string>& expected = groups.front().expected[0];
    if (agg.reports.size() != expected.size())
      verdict.fail(1, "runner leg: trial count differs from the workload's");
    for (std::size_t t = 0; t < std::min(agg.reports.size(), expected.size()); ++t)
      if (report_bytes(agg.reports[t]) != expected[t])
        verdict.fail(1, "runner leg: trial " + std::to_string(t) +
                            " differs from the workload's report");
  }
  std::size_t sweep_groups_n = 0, sweep_points = 0;
  if (reference.count("sweep.run") > 0) {
    sweep_groups_n = groups.size();
    for (const TraceGroup& g : groups) sweep_points += g.variants.size();
  } else {
    const ef::scenario::Registry registry = offset_registry(o.seed);
    ef::sweep::SweepRunOptions options;
    options.threads = o.threads;
    std::string error;
    const auto result = legs.span("sweep.run", [&] {
      return ef::sweep::run_sweep(ef::sweep::builtin_sweep("aes-budget-curve"),
                                  registry, options, &error);
    });
    if (!result) {
      verdict.fail(1, "sweep leg: " + error);
    } else {
      const auto g = sweep_groups(*result, 0);
      sweep_groups_n = g.size();
      for (const TraceGroup& group : g) sweep_points += group.variants.size();
    }
  }
  std::optional<ServiceStats> service = w.service_stats();
  if (!service) {
    Options daemon = o;
    daemon.workload = "daemon";
    const auto d = make_workload(daemon);
    d->setup();
    for (int i = 0; i < 2; ++i) {
      d->pass(&legs, o.threads);
      d->check(verdict);
    }
    d->finish(verdict);
    service = d->service_stats();
  }
  spans.merge(legs);
  SpanSet all = spans;
  all.merge(ref);

  // ---- Metrics -------------------------------------------------------------
  const Tally& t = traced.tally;
  std::uint64_t cells_total = 0, candidates = 0, recover_calls = 0;
  for (const std::uint64_t c : cells) cells_total += c;
  for (const ReplayCount& c : counts) {
    candidates += c.candidates;
    recover_calls += c.recover_calls;
  }
  const double weak_s = spans.total("dram.weak_cells.build");
  const double template_s = spans.total("attack.template");
  const double fork_s = spans.total("attack.fork");
  const double recover_s = spans.total("fault.recover");
  const double sweep_s = all.total("sweep.run");
  const double runner_s = all.total("attack.runner");
  const auto n = [](auto v) { return static_cast<double>(v); };
  Metrics m = {
      {"kernel.system_build_s", {spans.total("kernel.system_build"), "s"}},
      {"kernel.page_faults", {n(t.sim.page_faults), "count"}},
      {"dram.weak_cells.build_s", {weak_s, "s"}},
      {"dram.weak_cells.cells", {n(cells_total), "count"}},
      {"dram.weak_cells.ns_per_cell", {ratio(weak_s * 1e9, n(cells_total)), "ns"}},
      {"dram.state_bytes", {n(t.state_bytes), "bytes"}},
      {"dram.activations", {n(t.sim.activations), "count"}},
      {"dram.flips", {n(t.sim.flips), "count"}},
      {"dram.refreshes", {n(t.sim.refreshes), "count"}},
      {"dram.trr_interventions", {n(t.sim.trr), "count"}},
      {"dram.ecc_corrected_bits", {n(t.sim.ecc), "count"}},
      {"mm.pgalloc", {n(t.sim.pgalloc), "count"}},
      {"mm.pcp_alloc_hits", {n(t.sim.pcp_hits), "count"}},
      {"mm.pcp_hit_ratio", {ratio(n(t.sim.pcp_hits), n(t.sim.pgalloc)), "ratio"}},
      {"attack.template_s", {template_s, "s"}},
      {"attack.ns_per_activation",
       {ratio((template_s + fork_s) * 1e9, n(t.sim.activations)), "ns"}},
      {"attack.rows_scanned", {n(t.rows_scanned), "count"}},
      {"attack.flips_found", {n(t.flips_found), "count"}},
      {"attack.template_yield", {ratio(n(t.templated), n(t.bases)), "ratio"}},
      {"attack.fork_s", {fork_s, "s"}},
      {"attack.ciphertexts_used", {n(t.ciphertexts), "count"}},
      {"attack.victim_encryptions", {n(t.encryptions), "count"}},
      {"attack.runner.cpu_util",
       {ratio(all.total_cpu("attack.runner"), runner_s * o.threads), "ratio"}},
      {"fault.absorb_s", {spans.total("fault.absorb"), "s"}},
      {"fault.recover_s", {recover_s, "s"}},
      {"fault.candidates", {n(candidates), "count"}},
      {"fault.ns_per_candidate",
       {ratio(recover_s * 1e9, n(candidates > 0 ? candidates : recover_calls)), "ns"}},
      {"snapshot.capture_s", {spans.total("snapshot.capture"), "s"}},
      {"snapshot.restore_s", {spans.total("snapshot.restore"), "s"}},
      {"snapshot.captures", {n(t.captures), "count"}},
      {"sweep.run_s", {sweep_s, "s"}},
      {"sweep.groups", {n(sweep_groups_n), "count"}},
      {"sweep.forks_per_template", {ratio(n(sweep_points), n(sweep_groups_n)), "ratio"}},
      {"sweep.cpu_util", {ratio(all.total_cpu("sweep.run"), sweep_s * o.threads), "ratio"}},
      {"service.submit_ms", {ratio(service->submit_ms, n(service->submits)), "ms"}},
      {"service.executions", {n(service->executions), "count"}},
      {"service.cache_hits", {n(service->cache_hits), "count"}},
      {"service.dedupes", {n(service->dedupes), "count"}},
      {"service.cache_hit_ratio",
       {ratio(n(service->cache_hits), n(service->submits)), "ratio"}},
      {"trace.overhead_frac", {traced.wall_s / untraced - 1.0, "frac"}},
  };

  // ---- Per-layer table and Chrome trace -----------------------------------
  std::printf("\n%s traced run: %zu trials, %zu forks, %zu spans\n",
              o.workload.c_str(), static_cast<std::size_t>(t.bases),
              static_cast<std::size_t>(t.forks), spans.spans.size());
  std::printf("  %-10s %12s %10s\n", "layer", "self_s", "spans");
  for (const auto& [layer, v] : spans.self_by_layer())
    std::printf("  %-10s %12.6f %10zu\n", layer.c_str(), v.first, v.second);
  std::printf("  trace.overhead_frac = %.4f (traced %.3f s / untraced %.3f s)\n",
              traced.wall_s / untraced - 1.0, traced.wall_s, untraced);
  const std::string path = o.out + "/trace-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  if (all.write_chrome(path, stamp))
    std::printf("  chrome trace: %s\n", path.c_str());
  else
    verdict.fail(0, "cannot write " + path);
  return m;
}

}  // namespace explbench
