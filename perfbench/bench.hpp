// explbench — shared declarations of the benchmark program.
//
// explbench times the simulator from the outside: every span and every
// clock read lives in these files, around calls into explframe_core's
// public entry points. Nothing here feeds back into a simulated value.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attack/campaign_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "sweep/runner.hpp"

namespace explbench {

namespace ef = explframe;

// ---- Command line ----------------------------------------------------------

/// Parsed command line (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 0;  ///< 0 = registered seeds, goldens checked.
  double seconds = 15.0;   ///< Length of the timed window.
  bool trace = false;      ///< Run the traced per-layer run instead.
  std::string repo = ".";  ///< Checkout root (docs/results/, src/).
  std::string out = ".bench_build/out";  ///< Records, traces, spools.
  std::string commit = "none";
  std::uint32_t threads = 1;  ///< min(4, hardware threads); recorded.
};

/// The second thread count outputs are compared at: half of `threads`, or
/// 2 on a one-thread host. Simulated outputs must not depend on it.
inline std::uint32_t other_threads(const Options& o) {
  return o.threads > 1 ? o.threads / 2 : 2;
}

// ---- Host measurements (host.cpp) -----------------------------------------

/// Host seconds since explbench started (steady clock).
double now_s();
/// User + system CPU seconds of the whole process so far.
double cpu_s();
/// Peak resident set of the process so far, MiB.
double peak_rss_mib();

/// The provenance every result record carries, as one JSON object, so
/// numbers from different hosts or commits never look comparable.
std::string host_stamp(const Options& options);

/// JSON string literal of `s` (quoted, escaped).
std::string json_str(const std::string& s);
/// A finite number with all its digits ("0" for non-finite input).
std::string json_num(double v);

// ---- Spans (trace.cpp) -----------------------------------------------------

/// One timed call: name ("<layer>.<what>"), host interval, the enclosing
/// span's index in the same log (-1 at the root), the trial (task) id the
/// call belongs to and the worker thread that ran it.
struct Span {
  std::string name;
  double start = 0.0, end = 0.0;  ///< now_s() seconds.
  double cpu = 0.0;  ///< Process CPU seconds over the interval (coarse legs).
  std::int32_t parent = -1;
  std::uint32_t trial = 0;
  std::uint32_t tid = 0;
};

/// Spans of one task, written by one thread; merged after the task ends.
class SpanLog {
 public:
  SpanLog(std::uint32_t trial, std::uint32_t tid) : trial_(trial), tid_(tid) {}

  /// Trial id of the spans opened from now on.
  void set_trial(std::uint32_t trial) { trial_ = trial; }

  /// Run `f` inside a span named `name`; returns what `f` returns.
  template <class F>
  decltype(auto) span(const char* name, F&& f) {
    const std::size_t index = open(name);
    struct Closer {
      SpanLog* log;
      std::size_t index;
      ~Closer() { log->close(index); }
    } closer{this, index};
    return f();
  }

  std::vector<Span> spans;

 private:
  std::size_t open(const char* name);
  void close(std::size_t index);

  std::uint32_t trial_;
  std::uint32_t tid_;
  std::int32_t open_ = -1;
};

/// Calls `f` inside a span when `log` is non-null, directly otherwise.
template <class F>
decltype(auto) maybe_span(SpanLog* log, const char* name, F&& f) {
  if (log) return log->span(name, std::forward<F>(f));
  return f();
}

/// All spans of a run, with the per-layer views the report needs.
struct SpanSet {
  std::vector<Span> spans;

  /// Append `log`'s spans, re-basing parent indices.
  void merge(const SpanLog& log);
  /// Total duration of spans named `name` (seconds, summed over threads).
  double total(const std::string& name) const;
  /// Total process CPU over spans named `name`.
  double total_cpu(const std::string& name) const;
  /// Number of spans named `name`.
  std::size_t count(const std::string& name) const;
  /// layer -> (self seconds, span count); a span's self time is its
  /// duration minus its children's, its layer the name before the first dot.
  std::map<std::string, std::pair<double, std::size_t>> self_by_layer() const;
  /// Chrome trace-event JSON (opens offline in Perfetto / chrome://tracing).
  bool write_chrome(const std::string& path, const std::string& stamp) const;
};

// ---- Correctness -----------------------------------------------------------

/// The canonical bytes of a report's published columns (the sweep
/// checkpoint's TrialRow encoding) — what "byte-identical" compares.
std::string report_bytes(const ef::attack::CampaignReport& report);

/// Tally of checked outputs; any failure makes the run incorrect.
struct Verdict {
  std::uint64_t attempted = 0;  ///< Trials (or jobs) whose output was checked.
  std::uint64_t failed = 0;     ///< Of those, wrong or errored.
  std::vector<std::string> issues;
  void fail(std::uint64_t n, const std::string& why);
};

// ---- Workloads (workloads.cpp) --------------------------------------------

/// One timed pass: its wall time, simulated trials completed and the
/// latency of each job (the pass itself for handbook, sweeps and
/// giant-16g; each executed request for daemon). Daemon requests served from the done cache
/// are the other latency mode and are kept apart in `hit_ms`.
struct PassResult {
  double wall_s = 0.0;
  std::uint64_t trials = 0;
  std::vector<double> job_ms;
  std::vector<double> hit_ms;
};

/// Trials sharing one templated base, as the traced run re-drives them:
/// per trial, one System, one TemplatedCampaign and one run_fork per
/// variant (a plain scenario is a group of one).
struct TraceGroup {
  ef::attack::RunnerConfig base;
  std::vector<ef::attack::CampaignConfig> variants;
  bool take_snapshot = true;
  /// expected[v][t]: report_bytes of the untraced run's report.
  std::vector<std::vector<std::string>> expected;
  /// Groups run batch by batch, mirroring the untraced schedule: a batch's
  /// tasks run in parallel, the next batch starts when they all finish.
  std::size_t batch = 0;
  /// One task runs all trials in order (a sweep group, a daemon job)
  /// instead of one task per trial (CampaignRunner).
  bool serial_trials = false;
};

/// What the daemon's clients saw of the service.
struct ServiceStats {
  std::uint64_t submits = 0;
  double submit_ms = 0.0;  ///< Summed over submits.
  std::uint64_t executions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t dedupes = 0;
};

/// A workload: set-up, timed passes, output checks, and the trial groups
/// of its last pass for the traced run.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs (registries, grids, spool).
  virtual void setup() = 0;
  /// Undo setup() (stop the service, remove the spool), so that setup()
  /// can run again. Never timed.
  virtual void teardown() {}
  /// Passes that cover the inputs once; the warm-up runs this many and
  /// the window runs whole multiples of it.
  virtual std::uint32_t rotation() const { return 1; }
  /// One pass over the next share of the workload's inputs, with the
  /// simulator called at `threads` threads (the daemon's worker count is
  /// fixed by setup()). With `log`, coarse spans (attack.runner,
  /// sweep.run, service.pass) wrap the calls into those layers.
  virtual PassResult pass(SpanLog* log, std::uint32_t threads) = 0;
  /// Check the outputs of the pass just run. The first pass over each
  /// share of the inputs is the reference later passes over it must
  /// reproduce byte for byte.
  virtual void check(Verdict& verdict) = 0;
  /// Untimed checks after the window (daemon vs direct reports, the
  /// giant trial re-driven).
  virtual void finish(Verdict& /*verdict*/) {}
  /// The last pass's trials as trace groups, with their expected reports.
  virtual std::vector<TraceGroup> trace_groups() = 0;
  /// The service as its clients saw it (daemon only).
  virtual std::optional<ServiceStats> service_stats() const {
    return std::nullopt;
  }
};

std::unique_ptr<Workload> make_workload(const Options& options);
/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
/// run_sweep's template groups of a finished sweep, as trace groups.
std::vector<TraceGroup> sweep_groups(const ef::sweep::SweepResult& result,
                                     std::size_t batch);
/// The built-in scenario catalogue with every seed moved by `offset`.
ef::scenario::Registry offset_registry(std::uint64_t offset);

// ---- Runs (main.cpp / traced.cpp) ------------------------------------------

/// name -> (value, unit), in insertion order.
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Re-drive `groups` through System, TemplatedCampaign and run_fork on
/// `threads` workers, without CampaignRunner or run_sweep, and replay each
/// analysed fork through fault::make_analysis. A report that differs from
/// the expected bytes, or a replay that recovers another key, fails.
void cross_check(const std::vector<TraceGroup>& groups, std::uint32_t threads,
                 Verdict& verdict);

/// The traced per-layer run: metrics, plus failures of its faithfulness
/// checks in `verdict`.
Metrics run_traced(const Options& options, Workload& workload,
                   const std::string& stamp, Verdict& verdict);

}  // namespace explbench
