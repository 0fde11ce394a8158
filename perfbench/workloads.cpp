// The four workloads: handbook, sweeps, giant-16g and daemon.
//
// Each one builds its inputs from the run's seed in setup(), runs closed
// passes over them from this one process, and checks every output. At seed
// 0 the registered scenario seeds apply, so handbook and sweeps outputs are
// byte-compared against the committed goldens; any other seed offsets
// every scenario seed and gives held-out inputs. At every seed, each timed
// pass must reproduce byte for byte the warm-up pass over the same inputs,
// which ran at another thread count; the giant trial is also re-driven
// through the public pieces, and daemon replies are compared with direct
// runs.
#include <atomic>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "crypto/table_cipher.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"
#include "sweep/registry.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace explbench {

using ef::attack::CampaignReport;
using ef::scenario::Registry;
using ef::scenario::Scenario;
using ef::scenario::ScenarioResult;
using Files = std::vector<std::pair<std::string, std::string>>;

std::string report_bytes(const ef::attack::CampaignReport& report) {
  ef::sweep::PointRecord record;
  record.trials.push_back(ef::sweep::TrialRow::from_report(report));
  return record.serialize();
}

void Verdict::fail(std::uint64_t n, const std::string& why) {
  failed += n;
  if (issues.size() < 20) issues.push_back(why);
}

namespace {

/// A scenario re-read through its own `.scn` text: the validation a
/// user-supplied scenario file gets.
Scenario validated(const Scenario& s) {
  std::string error;
  auto parsed = Scenario::from_scn(s.to_scn(), &error);
  if (!parsed) throw std::runtime_error(s.name + ": " + error);
  return *parsed;
}

/// A plain scenario run as a trace group of one variant, expecting the
/// runner's reports.
TraceGroup single_group(const ef::attack::RunnerConfig& rc,
                        const std::vector<CampaignReport>& reports,
                        std::size_t batch, bool serial_trials) {
  TraceGroup g;
  g.base = rc;
  g.variants = {rc.campaign};
  g.take_snapshot = rc.campaign.fork_from_snapshot;
  g.expected.emplace_back();
  for (const CampaignReport& r : reports) g.expected.back().push_back(report_bytes(r));
  g.batch = batch;
  g.serial_trials = serial_trials;
  return g;
}

}  // namespace

Registry offset_registry(std::uint64_t offset) {
  Registry registry;
  for (Scenario s : Registry::builtin().all()) {
    s.seed += offset;
    registry.add(validated(s));
  }
  return registry;
}

/// run_sweep's grouping: grid points agreeing on every template-shaping
/// field, master seed and trial count share one templated base per trial.
std::vector<TraceGroup> sweep_groups(const ef::sweep::SweepResult& result,
                                     std::size_t batch) {
  std::map<std::string, std::size_t> index;
  std::vector<TraceGroup> groups;
  for (const ef::sweep::SweepPoint& point : result.points) {
    const ef::attack::RunnerConfig rc = point.scenario.runner_config();
    const std::string key = ef::attack::template_key(rc.system, rc.campaign) +
                            "|seed=" + std::to_string(rc.seed) +
                            "|trials=" + std::to_string(rc.trials);
    const auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().base = rc;
      groups.back().batch = batch;
      groups.back().serial_trials = true;  // one worker runs a whole group
    }
    TraceGroup& g = groups[it->second];
    g.variants.push_back(rc.campaign);
    g.expected.emplace_back();
    for (const ef::sweep::TrialRow& row : result.records[point.index].trials) {
      ef::sweep::PointRecord one;
      one.trials.push_back(row);
      g.expected.back().push_back(one.serialize());
    }
  }
  // A lone point runs through run_scenario, whose campaign decides itself
  // whether it forks; a shared group always forks from its snapshot.
  for (TraceGroup& g : groups)
    g.take_snapshot = g.variants.size() > 1 || g.base.campaign.fork_from_snapshot;
  return groups;
}

namespace {

/// Handbook and sweeps inputs come at this many seed offsets (copies); one
/// pass runs one copy, and the window runs whole rotations. One copy's
/// host time moves with its seeds (PRESENT's residual key search tries a
/// key-dependent number of candidates; a sweep's wall time is set by its
/// slowest point group), so a mean over many copies keeps wall_s
/// comparable across seeds. The grids vary more, so they get more copies.
constexpr std::uint32_t kHandbookCopies = 8;
constexpr std::uint32_t kSweepCopies = 16;

/// The scenario-seed offset of copy `copy` of a run with `seed`.
std::uint64_t seed_offset(std::uint64_t seed, std::uint32_t copies,
                          std::uint32_t copy) {
  return seed * copies + copy;
}

/// Decode both cipher adapters' tables and the AES-NI dispatch once, as a
/// set-up cost rather than inside the first timed trial.
void warm_ciphers() {
  for (const auto kind :
       {ef::crypto::CipherKind::kAes128, ef::crypto::CipherKind::kPresent80}) {
    const auto& cipher = ef::crypto::cipher_for(kind);
    std::vector<std::uint8_t> key(cipher.key_size()), rk(cipher.round_key_size());
    cipher.expand_key(key, rk);
    const auto ctx = cipher.make_context(rk, cipher.canonical_table());
    std::vector<std::uint8_t> block(cipher.block_size()), out(cipher.block_size());
    cipher.encrypt_batch(*ctx, block, out);
  }
}

double ms_since(double start) { return (now_s() - start) * 1e3; }

/// Compare a pass's files with the first (warm-up) pass's, failing the
/// trials of every scenario/grid whose bytes moved.
void compare_files(const Files& now, const Files& first,
                   const std::vector<std::uint64_t>& trials, Verdict& v) {
  for (std::size_t i = 0; i < now.size(); ++i) {
    if (i < first.size() && now[i] == first[i]) continue;
    v.fail(trials[i], "output differs from the warm-up pass: " + now[i].first);
  }
}

/// Fail the pass's checked trials if the regenerated files drift from
/// the goldens on disk.
void check_goldens(const Files& files, const std::string& dir,
                   std::uint64_t trials, Verdict& v) {
  const auto issues = ef::sweep::check_generated_files(files, dir);
  if (issues.empty()) return;
  v.fail(trials, "golden mismatch under " + dir + ": " + issues.front());
}

// ---- handbook ---------------------------------------------------------------

/// Every registered scenario through CampaignRunner, as `explsim all` runs
/// them: each trial builds and templates a fresh 64 MiB machine. A pass is
/// one copy of the handbook, rendered, which is also its one job.
class Handbook final : public Workload {
 public:
  explicit Handbook(const Options& o) : o_(o), dir_(o.repo + "/docs/results") {}

  void setup() override {
    registries_.clear();
    for (std::uint32_t c = 0; c < kHandbookCopies; ++c)
      registries_.push_back(offset_registry(seed_offset(o_.seed, kHandbookCopies, c)));
    warm_ciphers();
    passes_ = 0;
    first_.clear();
  }

  std::uint32_t rotation() const override { return kHandbookCopies; }

  PassResult pass(SpanLog* log, std::uint32_t threads) override {
    PassResult r;
    results_.clear();
    copy_ = passes_++ % kHandbookCopies;
    const double start = now_s();
    for (const Scenario& s : registries_[copy_].all()) {
      results_.push_back(maybe_span(log, "attack.runner", [&] {
        return ef::scenario::run_scenario(s, threads);
      }));
      rendered_.emplace_back(ef::scenario::markdown_report(results_.back()),
                             ef::scenario::csv_report(results_.back()));
      r.trials += results_.back().aggregate.trials;
    }
    r.wall_s = now_s() - start;
    r.job_ms.push_back(r.wall_s * 1e3);
    return r;
  }

  void check(Verdict& v) override {
    Files files;
    std::vector<std::uint64_t> trials;
    std::uint64_t copy_trials = 0;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const ScenarioResult& res = results_[i];
      const std::string path = dir_ + "/" + res.scenario.name;
      files.emplace_back(path + ".md", rendered_[i].first);
      files.emplace_back(path + ".csv", rendered_[i].second);
      trials.insert(trials.end(), 2, res.aggregate.trials);
      copy_trials += res.aggregate.trials;
    }
    rendered_.clear();
    v.attempted += copy_trials;
    const auto [first, inserted] = first_.emplace(copy_, files);
    if (!inserted) {
      compare_files(files, first->second, trials, v);
    } else if (o_.seed == 0 && copy_ == 0) {
      files.emplace_back(dir_ + "/README.md", ef::scenario::markdown_index(results_));
      check_goldens(files, dir_, copy_trials, v);
    }
  }

  std::vector<TraceGroup> trace_groups() override {
    std::vector<TraceGroup> groups;
    for (const ScenarioResult& res : results_) {
      // CampaignRunner finishes one scenario before the next starts.
      groups.push_back(single_group(res.scenario.runner_config(),
                                    res.aggregate.reports, groups.size(), false));
    }
    return groups;
  }

 private:
  const Options o_;
  const std::string dir_;
  std::vector<Registry> registries_;
  std::uint32_t passes_ = 0, copy_ = 0;
  std::vector<ScenarioResult> results_;
  std::vector<std::pair<std::string, std::string>> rendered_;
  std::map<std::uint32_t, Files> first_;  ///< Per copy, its first pass.
};

// ---- sweeps -----------------------------------------------------------------

/// Every registered grid through run_sweep: point groups run in parallel,
/// each on one worker. The registered grids share no templated base (each
/// point differs in a template-shaping field or in its derived seed), so
/// every group is a single point. A pass is one copy of every grid with
/// its pages, as `explsim sweep all` runs them, which is also its one job.
class Sweeps final : public Workload {
 public:
  explicit Sweeps(const Options& o)
      : o_(o), dir_(o.repo + "/docs/results/sweeps") {}

  void setup() override {
    registries_.clear();
    for (std::uint32_t c = 0; c < kSweepCopies; ++c)
      registries_.push_back(offset_registry(seed_offset(o_.seed, kSweepCopies, c)));
    specs_ = ef::sweep::Registry::builtin().all();
    for (const Registry& registry : registries_) {
      for (const ef::sweep::SweepSpec& spec : specs_) {
        std::string error;
        if (!spec.expand(registry, &error))
          throw std::runtime_error(spec.name + ": " + error);
      }
    }
    warm_ciphers();
    passes_ = 0;
    first_.clear();
  }

  std::uint32_t rotation() const override { return kSweepCopies; }

  PassResult pass(SpanLog* log, std::uint32_t threads) override {
    PassResult r;
    results_.clear();
    errors_.clear();
    copy_ = passes_++ % kSweepCopies;
    const double start = now_s();
    for (const ef::sweep::SweepSpec& spec : specs_) {
      ef::sweep::SweepRunOptions options;
      options.threads = threads;
      std::string error;
      auto result = maybe_span(log, "sweep.run", [&] {
        return ef::sweep::run_sweep(spec, registries_[copy_], options, &error);
      });
      if (!result) {
        errors_.push_back(spec.name + ": " + error);
        continue;
      }
      for (const auto& record : result->records) r.trials += record.trials.size();
      results_.push_back(std::move(*result));
    }
    files_ = ef::sweep::sweep_files(results_, dir_);
    r.wall_s = now_s() - start;
    r.job_ms.push_back(r.wall_s * 1e3);
    return r;
  }

  void check(Verdict& v) override {
    for (const std::string& e : errors_) v.fail(1, "sweep failed: " + e);
    v.attempted += errors_.size();
    std::uint64_t copy_trials = 0;
    std::vector<std::uint64_t> trials;
    for (const auto& result : results_) {
      std::uint64_t n = 0;
      for (const auto& record : result.records) n += record.trials.size();
      copy_trials += n;
      trials.insert(trials.end(), 2, n);  // its .csv and .md
    }
    trials.push_back(copy_trials);  // the index
    v.attempted += copy_trials;
    const auto [first, inserted] = first_.emplace(copy_, files_);
    if (!inserted)
      compare_files(files_, first->second, trials, v);
    else if (o_.seed == 0 && copy_ == 0)
      check_goldens(files_, dir_, copy_trials, v);
  }

  std::vector<TraceGroup> trace_groups() override {
    std::vector<TraceGroup> groups;
    std::size_t batch = 0;
    for (const auto& result : results_) {
      auto g = sweep_groups(result, batch++);
      groups.insert(groups.end(), g.begin(), g.end());
    }
    return groups;
  }

 private:
  const Options o_;
  const std::string dir_;
  std::vector<Registry> registries_;
  std::vector<ef::sweep::SweepSpec> specs_;
  std::uint32_t passes_ = 0, copy_ = 0;
  std::vector<ef::sweep::SweepResult> results_;
  Files files_;
  std::map<std::uint32_t, Files> first_;  ///< Per copy, its first pass.
  std::vector<std::string> errors_;
};

// ---- giant-16g --------------------------------------------------------------

/// The quickstart attack on a 16 GiB machine, one trial per pass: machine
/// construction (the weak-cell population) dominates, the analysis is
/// cheap AES PFA.
class Giant final : public Workload {
 public:
  explicit Giant(const Options& o) : o_(o) {}

  void setup() override {
    Scenario s = *offset_registry(o_.seed).find("quickstart");
    s.memory_mib = 16384;
    s.trials = 1;
    s.threads = o_.threads;
    scenario_ = validated(s);
    warm_ciphers();
  }

  PassResult pass(SpanLog* log, std::uint32_t threads) override {
    PassResult r;
    ef::attack::RunnerConfig rc = scenario_.runner_config();
    rc.threads = threads;
    const double start = now_s();
    ef::attack::CampaignRunner runner(rc);
    agg_ = maybe_span(log, "attack.runner", [&] { return runner.run(); });
    r.wall_s = now_s() - start;
    r.trials = agg_.trials;
    r.job_ms.push_back(r.wall_s * 1e3);
    return r;
  }

  void check(Verdict& v) override {
    v.attempted += agg_.trials;
    std::vector<std::string> bytes;
    for (const CampaignReport& r : agg_.reports) bytes.push_back(report_bytes(r));
    if (first_.empty()) first_ = bytes;
    else if (bytes != first_) v.fail(agg_.trials, "giant: report differs from the warm-up pass");
  }

  /// One trial runs on one thread whatever the count, so the warm-up
  /// comparison only shows determinism. The trial is therefore also
  /// re-driven without CampaignRunner and its analysis replayed.
  void finish(Verdict& v) override { cross_check(trace_groups(), other_threads(o_), v); }

  std::vector<TraceGroup> trace_groups() override {
    return {single_group(scenario_.runner_config(), agg_.reports, 0, false)};
  }

 private:
  const Options o_;
  Scenario scenario_;
  ef::attack::CampaignAggregate agg_;
  std::vector<std::string> first_;
};

// ---- daemon -----------------------------------------------------------------

/// An in-process service::Service on a scratch spool (real filesystem),
/// driven by closed-loop clients. Each pass submits kJobsPerPass requests:
/// three in four are fresh seed variants (spool write + execution), one in
/// four repeats a variant completed in an earlier pass (served from the
/// done cache). The mix and the job size are assumptions, not taken from
/// any record of real use. Latency is therefore kept per mode (job_ms over
/// executed requests, hit_ms over cache hits), so the mix moves
/// jobs_per_s and trials_per_s but not job_ms_p50 or job_ms_tail.
class Daemon final : public Workload {
 public:
  static constexpr std::uint32_t kJobsPerPass = 16;
  /// Trials per job: enough simulated work that execution, not the
  /// spool's fsyncs, dominates a fresh job.
  static constexpr std::uint32_t kTrialsPerJob = 24;

  explicit Daemon(const Options& o) : o_(o) {}
  ~Daemon() override { teardown(); }

  void setup() override {
    if (service_) throw std::logic_error("daemon: setup() without teardown()");
    registry_ = Registry();
    add_variants(kJobsPerPass);  // the first pass's; later passes add theirs
    spool_ = o_.out + "/spool-" + std::to_string(::getpid());
    std::filesystem::remove_all(spool_);
    ef::service::ServiceOptions options;
    options.spool_dir = spool_;
    options.workers = o_.threads;  // x 1 inner thread per job <= nproc
    service_ = std::make_unique<ef::service::Service>(options, registry_, sweeps_);
    std::string error;
    if (!service_->start(&error)) throw std::runtime_error("spool: " + error);
    next_fresh_ = 0;
    passes_ = 0;
    completed_.clear();
    first_.clear();
    served_.clear();
    std::lock_guard lock(stats_mutex_);
    stats_ = {};
  }

  void teardown() override {
    if (!service_) return;
    service_->shutdown(ef::service::Service::Shutdown::kDrain);
    service_.reset();
    std::error_code ec;
    std::filesystem::remove_all(spool_, ec);
  }

  /// The service's workers run each job single-threaded, whatever
  /// `threads` says.
  PassResult pass(SpanLog* log, std::uint32_t /*threads*/) override {
    // The job plan is fixed by the seed and the pass number, not timing.
    std::vector<std::uint32_t> plan;
    const std::size_t pool = completed_.size();
    for (std::uint32_t k = 0; k < kJobsPerPass; ++k) {
      if (pool > 0 && k % 4 == 3) {
        ef::SplitMix64 pick(o_.seed * 0x9e3779b97f4a7c15ULL + passes_ * kJobsPerPass + k);
        plan.push_back(completed_[pick.next() % pool]);
      } else {
        plan.push_back(next_fresh_++);
      }
    }
    ++passes_;
    // Every job of the last pass has finished, so no worker reads the
    // registry while it grows.
    add_variants(next_fresh_);
    served_.assign(plan.size(), {});
    std::atomic<std::size_t> cursor{0};
    const double start = now_s();
    auto client = [&] {
      for (std::size_t k; (k = cursor.fetch_add(1)) < plan.size();) serve(plan[k], served_[k]);
    };
    maybe_span(log, "service.pass", [&] {
      std::vector<std::thread> clients;
      for (std::uint32_t c = 0; c < o_.threads; ++c) clients.emplace_back(client);
      for (std::thread& t : clients) t.join();
    });
    PassResult r;
    r.wall_s = now_s() - start;
    for (const Served& s : served_) {
      (s.cached ? r.hit_ms : r.job_ms).push_back(s.latency_ms);
      if (!s.cached) r.trials += kTrialsPerJob;
    }
    return r;
  }

  void check(Verdict& v) override {
    for (const Served& s : served_) {
      ++v.attempted;
      const std::string name = variant_name(s.variant);
      if (!s.error.empty()) {
        v.fail(1, name + ": " + s.error);
        continue;
      }
      const auto it = first_.find(s.variant);
      if (it == first_.end()) {
        if (s.cached) v.fail(1, name + ": first submission served from cache");
        first_[s.variant] = {s.md, s.csv};
        continue;
      }
      if (!s.cached) v.fail(1, name + ": repeat submission executed again");
      if (it->second != std::make_pair(s.md, s.csv))
        v.fail(1, name + ": cache hit differs from the first serve");
    }
    executed_last_.clear();
    for (const Served& s : served_) {
      if (s.cached) continue;
      executed_last_.push_back(s.variant);
      if (s.error.empty()) completed_.push_back(s.variant);
    }
  }

  /// Service workers run each job at 1 thread; the direct runs use
  /// `threads`, so this also compares two thread counts.
  void finish(Verdict& v) override {
    if (service_->executions() != first_.size())
      v.fail(1, "daemon: " + std::to_string(service_->executions()) +
                    " executions for " + std::to_string(first_.size()) + " jobs");
    for (const auto& [variant, served] : first_) {
      const Scenario& s = *registry_.find(variant_name(variant));
      ScenarioResult direct = ef::scenario::run_scenario(s, o_.threads);
      if (ef::scenario::markdown_report(direct) != served.first ||
          ef::scenario::csv_report(direct) != served.second)
        v.fail(1, s.name + ": served report differs from the direct run");
      direct_[variant] = std::move(direct.aggregate.reports);
    }
  }

  std::vector<TraceGroup> trace_groups() override {
    std::vector<TraceGroup> groups;
    // A service worker runs a job single-threaded.
    for (const std::uint32_t variant : executed_last_)
      groups.push_back(single_group(registry_.find(variant_name(variant))->runner_config(),
                                    direct_.at(variant), 0, true));
    return groups;
  }

  std::optional<ServiceStats> service_stats() const override {
    std::lock_guard lock(stats_mutex_);
    return stats_;
  }

 private:
  struct Served {
    std::uint32_t variant = 0;
    bool cached = false;
    double latency_ms = 0.0;
    std::string md, csv, error;
  };

  static std::string variant_name(std::uint32_t variant) {
    return "quickstart.v" + std::to_string(variant);
  }

  /// Register fresh variants until there are `count`.
  void add_variants(std::uint32_t count) {
    const Scenario& base = ef::scenario::builtin_scenario("quickstart");
    for (std::uint32_t i = static_cast<std::uint32_t>(registry_.all().size()); i < count; ++i) {
      Scenario s = base;
      s.name = variant_name(i);
      s.trials = kTrialsPerJob;
      s.threads = 1;
      s.seed = base.seed + (o_.seed + 1) * 1'000'000 + i;
      registry_.add(validated(s));
    }
  }

  void serve(std::uint32_t variant, Served& out) {
    out.variant = variant;
    ef::service::JobRequest request;
    request.kind = ef::service::JobKind::kScenario;
    request.name = variant_name(variant);
    request.threads = 1;
    const double start = now_s();
    std::string error;
    const auto outcome = service_->submit(request, &error);
    const double submit_ms = ms_since(start);
    if (!outcome) {
      out.error = "submit: " + error;
      return;
    }
    out.cached = outcome->cached;
    for (;;) {
      const auto job = service_->status(outcome->id);
      if (out.cached || (job && job->state == ef::service::JobState::kDone)) break;
      if (!job || job->state == ef::service::JobState::kFailed) {
        out.error = job ? job->error : "job vanished";
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const auto md = service_->report(outcome->id, "md");
    const auto csv = service_->report(outcome->id, "csv");
    out.latency_ms = ms_since(start);
    if (!md || !csv) {
      out.error = "report missing";
      return;
    }
    out.md = *md;
    out.csv = *csv;
    std::lock_guard lock(stats_mutex_);
    stats_.submits += 1;
    stats_.submit_ms += submit_ms;
    stats_.cache_hits += outcome->cached;
    stats_.dedupes += outcome->deduped;
    stats_.executions = service_->executions();
  }

  const Options o_;
  Registry registry_;
  const ef::sweep::Registry sweeps_;
  std::string spool_;
  std::unique_ptr<ef::service::Service> service_;
  std::uint32_t next_fresh_ = 0;
  std::uint32_t passes_ = 0;
  std::vector<std::uint32_t> completed_;
  std::vector<std::uint32_t> executed_last_;
  std::vector<Served> served_;
  std::map<std::uint32_t, std::pair<std::string, std::string>> first_;
  std::map<std::uint32_t, std::vector<CampaignReport>> direct_;
  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"handbook", "sweeps",
                                                 "giant-16g", "daemon"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "handbook") return std::make_unique<Handbook>(options);
  if (options.workload == "sweeps") return std::make_unique<Sweeps>(options);
  if (options.workload == "giant-16g") return std::make_unique<Giant>(options);
  if (options.workload == "daemon") return std::make_unique<Daemon>(options);
  return nullptr;
}

}  // namespace explbench
