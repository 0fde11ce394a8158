// explbench — the ExplFrame benchmark program.
//
//   explbench --workload <handbook|sweeps|giant-16g|daemon> --seed N
//             --seconds S --trace <0|1> [--repo DIR] [--out DIR]
//             [--commit ID]
//
// --trace 0 times the workload: set-up repeated at the start and again at
// the end of the run (median reported), one untimed warm-up rotation (every input once) at another
// thread count, then closed passes in whole rotations until S seconds have
// elapsed (at least 2 passes), each checked byte for byte against the
// warm-up. --trace 1 runs the traced per-layer run
// instead (traced.cpp). Either way the last stdout line is one JSON
// object {correct, attempted, failed, metrics}; the full record, stamped
// with host and commit, is printed above it and written under --out.
// Exits 1 when any output fails its check, 2 on bad usage or set-up errors.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace explbench {
namespace {

/// A timed run sets up, for at least kSetupSeconds and kSetups times,
/// once before its passes and once after them; setup_s is the median of
/// both phases. The host's speed drifts by a third over seconds, so
/// set-ups at both ends of the run sample more of its states than one
/// burst would.
constexpr std::size_t kSetups = 16;
constexpr double kSetupSeconds = 0.5;

/// Time set-ups into `out` for kSetupSeconds, at least kSetups times,
/// leaving the last one standing. Teardowns between them are not timed.
void time_setups(Workload& w, std::vector<double>& out) {
  const std::size_t before = out.size();
  for (const double first = now_s();
       out.size() - before < kSetups || now_s() - first < kSetupSeconds;) {
    if (out.size() > before) w.teardown();
    const double start = now_s();
    w.setup();
    out.push_back(now_s() - start);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

/// Mean of `v` without its lowest and highest eighth (one value each from
/// 4 values on). A pass's time can be bimodal over the inputs, where a
/// median jumps between modes, and heavy-tailed, where a mean follows the
/// one slow input; this follows neither.
double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() >= 4 ? std::max<std::size_t>(1, v.size() / 8) : 0;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Options from argv; nullopt on a malformed command line.
std::optional<Options> parse(int argc, char** argv) {
  Options o;
  o.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    try {
      if (flag == "--workload") o.workload = value;
      else if (flag == "--seed") o.seed = std::stoull(value);
      else if (flag == "--seconds") o.seconds = std::stod(value);
      else if (flag == "--trace") o.trace = std::stoi(value) != 0;
      else if (flag == "--repo") o.repo = value;
      else if (flag == "--out") o.out = value;
      else if (flag == "--commit") o.commit = value;
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || o.seconds <= 0.0) return std::nullopt;
  if (std::find(workload_names().begin(), workload_names().end(), o.workload) ==
      workload_names().end())
    return std::nullopt;
  return o;
}

/// The timed run's end-to-end metrics.
Metrics run_timed(const Options& o, Workload& w, Verdict& verdict) {
  std::vector<double> setups;
  time_setups(w, setups);
  // Warm-up: caches fill, lazy set-up finishes, and its outputs, made at
  // another thread count, are what every timed pass must reproduce.
  for (std::uint32_t i = 0; i < w.rotation(); ++i) {
    w.pass(nullptr, other_threads(o));
    w.check(verdict);
  }

  // wall_s and the rates are trimmed means over passes, so that one slow
  // input (a PRESENT trial whose residual search keeps failing) moves none
  // of them.
  std::vector<double> walls, trial_rates, job_rates, job_ms, hit_ms;
  double busy = 0.0;
  const double window = now_s();
  while (walls.size() < 2 || now_s() - window < o.seconds ||
         walls.size() % w.rotation() != 0) {
    const PassResult r = w.pass(nullptr, o.threads);
    walls.push_back(r.wall_s);
    trial_rates.push_back(static_cast<double>(r.trials) / r.wall_s);
    job_rates.push_back(static_cast<double>(r.job_ms.size() + r.hit_ms.size()) / r.wall_s);
    job_ms.insert(job_ms.end(), r.job_ms.begin(), r.job_ms.end());
    hit_ms.insert(hit_ms.end(), r.hit_ms.begin(), r.hit_ms.end());
    w.check(verdict);
    busy = now_s() - window;
  }
  const double rss = peak_rss_mib();
  w.finish(verdict);
  w.teardown();
  time_setups(w, setups);
  w.teardown();

  // The highest percentile with at least ten samples beyond it. With 20
  // jobs or fewer it falls back to the rank above the median.
  std::sort(job_ms.begin(), job_ms.end());
  const std::size_t tail_rank =
      job_ms.size() > 20 ? job_ms.size() - 11 : job_ms.size() / 2;
  const double tail_pct = 100.0 * static_cast<double>(tail_rank + 1) /
                          static_cast<double>(job_ms.size());
  std::printf("%s: %zu passes, %zu jobs in %.2f s; job_ms_tail is p%.1f "
              "(%zu samples, %zu beyond it)\n",
              o.workload.c_str(), walls.size(), job_ms.size(), busy, tail_pct,
              job_ms.size(), job_ms.size() - tail_rank - 1);
  std::printf("%s: pass walls (s):", o.workload.c_str());
  for (const double wall : walls) std::printf(" %.4f", wall);
  std::printf("\n");
  if (!hit_ms.empty())
    std::printf("%s: %zu cache hits, not in job_ms_*: p50 %.3f ms\n",
                o.workload.c_str(), hit_ms.size(), median(hit_ms));
  return {
      {"wall_s", {trimmed_mean(walls), "s"}},
      {"trials_per_s", {trimmed_mean(trial_rates), "1/s"}},
      {"setup_s", {median(setups), "s"}},
      {"peak_rss_mib", {rss, "MiB"}},
      {"jobs_per_s", {trimmed_mean(job_rates), "1/s"}},
      {"job_ms_p50", {median(job_ms), "ms"}},
      {"job_ms_tail", {job_ms[tail_rank], "ms"}},
  };
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    out += (i ? ", " : "") + json_str(name) + ": {\"value\": " +
           json_num(vu.first) + ", \"unit\": " + json_str(vu.second) + "}";
  }
  return out + "}";
}

int run(const Options& o) {
  std::filesystem::create_directories(o.out);
  const std::string stamp = host_stamp(o);
  const auto workload = make_workload(o);
  Verdict verdict;
  const Metrics metrics = o.trace ? run_traced(o, *workload, stamp, verdict)
                                  : run_timed(o, *workload, verdict);

  std::printf("\n%-28s %22s  %s\n", "metric", "value", "unit");
  for (const auto& [name, vu] : metrics)
    std::printf("%-28s %22.9g  %s\n", name.c_str(), vu.first, vu.second.c_str());
  // Two outputs of one trial (its .md and .csv) may both fail.
  verdict.failed = std::min(verdict.failed, verdict.attempted);
  const bool correct = verdict.failed == 0 && verdict.issues.empty();
  const double failed_frac =
      verdict.attempted ? static_cast<double>(verdict.failed) / verdict.attempted : 1.0;
  std::printf("failed_frac = %.6f (%llu of %llu checked)\n", failed_frac,
              static_cast<unsigned long long>(verdict.failed),
              static_cast<unsigned long long>(verdict.attempted));
  for (const std::string& issue : verdict.issues)
    std::printf("FAILED: %s\n", issue.c_str());

  const std::string result =
      "{\"correct\": " + std::string(correct && verdict.attempted ? "true" : "false") +
      ", \"attempted\": " + std::to_string(verdict.attempted) +
      ", \"failed\": " + std::to_string(verdict.failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  const std::string record = "{\"host\": " + stamp +
                             ", \"failed_frac\": " + json_num(failed_frac) +
                             ", \"result\": " + result + "}";
  const std::string path = o.out + "/record-" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream(path) << record << "\n";
  std::printf("record: %s\n%s\n", record.c_str(), result.c_str());
  std::fflush(stdout);
  return correct && verdict.attempted ? 0 : 1;
}

}  // namespace
}  // namespace explbench

int main(int argc, char** argv) {
  const auto options = explbench::parse(argc, argv);
  if (!options) {
    std::fprintf(stderr,
                 "usage: explbench --workload <handbook|sweeps|giant-16g|daemon> "
                 "--seed N --seconds S --trace <0|1> [--repo DIR] [--out DIR] "
                 "[--commit ID]\n");
    return 2;
  }
  try {
    return explbench::run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explbench: %s\n", e.what());
    return 2;
  }
}
