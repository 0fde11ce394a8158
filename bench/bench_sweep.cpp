// PERF — sweep-engine overhead.
//
// A sweep must cost what its points cost: the grid expansion, the
// (group, trial) task pool, the per-point record building and the fsynced
// checkpoint log all ride on top of CampaignRunner, and this bench keeps
// that tax honest. It runs one registered grid twice:
//
//   standalone — every expanded point executed directly through
//                CampaignRunner (the cost floor: no sweep machinery);
//   sweep      — the same points through run_sweep with checkpointing
//                enabled (the full engine, as `explsim sweep run` uses it).
//
// Both run single-threaded so the comparison measures machinery, not
// scheduling luck. Writes BENCH_sweep.json (override with --json=PATH) so
// CI can archive the trajectory, and exits non-zero if the sweep path
// costs more than 5% over the summed standalone runs (override with
// --bar=FRACTION) — the CI smoke check that the engine stays thin.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "attack/campaign_runner.hpp"
#include "scenario/registry.hpp"
#include "support/table.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"

using namespace explframe;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> d =
      std::chrono::steady_clock::now() - start;
  return d.count();
}

/// Cost floor: each point as a bare CampaignRunner, no sweep machinery.
double standalone_seconds(const std::vector<sweep::SweepPoint>& points) {
  const auto start = std::chrono::steady_clock::now();
  for (const sweep::SweepPoint& point : points) {
    attack::RunnerConfig config = point.scenario.runner_config();
    config.threads = 1;
    attack::CampaignRunner runner(config);
    (void)runner.run();
  }
  return seconds_since(start);
}

double sweep_seconds(const sweep::SweepSpec& spec,
                     const std::string& checkpoint) {
  sweep::SweepRunOptions options;
  options.threads = 1;
  options.checkpoint_path = checkpoint;
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      sweep::run_sweep(spec, scenario::Registry::builtin(), options);
  EXPLFRAME_CHECK(result.has_value());
  return seconds_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_sweep.json";
  double bar = 0.05;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    if (arg.rfind("--bar=", 0) == 0) bar = std::atof(arg.c_str() + 6);
  }

  print_banner(std::cout, "PERF: sweep-engine overhead");

  const sweep::SweepSpec& spec = sweep::builtin_sweep("defence-grid");
  std::string error;
  const auto points =
      spec.expand(scenario::Registry::builtin(), &error);
  EXPLFRAME_CHECK_MSG(points.has_value(), "builtin sweep must expand");
  const std::string checkpoint =
      (std::filesystem::temp_directory_path() / "bench_sweep.ckpt").string();

  // Warm-up (allocator pools, code paths), then interleaved best-of-3:
  // the minimum of repeated runs cancels frequency/scheduler noise that a
  // single 0.3 s measurement cannot, and interleaving keeps a mid-bench
  // thermal drift from taxing one side only.
  (void)standalone_seconds(*points);
  double standalone = 0.0;
  double swept = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double alone = standalone_seconds(*points);
    const double engine = sweep_seconds(spec, checkpoint);
    if (rep == 0 || alone < standalone) standalone = alone;
    if (rep == 0 || engine < swept) swept = engine;
  }
  const double overhead =
      standalone > 0.0 ? swept / standalone - 1.0 : 0.0;

  Table t({"path", "seconds", "overhead"});
  t.row("standalone campaigns", standalone, "-");
  t.row("sweep engine", swept, Table::percent(overhead));
  t.print(std::cout);
  std::cout << spec.name << ": " << points->size()
            << " points, single-threaded, checkpointing enabled\n";

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"sweep\",\n"
       << "  \"sweep\": \"" << spec.name << "\",\n"
       << "  \"points\": " << points->size() << ",\n"
       << "  \"standalone_seconds\": " << standalone << ",\n"
       << "  \"sweep_seconds\": " << swept << ",\n"
       << "  \"overhead_fraction\": " << overhead << "\n"
       << "}\n";
  std::cout << "\nwrote " << json_path << "\n";

  // The acceptance bar: the engine may add at most `bar` (default 5%)
  // over the summed standalone campaign runs.
  if (overhead > bar) {
    std::cerr << "FAIL: sweep overhead " << Table::percent(overhead)
              << " exceeds " << Table::percent(bar) << "\n";
    return 1;
  }
  return 0;
}
