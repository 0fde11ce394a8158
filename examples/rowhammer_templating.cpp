// Memory templating from user level (§VI of the paper).
//
//   $ ./examples/rowhammer_templating [seed]
//
// The attacker mmaps a buffer, discovers the same-bank row stride purely by
// timing, double-side hammers each candidate row and records which of her
// own pages flip — no pagemap, no privileges, virtual addresses only.
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "attack/templating.hpp"
#include "support/table.hpp"

using namespace explframe;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  kernel::SystemConfig config;
  config.memory_bytes = 64 * kMiB;
  config.num_cpus = 1;
  // A vulnerable DDR3 module (dense weak cells, moderate thresholds).
  config.dram.weak_cells.cells_per_mib = 64.0;
  config.dram.weak_cells.threshold_log_mean = 10.4;
  config.dram.weak_cells.threshold_max = 60'000;
  config.seed = seed;
  kernel::System sys(config);

  kernel::Task& attacker = sys.spawn("attacker", 0);

  attack::TemplateConfig tc;
  tc.buffer_bytes = 4 * kMiB;
  tc.hammer_iterations = 120'000;
  tc.both_polarities = true;
  attack::Templater templater(sys, attacker, tc);

  if (!templater.allocate_buffer()) {
    std::fprintf(stderr, "could not fault in the attack buffer (OOM)\n");
    return 1;
  }
  std::printf("buffer: %llu pages at VA 0x%llx\n",
              (unsigned long long)templater.buffer_pages(),
              (unsigned long long)templater.buffer_va());
  std::printf("timing-discovered same-bank row stride: %llu KiB\n",
              (unsigned long long)(templater.row_stride() / kKiB));

  const auto report = templater.scan();
  std::printf("scanned %llu rows (%llu skipped by the bank timing check), "
              "found %zu flips in %llu pages, %.1f simulated seconds\n\n",
              (unsigned long long)report.rows_scanned,
              (unsigned long long)report.rows_skipped_timing,
              report.flips.size(),
              (unsigned long long)report.pages_with_flips,
              static_cast<double>(report.elapsed) / kSecond);

  Table t({"page VA", "offset", "bit", "direction", "aggressor VAs"});
  std::size_t shown = 0;
  for (const auto& f : report.flips) {
    if (++shown > 16) break;
    char va[32], off[16], aggs[64];
    std::snprintf(va, sizeof va, "0x%llx", (unsigned long long)f.page_va);
    std::snprintf(off, sizeof off, "0x%x", f.offset);
    std::snprintf(aggs, sizeof aggs, "0x%llx / 0x%llx",
                  (unsigned long long)f.aggressor_lo,
                  (unsigned long long)f.aggressor_hi);
    t.row(va, off, static_cast<int>(f.bit), f.to_one ? "0->1" : "1->0", aggs);
  }
  t.print(std::cout);
  if (report.flips.size() > 16)
    std::printf("(+%zu more)\n", report.flips.size() - 16);

  // Verify reproducibility of the first flip, as the attack will rely on.
  if (!report.flips.empty()) {
    const auto& f = report.flips.front();
    const std::uint8_t charged = f.to_one ? 0x00 : 0xFF;
    sys.mem_write(attacker, f.page_va + f.offset, {&charged, 1});
    sys.dram().refresh_now();
    templater.hammer_aggressors(f);
    std::uint8_t now = 0;
    sys.mem_read(attacker, f.page_va + f.offset, {&now, 1});
    const bool again = (((now >> f.bit) & 1u) != 0) == f.to_one;
    std::printf("\nre-hammering the first flip's aggressors: flip %s\n",
                again ? "REPRODUCED (the property ExplFrame exploits)"
                      : "did not reproduce");
  }
  return 0;
}
