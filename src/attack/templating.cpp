#include "attack/templating.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"

namespace explframe::attack {

namespace {

/// The record for bit `bit` of the byte `off` bytes past `base`.
FlipRecord flip_at(vm::VirtAddr base, std::uint64_t off, std::uint8_t bit,
                   bool to_one, vm::VirtAddr aggressor_lo,
                   vm::VirtAddr aggressor_hi) {
  FlipRecord rec;
  rec.page_va = base + (off / kPageSize) * kPageSize;
  rec.offset = static_cast<std::uint32_t>(off % kPageSize);
  rec.bit = bit;
  rec.to_one = to_one;
  rec.aggressor_lo = aggressor_lo;
  rec.aggressor_hi = aggressor_hi;
  return rec;
}

}  // namespace

std::uint64_t discover_row_stride(kernel::System& system, kernel::Task& task,
                                  vm::VirtAddr base, std::uint64_t limit) {
  const auto& t = system.dram().params().timings;
  const double threshold =
      0.5 * static_cast<double>(t.row_hit_ns + t.row_conflict_ns);
  const std::uint64_t row_bytes = system.dram().geometry().row_bytes;

  const auto conflicts = [&](vm::VirtAddr a, vm::VirtAddr b) {
    SimTime total = 0;
    constexpr std::uint32_t kProbes = 8;
    for (std::uint32_t i = 0; i < kProbes; ++i) {
      total += system.uncached_access(task, a);
      total += system.uncached_access(task, b);
    }
    return static_cast<double>(total) / (2.0 * kProbes) > threshold;
  };

  // Probe at several bases and take a majority vote: the first pages of a
  // fresh buffer are often physical-contiguity outliers (their frames were
  // interleaved with the kernel's own page-table allocations).
  for (std::uint64_t stride = row_bytes; 4 * stride <= limit; stride *= 2) {
    int votes = 0;
    for (std::uint64_t frac = 4; frac <= 8; frac += 2) {
      const vm::VirtAddr probe_base =
          base + (limit / frac / row_bytes) * row_bytes;
      if (conflicts(probe_base, probe_base + stride)) ++votes;
    }
    if (votes >= 2) return stride;
  }
  return 0;
}

Templater::Templater(kernel::System& system, kernel::Task& attacker,
                     const TemplateConfig& config)
    : system_(&system),
      attacker_(&attacker),
      config_(config),
      row_bytes_(system.dram().geometry().row_bytes),
      row_(row_bytes_) {
  EXPLFRAME_CHECK(config.buffer_bytes >= 4 * row_bytes_);
}

bool Templater::allocate_buffer() {
  const vm::VirtAddr va = system_->sys_mmap(*attacker_, config_.buffer_bytes);
  // Fault every page in, in ascending order: on a fresh buddy allocator
  // this yields a mostly physically-contiguous buffer. A machine too small
  // for the buffer runs out of frames part-way (an OOM kill, in Linux).
  const std::uint64_t pages = config_.buffer_bytes / kPageSize;
  for (std::uint64_t p = 0; p < pages; ++p) {
    if (!system_->mem_fill(*attacker_, va + p * kPageSize, 1, 0xFF))
      return false;
  }
  buffer_va_ = va;
  buffer_pages_ = pages;
  row_stride_ = discover_row_stride(*system_, *attacker_, buffer_va_,
                                    config_.buffer_bytes);
  // Under XOR bank hashing no single stride conflicts; the contiguous
  // strategy cannot work then, but random-pair templating still can.
  EXPLFRAME_CHECK_MSG(
      row_stride_ != 0 ||
          config_.strategy == TemplateStrategy::kRandomPairs,
      "could not discover the bank stride by timing");
  return true;
}

template <typename Emit>
void Templater::scan_row(vm::VirtAddr va, std::uint64_t len,
                         std::uint8_t pattern, Emit&& emit) {
  const std::span<std::uint8_t> row(row_.data(), len);
  system_->mem_read(*attacker_, va, row);
  for_each_flipped_bit(row, pattern, emit);
}

void Templater::probe_row(vm::VirtAddr target_row_va, std::uint8_t pattern,
                          TemplateReport& report) {
  const vm::VirtAddr agg_lo = target_row_va - row_stride_;
  const vm::VirtAddr agg_hi = target_row_va + row_stride_;

  // Fill target row with `pattern`, aggressor rows with its complement
  // (stripe patterns maximise coupling).
  const auto anti = static_cast<std::uint8_t>(~pattern);
  system_->mem_fill(*attacker_, target_row_va, row_bytes_, pattern);
  system_->mem_fill(*attacker_, agg_lo, row_bytes_, anti);
  system_->mem_fill(*attacker_, agg_hi, row_bytes_, anti);

  // Hammer on the batched-activation path (identical to per-access).
  const vm::VirtAddr aggressors[2] = {agg_lo, agg_hi};
  system_->hammer_burst(*attacker_, aggressors, config_.hammer_iterations);

  // Scan the target row for bits that changed.
  scan_row(target_row_va, row_bytes_, pattern,
           [&](std::size_t off, std::uint8_t bit, bool to_one) {
             report.flips.push_back(
                 flip_at(target_row_va, off, bit, to_one, agg_lo, agg_hi));
           });
}

TemplateReport Templater::scan() { return scan_until(nullptr); }

TemplateReport Templater::scan_until(
    const std::function<bool(const FlipRecord&)>& good) {
  EXPLFRAME_CHECK_MSG(buffer_va_ != 0, "allocate_buffer() first");
  return config_.strategy == TemplateStrategy::kRandomPairs
             ? scan_random_pairs(good)
             : scan_contiguous(good);
}

TemplateReport Templater::scan_random_pairs(
    const std::function<bool(const FlipRecord&)>& good) {
  TemplateReport report;
  const SimTime start = system_->now();
  Rng rng(config_.seed ^ 0xfeedULL);
  const std::uint64_t rows = config_.buffer_bytes / row_bytes_;
  const std::uint64_t budget = config_.max_rows != 0 ? config_.max_rows : rows;

  const auto& t = system_->dram().params().timings;
  const double threshold =
      0.5 * static_cast<double>(t.row_hit_ns + t.row_conflict_ns);

  // Work one polarity at a time over the whole buffer: fill, hammer random
  // same-bank pairs, rescan after every session.
  std::vector<vm::VirtAddr> flip_pages;
  const int passes = config_.both_polarities ? 2 : 1;
  bool done = false;
  for (int pass = 0; pass < passes && !done; ++pass) {
    const std::uint8_t pattern = pass == 0 ? 0xFF : 0x00;
    system_->mem_fill(*attacker_, buffer_va_, config_.buffer_bytes, pattern);
    for (std::uint64_t session = 0; session < budget && !done; ++session) {
      // Find a timing-verified same-bank pair of distinct rows.
      vm::VirtAddr a = 0, b = 0;
      bool have_pair = false;
      for (int attempt = 0; attempt < 64; ++attempt) {
        a = buffer_va_ + rng.uniform(rows) * row_bytes_;
        b = buffer_va_ + rng.uniform(rows) * row_bytes_;
        if (a == b) continue;
        SimTime total = 0;
        for (std::uint32_t p = 0; p < 8; ++p) {
          total += system_->uncached_access(*attacker_, a);
          total += system_->uncached_access(*attacker_, b);
        }
        if (static_cast<double>(total) / 16.0 > threshold) {
          have_pair = true;
          break;
        }
      }
      if (!have_pair) continue;
      ++report.rows_scanned;  // counts hammer sessions in this mode

      const vm::VirtAddr aggressors[2] = {a, b};
      system_->hammer_burst(*attacker_, aggressors, config_.hammer_iterations);

      // Full-buffer rescan, a row at a time: any byte differing from the
      // pattern (outside the aggressor rows themselves, which the probe
      // loop dirtied the row buffers of, not the data) is a new flip.
      // Restoring a byte cannot change a later row's readback: a write
      // clears only its own bytes' live flips, and no ECC word straddles
      // two word-aligned rows.
      for (std::uint64_t base = 0; base < config_.buffer_bytes;
           base += row_bytes_) {
        const std::uint64_t len =
            std::min<std::uint64_t>(row_bytes_, config_.buffer_bytes - base);
        std::uint64_t restored = ~std::uint64_t{0};
        scan_row(buffer_va_ + base, len, pattern,
                 [&](std::size_t off, std::uint8_t bit, bool to_one) {
          const FlipRecord rec = flip_at(buffer_va_, base + off, bit, to_one,
                                         std::min(a, b), std::max(a, b));
          report.flips.push_back(rec);
          if (std::find(flip_pages.begin(), flip_pages.end(), rec.page_va) ==
              flip_pages.end())
            flip_pages.push_back(rec.page_va);
          if (good && good(rec)) done = true;
          // Restore the pattern so the flip is not double-counted.
          if (off != restored) {
            system_->mem_fill(*attacker_, buffer_va_ + base + off, 1, pattern);
            restored = off;
          }
        });
      }
      if (config_.stop_after != 0 && flip_pages.size() >= config_.stop_after)
        done = true;
    }
  }
  report.pages_with_flips = flip_pages.size();
  report.elapsed = system_->now() - start;
  return report;
}

TemplateReport Templater::scan_contiguous(
    const std::function<bool(const FlipRecord&)>& good) {
  TemplateReport report;
  const SimTime start = system_->now();
  // Every row_bytes-sized block of the buffer is one DRAM row of some bank;
  // its same-bank neighbours sit row_stride away on either side.
  const vm::VirtAddr first = buffer_va_ + row_stride_;
  const vm::VirtAddr last = buffer_va_ + config_.buffer_bytes - row_stride_;

  std::vector<vm::VirtAddr> flip_pages;
  for (vm::VirtAddr target = first; target + row_bytes_ <= last;
       target += row_bytes_) {
    if (config_.max_rows != 0 && report.rows_scanned >= config_.max_rows)
      break;
    ++report.rows_scanned;
    // A target whose physical row sits at a bank edge has only one real
    // neighbour; hammering the VA "neighbours" would disturb unrelated rows.
    // Count it as skipped instead of recording a hammered-no-flips row.
    // (Harness-side accounting: the attacker herself would only see the
    // timing check below fail.)
    const dram::DramAddress target_coord =
        system_->dram().mapping().decode(system_->phys_of(*attacker_, target));
    if (target_coord.row == 0 ||
        target_coord.row + 1 >= system_->dram().geometry().rows_per_bank) {
      ++report.rows_skipped_edge;
      continue;
    }
    // Bank sanity check through the timing channel: if the two aggressor
    // rows do not conflict, the VA->PA contiguity assumption broke here.
    SimTime total = 0;
    for (std::uint32_t p = 0; p < config_.timing_probes; ++p) {
      total += system_->uncached_access(*attacker_, target - row_stride_);
      total += system_->uncached_access(*attacker_, target + row_stride_);
    }
    const auto& t = system_->dram().params().timings;
    const double avg = static_cast<double>(total) /
                       (2.0 * config_.timing_probes);
    if (avg < 0.5 * static_cast<double>(t.row_hit_ns + t.row_conflict_ns)) {
      ++report.rows_skipped_timing;
      continue;
    }

    const std::size_t before = report.flips.size();
    probe_row(target, 0xFF, report);
    if (config_.both_polarities) probe_row(target, 0x00, report);
    bool found_good = false;
    for (std::size_t i = before; i < report.flips.size(); ++i) {
      const vm::VirtAddr pv = report.flips[i].page_va;
      if (std::find(flip_pages.begin(), flip_pages.end(), pv) ==
          flip_pages.end())
        flip_pages.push_back(pv);
      if (good && good(report.flips[i])) found_good = true;
    }
    if (found_good) break;
    if (config_.stop_after != 0 && flip_pages.size() >= config_.stop_after)
      break;
  }
  report.pages_with_flips = flip_pages.size();
  report.elapsed = system_->now() - start;
  return report;
}

SimTime Templater::hammer_aggressors(const FlipRecord& flip) const {
  return hammer_aggressors(flip, config_.hammer_iterations);
}

SimTime Templater::hammer_aggressors(const FlipRecord& flip,
                                     std::uint64_t iterations) const {
  const vm::VirtAddr aggressors[2] = {flip.aggressor_lo, flip.aggressor_hi};
  return system_->hammer_burst(*attacker_, aggressors, iterations);
}

}  // namespace explframe::attack
