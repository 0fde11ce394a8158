#include "attack/templating.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace explframe::attack {
namespace {

kernel::SystemConfig hammerable_cfg() {
  kernel::SystemConfig c;
  c.memory_bytes = 64 * kMiB;
  c.num_cpus = 1;
  c.dram.weak_cells.cells_per_mib = 128.0;
  c.dram.weak_cells.threshold_log_mean = 10.4;  // median ~33K activations
  c.dram.weak_cells.threshold_min = 25'000;
  c.dram.weak_cells.threshold_max = 60'000;
  c.dram.data_pattern_sensitivity = false;
  c.seed = 11;
  return c;
}

TemplateConfig fast_template() {
  TemplateConfig t;
  t.buffer_bytes = 2 * kMiB;
  t.hammer_iterations = 100'000;
  t.both_polarities = true;
  return t;
}

using BitDelta = std::tuple<std::size_t, std::uint8_t, bool>;  // off, bit, to_one

std::vector<BitDelta> byte_scan(const std::vector<std::uint8_t>& data,
                                std::uint8_t pattern) {
  std::vector<BitDelta> out;
  for (std::size_t off = 0; off < data.size(); ++off)
    for (std::uint8_t bit = 0; bit < 8; ++bit)
      if ((((data[off] ^ pattern) >> bit) & 1u) != 0)
        out.emplace_back(off, bit, ((data[off] >> bit) & 1u) != 0);
  return out;
}

std::vector<BitDelta> word_scan(const std::vector<std::uint8_t>& data,
                                std::uint8_t pattern) {
  std::vector<BitDelta> out;
  for_each_flipped_bit(
      std::span<const std::uint8_t>(data.data(), data.size()), pattern,
      [&](std::size_t off, std::uint8_t bit, bool to_one) {
        out.emplace_back(off, bit, to_one);
      });
  return out;
}

TEST(FlippedBitScan, MatchesTheByteByByteReference) {
  // Row lengths: the default 8 KiB row, one with a byte tail, sub-word.
  for (const std::size_t len : {std::size_t{8192}, std::size_t{8189},
                                std::size_t{5}}) {
    for (const std::uint8_t pattern : {std::uint8_t{0xFF}, std::uint8_t{0x00},
                                       std::uint8_t{0xA5}}) {
      std::vector<std::uint8_t> row(len, pattern);
      EXPECT_TRUE(word_scan(row, pattern).empty());
      const auto toggle = [&](std::size_t off, std::uint8_t mask) {
        if (off < len) row[off] ^= mask;
      };
      // Word edges: first byte, last of word 0, first of word 1, last byte.
      toggle(0, 0x01);
      toggle(7, 0x80);
      toggle(8, 0x10);
      toggle(len - 1, 0x40);
      toggle(100, 0b1010'1001);  // several bits in one byte
      for (std::size_t b = 40; b < 48; ++b)  // every byte of one word
        toggle(b, static_cast<std::uint8_t>(1u << (b % 8)));
      const auto expected = byte_scan(row, pattern);
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(word_scan(row, pattern), expected)
          << "len " << len << " pattern " << int(pattern);
    }
  }
}

TEST(FlippedBitScan, ReportsBothPolarities) {
  // Pattern 0xFF finds 1->0 flips, pattern 0x00 finds 0->1 flips.
  std::vector<std::uint8_t> ones(64, 0xFF);
  ones[9] = 0xFB;
  EXPECT_EQ(word_scan(ones, 0xFF),
            (std::vector<BitDelta>{{9, std::uint8_t{2}, false}}));
  std::vector<std::uint8_t> zeros(64, 0x00);
  zeros[63] = 0x81;
  EXPECT_EQ(word_scan(zeros, 0x00),
            (std::vector<BitDelta>{{63, std::uint8_t{0}, true},
                                   {63, std::uint8_t{7}, true}}));
}

TEST(FlippedBitScan, RandomDeltasMatchTheReference) {
  Rng rng(5);
  for (int round = 0; round < 50; ++round) {
    const std::size_t len = 1 + rng.uniform(300);
    const auto pattern = static_cast<std::uint8_t>(rng.uniform(256));
    std::vector<std::uint8_t> row(len, pattern);
    for (std::uint64_t k = rng.uniform(12); k > 0; --k)
      row[rng.uniform(len)] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    EXPECT_EQ(word_scan(row, pattern), byte_scan(row, pattern));
  }
}

TEST(Templater, StrideDiscoveryFindsBankSweep) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  ASSERT_TRUE(templater.allocate_buffer());
  // With 8 banks and 8 KiB rows, same-bank neighbouring rows are one bank
  // sweep (64 KiB) apart in physical (and hence buffer-VA) space.
  EXPECT_EQ(templater.row_stride(),
            sys.dram().geometry().banks *
                static_cast<std::uint64_t>(sys.dram().geometry().row_bytes));
}

TEST(Templater, BufferIsMostlyPhysicallyContiguous) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  ASSERT_TRUE(templater.allocate_buffer());
  const vm::VirtAddr base = templater.buffer_va();
  std::uint64_t contiguous = 0;
  for (std::uint64_t p = 0; p + 1 < templater.buffer_pages(); ++p) {
    const mm::Pfn a = sys.translate(attacker, base + p * kPageSize);
    const mm::Pfn b = sys.translate(attacker, base + (p + 1) * kPageSize);
    if (b == a + 1) ++contiguous;
  }
  // The attacker's contiguity assumption: the vast majority of neighbours.
  EXPECT_GT(contiguous, templater.buffer_pages() * 8 / 10);
}

TEST(Templater, ScanFindsFlipsInVulnerableBuffer) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  ASSERT_TRUE(templater.allocate_buffer());
  TemplateConfig cfg = fast_template();
  (void)cfg;
  const auto report = templater.scan();
  EXPECT_GT(report.rows_scanned, 0u);
  EXPECT_GT(report.flips.size(), 0u);
  EXPECT_GT(report.pages_with_flips, 0u);
  // Flip records are internally consistent.
  for (const auto& f : report.flips) {
    EXPECT_GE(f.page_va, templater.buffer_va());
    EXPECT_LT(f.offset, kPageSize);
    EXPECT_LT(f.bit, 8);
    EXPECT_EQ(f.aggressor_hi - f.aggressor_lo, 2 * templater.row_stride());
  }
}

TEST(Templater, FlipsMatchGroundTruthWeakCells) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  ASSERT_TRUE(templater.allocate_buffer());
  const auto report = templater.scan();
  ASSERT_GT(report.flips.size(), 0u);
  for (const auto& f : report.flips) {
    const auto phys = sys.phys_of(attacker, f.page_va);
    const auto coord = sys.dram().mapping().decode(phys);
    const auto flat = dram::flat_row(sys.dram().geometry(), coord);
    const auto& cells = sys.dram().weak_cells().cells_in_row(flat);
    bool matches = false;
    for (const auto& cell : cells) {
      if (cell.col % kPageSize == f.offset && cell.bit == f.bit &&
          cell.true_cell == !f.to_one) {
        matches = true;
      }
    }
    EXPECT_TRUE(matches) << "templated flip has no underlying weak cell";
  }
}

TEST(Templater, StopAfterLimitsScan) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  TemplateConfig cfg = fast_template();
  cfg.stop_after = 1;
  Templater templater(sys, attacker, cfg);
  ASSERT_TRUE(templater.allocate_buffer());
  const auto report = templater.scan();
  EXPECT_EQ(report.pages_with_flips, 1u);
  // A full scan of the 2 MiB buffer would visit ~254 rows.
  EXPECT_LT(report.rows_scanned, 250u);
}

TEST(Templater, ScanUntilPredicateStopsEarly) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  ASSERT_TRUE(templater.allocate_buffer());
  const auto report = templater.scan_until(
      [](const FlipRecord& f) { return f.offset < kPageSize / 2; });
  bool found = false;
  for (const auto& f : report.flips) found |= f.offset < kPageSize / 2;
  EXPECT_TRUE(found);
}

TEST(Templater, RehammerReproducesFlip) {
  // The §VI observation: "high probability of getting bit flips in the same
  // location when conducting Rowhammer on the same virtual address space".
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  ASSERT_TRUE(templater.allocate_buffer());
  const auto report = templater.scan();
  ASSERT_GT(report.flips.size(), 0u);
  const FlipRecord& f = report.flips.front();

  // Restore the charged pattern at the flip location, then re-hammer.
  const std::uint8_t charged =
      f.to_one ? 0x00 : 0xFF;  // anti cells flip 0->1, true cells 1->0
  ASSERT_TRUE(sys.mem_write(attacker, f.page_va + f.offset, {&charged, 1}));
  sys.dram().refresh_now();
  sys.dram().drain_flips();
  templater.hammer_aggressors(f);
  std::uint8_t now = 0;
  ASSERT_TRUE(sys.mem_read(attacker, f.page_va + f.offset, {&now, 1}));
  EXPECT_EQ(((now >> f.bit) & 1u) != 0, f.to_one);
}

TEST(Templater, RandomPairStrategyFindsFlips) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  TemplateConfig cfg = fast_template();
  cfg.strategy = TemplateStrategy::kRandomPairs;
  cfg.max_rows = 96;  // hammer sessions
  cfg.seed = 5;
  Templater templater(sys, attacker, cfg);
  ASSERT_TRUE(templater.allocate_buffer());
  const auto report = templater.scan();
  EXPECT_GT(report.flips.size(), 0u);
  for (const auto& f : report.flips) {
    EXPECT_GE(f.page_va, templater.buffer_va());
    EXPECT_NE(f.aggressor_lo, f.aggressor_hi);
  }
}

TEST(Templater, RandomPairsWorkUnderXorBankHashing) {
  // XOR bank hashing misleads the contiguous-stride strategy but not
  // random-pair templating.
  kernel::SystemConfig c = hammerable_cfg();
  c.dram.mapping = dram::MappingScheme::kBankXor;
  kernel::System sys(c);
  kernel::Task& attacker = sys.spawn("attacker", 0);
  TemplateConfig cfg = fast_template();
  cfg.strategy = TemplateStrategy::kRandomPairs;
  cfg.max_rows = 96;
  Templater templater(sys, attacker, cfg);
  ASSERT_TRUE(templater.allocate_buffer());
  const auto report = templater.scan();
  EXPECT_GT(report.flips.size(), 0u);
}

TEST(Templater, ContiguousStrategyMisledByXorBankHashing) {
  // Under XOR hashing the smallest conflicting stride is banks rows away:
  // the "double-sided" aggressors are then far from the scanned row and the
  // scan comes up empty — the stride heuristic is defeated silently.
  kernel::SystemConfig c = hammerable_cfg();
  c.dram.mapping = dram::MappingScheme::kBankXor;
  kernel::System sys(c);
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  ASSERT_TRUE(templater.allocate_buffer());
  // Discovered stride is a whole bank-sweep times the bank count.
  EXPECT_EQ(templater.row_stride(),
            static_cast<std::uint64_t>(sys.dram().geometry().banks) *
                sys.dram().geometry().banks *
                sys.dram().geometry().row_bytes);
  TemplateConfig budget = fast_template();
  (void)budget;
  const auto report = templater.scan();
  EXPECT_EQ(report.flips.size(), 0u);
}

TEST(Templater, MaxRowsBudgetRespected) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  TemplateConfig cfg = fast_template();
  cfg.max_rows = 7;
  Templater templater(sys, attacker, cfg);
  ASSERT_TRUE(templater.allocate_buffer());
  const auto report = templater.scan();
  EXPECT_EQ(report.rows_scanned, 7u);
}

TEST(Templater, NoFlipsOnHealthyDram) {
  kernel::SystemConfig c = hammerable_cfg();
  c.dram.weak_cells.cells_per_mib = 0.0;
  kernel::System sys(c);
  kernel::Task& attacker = sys.spawn("attacker", 0);
  TemplateConfig cfg = fast_template();
  cfg.buffer_bytes = 512 * kKiB;  // keep runtime low
  Templater templater(sys, attacker, cfg);
  ASSERT_TRUE(templater.allocate_buffer());
  const auto report = templater.scan();
  EXPECT_EQ(report.flips.size(), 0u);
  EXPECT_EQ(report.pages_with_flips, 0u);
}

}  // namespace
}  // namespace explframe::attack
