#include "dram/weak_cells.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "kernel/system.hpp"
#include "reference_dram.hpp"
#include "scenario/scenario.hpp"
#include "support/rng.hpp"

namespace explframe::dram {
namespace {

using Staged = std::pair<std::uint64_t, WeakCell>;

Geometry small_geometry() { return Geometry::with_capacity(64 * kMiB); }

TEST(WeakCellModel, DeterministicForSeed) {
  const auto g = small_geometry();
  WeakCellParams p;
  WeakCellModel a(g, p, 42), b(g, p, 42);
  EXPECT_EQ(a.total_cells(), b.total_cells());
  EXPECT_EQ(a.vulnerable_rows(), b.vulnerable_rows());
}

TEST(WeakCellModel, DifferentSeedsDiffer) {
  const auto g = small_geometry();
  WeakCellParams p;
  WeakCellModel a(g, p, 1), b(g, p, 2);
  EXPECT_NE(a.vulnerable_rows(), b.vulnerable_rows());
}

TEST(WeakCellModel, PopulationScalesWithDensity) {
  const auto g = small_geometry();
  WeakCellParams lo, hi;
  lo.cells_per_mib = 1.0;
  hi.cells_per_mib = 16.0;
  WeakCellModel a(g, lo, 7), b(g, hi, 7);
  // 64 MiB: expect ~64 vs ~1024 cells; allow generous slack.
  EXPECT_GT(a.total_cells(), 20u);
  EXPECT_LT(a.total_cells(), 200u);
  EXPECT_GT(b.total_cells(), 600u);
  EXPECT_GT(b.total_cells(), 4 * a.total_cells());
}

TEST(WeakCellModel, ZeroDensityYieldsNoCells) {
  const auto g = small_geometry();
  WeakCellParams p;
  p.cells_per_mib = 0.0;
  WeakCellModel m(g, p, 3);
  EXPECT_EQ(m.total_cells(), 0u);
  EXPECT_TRUE(m.vulnerable_rows().empty());
}

TEST(WeakCellModel, ThresholdsWithinConfiguredBounds) {
  const auto g = small_geometry();
  WeakCellParams p;
  p.cells_per_mib = 16.0;
  WeakCellModel m(g, p, 9);
  for (const auto row : m.vulnerable_rows()) {
    for (const auto& cell : m.cells_in_row(row)) {
      EXPECT_GE(cell.threshold, p.threshold_min);
      EXPECT_LE(cell.threshold, p.threshold_max);
      EXPECT_LT(cell.col, g.row_bytes);
      EXPECT_LT(cell.bit, 8);
      EXPECT_TRUE(cell.couple_above == 1.0F || cell.couple_below == 1.0F);
    }
  }
}

TEST(WeakCellModel, MixOfTrueAndAntiCells) {
  const auto g = small_geometry();
  WeakCellParams p;
  p.cells_per_mib = 32.0;
  WeakCellModel m(g, p, 13);
  std::size_t true_cells = 0, anti_cells = 0;
  for (const auto row : m.vulnerable_rows()) {
    for (const auto& cell : m.cells_in_row(row))
      (cell.true_cell ? true_cells : anti_cells)++;
  }
  EXPECT_GT(true_cells, 0u);
  EXPECT_GT(anti_cells, 0u);
}

TEST(WeakCellModel, SomeSingleSidedCells) {
  const auto g = small_geometry();
  WeakCellParams p;
  p.cells_per_mib = 32.0;
  p.single_sided_fraction = 0.5;
  WeakCellModel m(g, p, 21);
  std::size_t single = 0, total = 0;
  for (const auto row : m.vulnerable_rows()) {
    for (const auto& cell : m.cells_in_row(row)) {
      ++total;
      if (cell.couple_above == 0.0F || cell.couple_below == 0.0F) ++single;
    }
  }
  EXPECT_GT(single, total / 4);
  EXPECT_LT(single, 3 * total / 4);
}

TEST(WeakCellModel, CellsInUnknownRowEmpty) {
  const auto g = small_geometry();
  WeakCellParams p;
  p.cells_per_mib = 0.0;
  WeakCellModel m(g, p, 1);
  EXPECT_TRUE(m.cells_in_row(123).empty());
}

TEST(WeakCellModel, VulnerableRowsSortedAndInRange) {
  const auto g = small_geometry();
  WeakCellParams p;
  p.cells_per_mib = 8.0;
  WeakCellModel m(g, p, 17);
  const auto rows = m.vulnerable_rows();
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_LT(rows[i - 1], rows[i]);
  for (const auto r : rows) EXPECT_LT(r, g.total_rows());
}

// ---- Build oracle -----------------------------------------------------------
//
// The arena build as it was before the radix sort, kept here as the oracle:
// stable_sort by row, then keep the first occurrence of each (col, bit)
// within a row. Its output is the arena in ordinal order.
std::vector<Staged> oracle_build(std::vector<Staged> staged) {
  std::stable_sort(staged.begin(), staged.end(),
                   [](const Staged& a, const Staged& b) {
                     return a.first < b.first;
                   });
  std::vector<Staged> kept;
  std::size_t run_begin = 0;
  for (const auto& [row, cell] : staged) {
    if (!kept.empty() && kept.back().first != row) run_begin = kept.size();
    bool dup = false;
    for (std::size_t j = run_begin; j < kept.size(); ++j)
      dup = dup || (kept[j].second.col == cell.col &&
                    kept[j].second.bit == cell.bit);
    if (!dup) kept.emplace_back(row, cell);
  }
  return kept;
}

::testing::AssertionResult same_cell(const WeakCell& got,
                                     const WeakCell& want) {
  if (got.col == want.col && got.bit == want.bit &&
      got.threshold == want.threshold && got.true_cell == want.true_cell &&
      got.couple_above == want.couple_above &&
      got.couple_below == want.couple_below)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "got (col " << got.col << ", bit " << int{got.bit} << ", threshold "
         << got.threshold << ", true " << got.true_cell << ", couple "
         << got.couple_above << "/" << got.couple_below << ") want (col "
         << want.col << ", bit " << int{want.bit} << ", threshold "
         << want.threshold << ", true " << want.true_cell << ", couple "
         << want.couple_above << "/" << want.couple_below << ")";
}

/// Field-by-field: the same arena records in the same order, the same row
/// directory, and the same per-row spans.
void expect_matches_oracle(const WeakCellModel& model,
                           const std::vector<Staged>& kept) {
  ASSERT_EQ(model.total_cells(), kept.size());
  std::vector<std::uint64_t> rows;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (rows.empty() || rows.back() != kept[i].first) {
      rows.push_back(kept[i].first);
      ASSERT_EQ(model.row_span_begin(rows.size() - 1), i)
          << "row " << rows.back();
      ASSERT_EQ(model.cells_in_row(rows.back()).ordinal(0), i);
    }
    ASSERT_TRUE(same_cell(model.cell_at(i), kept[i].second))
        << "ordinal " << i << ", row " << kept[i].first;
  }
  EXPECT_EQ(model.row_span_begin(rows.size()), kept.size());
  EXPECT_EQ(model.vulnerable_rows(), rows);
}

/// A random valid cell. `cols` narrows col so that (col, bit) repeats
/// within a row; every other field varies, so keeping the wrong duplicate
/// shows up as a field mismatch.
WeakCell random_cell(Rng& rng, std::uint32_t cols) {
  WeakCell cell;
  cell.col = static_cast<std::uint32_t>(rng.uniform(cols));
  cell.bit = static_cast<std::uint8_t>(rng.uniform(cols < 8 ? 2 : 8));
  cell.threshold = static_cast<std::uint32_t>(rng.uniform(1u << 19));
  cell.true_cell = rng.bernoulli(0.5);
  switch (rng.uniform(3)) {
    case 0:
      cell.couple_below = 0.0F;
      break;
    case 1:
      cell.couple_below = static_cast<float>(0.5 + 0.5 * rng.uniform01());
      break;
    default:
      break;
  }
  if (rng.bernoulli(0.5)) std::swap(cell.couple_above, cell.couple_below);
  return cell;
}

TEST(WeakCellBuild, SpanPopulationsMatchStableSortOracle) {
  // 1 TiB of 8 KiB rows is 2^27 rows: three 11-bit radix passes. The rows
  // at and next to the digit boundaries (2^11, 2^22) and the universe's
  // ends are where a wrong digit shift or a dropped pass would misorder.
  const Geometry g = Geometry::with_capacity(1024 * kGiB);
  ASSERT_EQ(g.total_rows(), 1ull << 27);
  const std::vector<std::uint64_t> edges = {
      0,           1,           (1 << 11) - 1, 1 << 11,  (1 << 11) + 1,
      3 << 11,     (1 << 22) - 1, 1 << 22,     (1 << 22) + 1,
      (1 << 22) + (1 << 11), (1 << 26) + 5, (1 << 27) - 2, (1 << 27) - 1};
  Rng rng(2024);
  for (const std::size_t n : {1u, 2u, 7u, 100u, 5000u, 40000u}) {
    std::vector<Staged> staged;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.5)) {
        const std::uint64_t row = edges[rng.uniform(edges.size())];
        staged.emplace_back(row, random_cell(rng, 4));
      } else {
        staged.emplace_back(rng.uniform(g.total_rows()),
                            random_cell(rng, g.row_bytes));
      }
    }
    const std::vector<Staged> kept = oracle_build(staged);
    if (n >= 100) {
      ASSERT_LT(kept.size(), staged.size()) << "no duplicates drawn";
    }
    const WeakCellModel model(g, WeakCellParams{}, staged);
    SCOPED_TRACE(n);
    expect_matches_oracle(model, kept);
  }
}

TEST(WeakCellBuild, EmptyPopulationMatchesOracle) {
  for (const std::uint64_t bytes : {64 * kMiB, 1024 * kGiB}) {
    const WeakCellModel model(Geometry::with_capacity(bytes), WeakCellParams{},
                              std::span<const Staged>{});
    expect_matches_oracle(model, {});
    EXPECT_TRUE(model.cells_in_row(0).empty());
  }
}

TEST(WeakCellBuild, SampledGiantPopulationMatchesReferenceModel) {
  // The 16 GiB vulnerable-profile population (about 2.1M cells, two radix
  // passes) against the seed layout, which dedups at insert time.
  kernel::SystemConfig config;
  scenario::apply_weak_cell_profile(scenario::WeakCellProfile::kVulnerable,
                                    config);
  const WeakCellParams& params = config.dram.weak_cells;
  const Geometry g = Geometry::with_capacity(16 * kGiB);
  const WeakCellModel model(g, params, 11);
  const refdram::RefWeakCellModel ref(g, params, 11);
  ASSERT_EQ(model.total_cells(), ref.total_cells());
  ASSERT_GT(model.total_cells(), 2'000'000u);

  const std::vector<std::uint64_t> rows = ref.vulnerable_rows();
  ASSERT_EQ(model.vulnerable_rows(), rows);
  std::size_t ordinal = 0;
  for (std::size_t o = 0; o < rows.size(); ++o) {
    ASSERT_EQ(model.row_span_begin(o), ordinal) << "row " << rows[o];
    for (const WeakCell& cell : ref.cells_in_row(rows[o]))
      ASSERT_TRUE(same_cell(model.cell_at(ordinal++), cell))
          << "row " << rows[o];
  }
  EXPECT_EQ(model.row_span_begin(rows.size()), model.total_cells());
}

}  // namespace
}  // namespace explframe::dram
