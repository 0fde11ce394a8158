#include "dram/weak_cells.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "support/check.hpp"
#include "support/units.hpp"

namespace explframe::dram {
namespace {

// Coupling values are drawn from exactly three shapes: 0.0f, 1.0f, or
// float(0.5 + 0.5*u01) in [0.5, 1.0) — the latter has a fixed biased
// exponent of 126, so the 23 mantissa bits encode it losslessly. Each side
// gets a 2-bit shape code (0 = zero, 1 = one, 2 = fractional) and the two
// sides share one mantissa field: generation never produces two distinct
// fractional sides, and the constructor CHECKs rather than rounding if a
// hand-built population tries.
constexpr std::uint32_t kFracExponent = 126;
constexpr std::uint32_t kMantissaMask = (1u << 23) - 1;

std::uint64_t encode_couple(float above, float below) {
  std::uint32_t mantissa = 0;
  bool have_mantissa = false;
  const auto side = [&](float v) -> std::uint64_t {
    if (v == 0.0F) return 0;
    if (v == 1.0F) return 1;
    const auto raw = std::bit_cast<std::uint32_t>(v);
    EXPLFRAME_CHECK_MSG((raw >> 23) == kFracExponent,
                        "weak-cell coupling outside {0, 1} U [0.5, 1)");
    const std::uint32_t m = raw & kMantissaMask;
    EXPLFRAME_CHECK_MSG(!have_mantissa || m == mantissa,
                        "weak-cell coupling: two distinct fractional sides");
    mantissa = m;
    have_mantissa = true;
    return 2;
  };
  const std::uint64_t a = side(above);
  const std::uint64_t b = side(below);
  return (a << 25) | (b << 23) | mantissa;
}

float decode_side(std::uint64_t code, std::uint64_t mantissa) {
  if (code == 0) return 0.0F;
  if (code == 1) return 1.0F;
  return std::bit_cast<float>((kFracExponent << 23) |
                              static_cast<std::uint32_t>(mantissa));
}

void decode_couple(std::uint64_t packed, float& above, float& below) {
  const std::uint64_t mantissa = packed & kMantissaMask;
  above = decode_side((packed >> 25) & 3, mantissa);
  below = decode_side((packed >> 23) & 3, mantissa);
}

using StagedCell = std::pair<std::uint64_t, WeakCell>;

// A staged cell packed into 16 bytes, half a (row, WeakCell) pair, so the
// sort moves half the bytes. `key` holds row (40 bits) | threshold (19) |
// polarity (1); `cell` holds col (28) | bit (3) | coupling code (27), and
// its low 31 bits are the (col, bit) identity the dedup compares.
struct SortRecord {
  std::uint64_t key;
  std::uint64_t cell;
};
constexpr unsigned kThresholdShift = WeakCellModel::kRowBits;
constexpr unsigned kPolarityShift =
    kThresholdShift + WeakCellModel::kThresholdBits;
constexpr unsigned kBitShift = WeakCellModel::kColBits;
constexpr unsigned kCoupleShift = kBitShift + WeakCellModel::kBitBits;

constexpr std::uint64_t low_bits(unsigned bits) { return (1ull << bits) - 1; }
constexpr std::uint64_t kRowMask = low_bits(WeakCellModel::kRowBits);
constexpr std::uint64_t kColBitMask = low_bits(kCoupleShift);

// Packs one staged cell, CHECKing every field against its width first so
// that nothing is truncated on the way into the record.
SortRecord pack(std::uint64_t row, const WeakCell& cell,
                std::uint64_t total_rows) {
  EXPLFRAME_CHECK_MSG(row < total_rows, "weak-cell row outside the geometry");
  EXPLFRAME_CHECK_MSG(cell.col <= low_bits(WeakCellModel::kColBits) &&
                          cell.bit <= low_bits(WeakCellModel::kBitBits) &&
                          cell.threshold <=
                              low_bits(WeakCellModel::kThresholdBits),
                      "weak-cell field exceeds field width");
  return {row | std::uint64_t{cell.threshold} << kThresholdShift |
              std::uint64_t{cell.true_cell} << kPolarityShift,
          cell.col | std::uint64_t{cell.bit} << kBitShift |
              encode_couple(cell.couple_above, cell.couple_below)
                  << kCoupleShift};
}

// Packs `staged` and sorts it by row with a stable LSD radix sort:
// kDigitBits per pass, and only as many passes as `total_rows` needs (2 at
// 16 GiB, at most 4 in the 40-bit row space). Each pass moves the records
// themselves: sorting an index and gathering through it was slower,
// because the random gathers serialise their cache misses.
constexpr unsigned kDigitBits = 11;
constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;

std::vector<SortRecord> sorted_by_row(std::vector<StagedCell> staged,
                                      std::uint64_t total_rows) {
  const unsigned key_bits =
      total_rows > 1 ? static_cast<unsigned>(std::bit_width(total_rows - 1))
                     : 0;
  const unsigned passes = (key_bits + kDigitBits - 1) / kDigitBits;

  // The packing pass also fills every radix pass's digit histogram.
  std::vector<SortRecord> records;
  records.reserve(staged.size());
  std::vector<std::array<std::size_t, kRadix>> offsets(passes);
  for (const auto& [row, cell] : staged) {
    records.push_back(pack(row, cell, total_rows));
    for (unsigned p = 0; p < passes; ++p)
      ++offsets[p][(row >> (p * kDigitBits)) & (kRadix - 1)];
  }
  staged = std::vector<StagedCell>();  // freed before the scratch is taken

  std::vector<SortRecord> scratch(records.size());
  for (unsigned p = 0; p < passes; ++p) {
    std::size_t next = 0;
    for (std::size_t& slot : offsets[p]) next += std::exchange(slot, next);
    const unsigned shift = p * kDigitBits;
    for (const SortRecord& r : records) {
      scratch[offsets[p][((r.key & kRowMask) >> shift) & (kRadix - 1)]++] = r;
    }
    records.swap(scratch);
  }
  return records;
}

}  // namespace

WeakCell WeakCellSpan::Iterator::operator*() const {
  return model_->cell_at(pos_);
}

WeakCell WeakCellSpan::operator[](std::size_t i) const {
  return model_->cell_at(begin_ + i);
}

WeakCellModel::WeakCellModel(const Geometry& geometry,
                             const WeakCellParams& params, std::uint64_t seed)
    : params_(params) {
  EXPLFRAME_CHECK(params.cells_per_mib >= 0.0);
  Rng rng(seed ^ 0xdead5eedULL);

  const double expected =
      params.cells_per_mib *
      (static_cast<double>(geometry.total_bytes()) / static_cast<double>(kMiB));
  // Sample the population count from Poisson via normal approximation for
  // large means, exact inversion for small.
  std::size_t count;
  if (expected > 64.0) {
    count = static_cast<std::size_t>(std::max(
        0.0, std::round(rng.normal(expected, std::sqrt(expected)))));
  } else {
    // Knuth's algorithm.
    const double limit = std::exp(-expected);
    double prod = rng.uniform01();
    count = 0;
    while (prod > limit) {
      ++count;
      prod *= rng.uniform01();
    }
  }

  const std::uint64_t rows = geometry.total_rows();
  std::vector<std::pair<std::uint64_t, WeakCell>> staged;
  staged.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    WeakCell cell;
    cell.col = static_cast<std::uint32_t>(rng.uniform(geometry.row_bytes));
    cell.bit = static_cast<std::uint8_t>(rng.uniform(8));
    const double t =
        std::exp(rng.normal(params.threshold_log_mean, params.threshold_log_sigma));
    cell.threshold = static_cast<std::uint32_t>(std::clamp<double>(
        t, params.threshold_min, params.threshold_max));
    cell.true_cell = rng.bernoulli(params.true_cell_fraction);
    if (rng.bernoulli(params.single_sided_fraction)) {
      if (rng.bernoulli(0.5)) {
        cell.couple_above = 1.0F;
        cell.couple_below = 0.0F;
      } else {
        cell.couple_above = 0.0F;
        cell.couple_below = 1.0F;
      }
    } else {
      // Both sides couple; the weaker side still contributes.
      cell.couple_above = 1.0F;
      cell.couple_below =
          static_cast<float>(0.5 + 0.5 * rng.uniform01());
      if (rng.bernoulli(0.5)) std::swap(cell.couple_above, cell.couple_below);
    }
    staged.emplace_back(rng.uniform(rows), cell);
  }
  build(geometry, std::move(staged));
}

WeakCellModel::WeakCellModel(
    const Geometry& geometry, const WeakCellParams& params,
    std::span<const std::pair<std::uint64_t, WeakCell>> cells)
    : params_(params) {
  build(geometry, {cells.begin(), cells.end()});
}

void WeakCellModel::build(const Geometry& geometry,
                          std::vector<StagedCell> staged) {
  const std::uint64_t total_rows = geometry.total_rows();
  EXPLFRAME_CHECK_MSG(total_rows <= (1ull << kRowBits),
                      "geometry exceeds the 40-bit flat-row space");
  // Canonical arena order: ascending row, presentation order within a row
  // (matching the seed layout's per-row insertion order, which the golden
  // flip logs depend on).
  std::vector<SortRecord> sorted =
      sorted_by_row(std::move(staged), total_rows);

  // Keep the first occurrence of each (col, bit) within a row — identical
  // to the seed layout's skip-at-insert dedup — compacting in place and
  // counting rows, so the arena below is reserved at its exact final size.
  std::size_t kept = 0;
  std::size_t row_count = 0;
  std::size_t run_begin = 0;  // first kept record of the current row
  for (const SortRecord& r : sorted) {
    if (kept == 0 || ((sorted[run_begin].key ^ r.key) & kRowMask) != 0) {
      run_begin = kept;
      ++row_count;
    }
    const bool dup = std::any_of(
        sorted.begin() + static_cast<std::ptrdiff_t>(run_begin),
        sorted.begin() + static_cast<std::ptrdiff_t>(kept),
        [&](const SortRecord& k) {
          return ((k.cell ^ r.cell) & kColBitMask) == 0;
        });
    if (!dup) sorted[kept++] = r;
  }
  EXPLFRAME_CHECK_MSG(kept <= std::numeric_limits<std::uint32_t>::max(),
                      "weak-cell count exceeds 32-bit arena ordinals");

  std::vector<std::uint64_t> rows;
  rows.reserve(row_count);
  row_start_.reserve(row_count + 1);
  col_.reserve(kept);
  bit_.reserve(kept);
  threshold_.reserve(kept);
  polarity_.reserve(kept);
  couple_.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    const auto [key, cell] = sorted[i];
    const std::uint64_t row = key & kRowMask;
    if (rows.empty() || rows.back() != row) {
      rows.push_back(row);
      row_start_.push_back(static_cast<std::uint32_t>(i));
    }
    col_.push_back(cell & low_bits(kColBits));
    bit_.push_back((cell >> kBitShift) & low_bits(kBitBits));
    threshold_.push_back((key >> kThresholdShift) & low_bits(kThresholdBits));
    polarity_.push_back(key >> kPolarityShift);
    couple_.push_back(cell >> kCoupleShift);
  }
  row_start_.push_back(static_cast<std::uint32_t>(kept));
  rows_ = RowIndex(rows, total_rows);
  total_ = kept;
}

WeakCellSpan WeakCellModel::cells_in_row(std::uint64_t flat_row) const {
  const std::size_t o = rows_.find(flat_row);
  if (o == RowIndex::kNpos) return {};
  return {this, row_start_[o], row_start_[o + 1]};
}

std::vector<std::uint64_t> WeakCellModel::vulnerable_rows() const {
  std::vector<std::uint64_t> rows;
  rows.reserve(rows_.size());
  for (std::size_t o = 0; o < rows_.size(); ++o) rows.push_back(rows_.key_at(o));
  return rows;
}

std::size_t WeakCellModel::row_span_begin(std::size_t row_ordinal) const {
  EXPLFRAME_CHECK(row_ordinal < row_start_.size());
  return row_start_[row_ordinal];
}

float WeakCellModel::couple_above_at(std::size_t ordinal) const {
  const std::uint64_t packed = couple_.get(ordinal);
  return decode_side((packed >> 25) & 3, packed & kMantissaMask);
}

float WeakCellModel::couple_below_at(std::size_t ordinal) const {
  const std::uint64_t packed = couple_.get(ordinal);
  return decode_side((packed >> 23) & 3, packed & kMantissaMask);
}

WeakCell WeakCellModel::cell_at(std::size_t ordinal) const {
  WeakCell cell;
  cell.col = static_cast<std::uint32_t>(col_.get(ordinal));
  cell.bit = static_cast<std::uint8_t>(bit_.get(ordinal));
  cell.threshold = static_cast<std::uint32_t>(threshold_.get(ordinal));
  cell.true_cell = polarity_.get(ordinal) != 0;
  decode_couple(couple_.get(ordinal), cell.couple_above, cell.couple_below);
  return cell;
}

std::uint64_t WeakCellModel::state_bytes() const noexcept {
  return rows_.heap_bytes() +
         row_start_.capacity() * sizeof(std::uint32_t) + col_.heap_bytes() +
         bit_.heap_bytes() + threshold_.heap_bytes() + polarity_.heap_bytes() +
         couple_.heap_bytes();
}

}  // namespace explframe::dram
