#include "dram/geometry.hpp"

#include <sstream>

#include "support/check.hpp"

namespace explframe::dram {

const char* Geometry::capacity_error(std::uint64_t bytes) noexcept {
  if ((bytes & (bytes - 1)) != 0) return "DRAM capacity must be a power of two";
  const Geometry g;
  if (bytes / (g.total_banks() * g.row_bytes) < 64)
    return "capacity too small for geometry (fewer than 64 rows)";
  return nullptr;
}

Geometry Geometry::with_capacity(std::uint64_t bytes) {
  const char* error = capacity_error(bytes);
  EXPLFRAME_CHECK_MSG(error == nullptr, error);
  Geometry g;
  const std::uint64_t rows = bytes / (g.total_banks() * g.row_bytes);
  // Keep rows-per-bank <= 64Ki (DDR3 row-address width); add ranks beyond.
  std::uint64_t rpb = rows;
  std::uint32_t ranks = 1;
  while (rpb > 65536) {
    rpb /= 2;
    ranks *= 2;
  }
  g.rows_per_bank = static_cast<std::uint32_t>(rpb);
  g.ranks = ranks;
  EXPLFRAME_CHECK(g.total_bytes() == bytes);
  return g;
}

std::string Geometry::describe() const {
  std::ostringstream os;
  os << channels << " channel(s) x " << ranks << " rank(s) x " << banks
     << " bank(s) x " << rows_per_bank << " rows x " << row_bytes
     << " B/row = " << total_bytes() / kMiB << " MiB";
  return os.str();
}

}  // namespace explframe::dram
