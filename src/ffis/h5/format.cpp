#include "ffis/h5/format.hpp"

#include <limits>

namespace ffis::h5 {

std::uint64_t Dataset::element_count() const {
  if (dims.empty()) return 0;
  std::uint64_t n = 1;
  for (const auto d : dims) {
    if (d != 0 && n > std::numeric_limits<std::uint64_t>::max() / d) {
      throw H5FormatError("dataset dims product overflows 64 bits: " + name);
    }
    n *= d;
  }
  return n;
}

const Dataset& H5File::dataset(const std::string& name) const {
  for (const auto& ds : datasets) {
    if (ds.name == name) return ds;
  }
  throw H5NotFoundError("dataset not found: " + name);
}

bool H5File::has_dataset(const std::string& name) const noexcept {
  for (const auto& ds : datasets) {
    if (ds.name == name) return true;
  }
  return false;
}

}  // namespace ffis::h5
