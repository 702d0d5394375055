#include "ffis/apps/qmc/scalar_io.hpp"

#include <cstdio>

namespace ffis::qmc {

std::string scalar_header() {
  return "#          index     LocalEnergy        Variance          Weight\n";
}

std::string format_row(const ScalarRow& row) {
  char line[128];
  std::snprintf(line, sizeof line, "%16llu %15.8f %15.8f %15.4f\n",
                static_cast<unsigned long long>(row.index), row.local_energy,
                row.variance, row.weight);
  return line;
}

void write_scalar_file(vfs::FileSystem& fs, const std::string& path,
                       const std::vector<ScalarRow>& rows, const ScalarIoOptions& options) {
  vfs::File out(fs, path, vfs::OpenMode::Write);
  std::uint64_t offset = 0;

  const std::string header = scalar_header();
  offset += out.pwrite(util::byte_view(header), offset);

  std::string buffer;
  buffer.reserve(options.flush_bytes + 128);
  const auto flush = [&] {
    if (buffer.empty()) return;
    offset += out.pwrite(util::byte_view(buffer), offset);
    buffer.clear();
  };
  for (const auto& row : rows) {
    buffer += format_row(row);
    if (buffer.size() >= options.flush_bytes) flush();
  }
  flush();
}

}  // namespace ffis::qmc
