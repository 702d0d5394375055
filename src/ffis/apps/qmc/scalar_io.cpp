#include "ffis/apps/qmc/scalar_io.hpp"

#include <cstdio>
#include <string_view>

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

RenderedSeries render_scalar_series(const std::vector<ScalarRow>& rows,
                                    const ScalarIoOptions& options) {
  RenderedSeries series;
  series.text = scalar_header();
  series.text.reserve(series.text.size() + rows.size() * format_row({}).size());
  series.write_ends.push_back(series.text.size());
  for (const auto& row : rows) {
    series.text += format_row(row);
    if (series.text.size() - series.write_ends.back() >= options.flush_bytes) {
      series.write_ends.push_back(series.text.size());
    }
  }
  if (series.text.size() > series.write_ends.back()) {
    series.write_ends.push_back(series.text.size());
  }
  return series;
}

void write_rendered_series(vfs::FileSystem& fs, const std::string& path,
                           const RenderedSeries& series) {
  vfs::File out(fs, path, vfs::OpenMode::Write);
  const std::string_view text = series.text;
  std::uint64_t offset = 0;
  std::size_t begin = 0;
  for (const std::size_t end : series.write_ends) {
    offset += out.pwrite(util::byte_view(text.substr(begin, end - begin)), offset);
    begin = end;
  }
}

void write_scalar_file(vfs::FileSystem& fs, const std::string& path,
                       const std::vector<ScalarRow>& rows, const ScalarIoOptions& options) {
  write_rendered_series(fs, path, render_scalar_series(rows, options));
}

}  // namespace ffis::qmc
