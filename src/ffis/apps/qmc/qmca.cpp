#include "ffis/apps/qmc/qmca.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

namespace ffis::qmc {

std::size_t check_scalar_header(std::string_view text) {
  // Header: the first line must be a comment naming the LocalEnergy column.
  // A destroyed header (e.g. its write was dropped) aborts the tool chain.
  const auto first_newline = text.find('\n');
  if (first_newline == std::string_view::npos) throw QmcaError("scalar file has no lines");
  const std::string_view header = text.substr(0, first_newline);
  if (header.empty() || header[0] != '#' ||
      header.find("LocalEnergy") == std::string_view::npos) {
    throw QmcaError("scalar file header is missing or corrupted");
  }
  return first_newline;
}

void parse_scalar_lines(std::string_view text, std::size_t begin, std::size_t stop,
                        ScalarSeries& out, std::vector<ScalarLine>* lines) {
  // strtod needs a NUL-terminated string, so each row is copied into one
  // reused line buffer (its capacity grows to the longest row once, instead
  // of one allocation per row).  The copy is the whole row, so strtod sees
  // exactly what it would see in a per-row string: leading whitespace, hex
  // floats, inf/nan, and an embedded NUL ending the row early.
  std::string line;
  std::size_t pos = begin;
  while (pos < stop) {
    if (lines != nullptr) lines->push_back({pos, out.energies.size(), out.rows_skipped});
    auto end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    line.assign(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') continue;

    // Columns: index, LocalEnergy, ...  Unparseable rows are skipped and
    // counted (genfromtxt-style tolerance).
    const char* cursor = line.c_str();
    char* after = nullptr;
    (void)std::strtod(cursor, &after);  // index column
    if (after == cursor) {
      ++out.rows_skipped;
      continue;
    }
    cursor = after;
    const double energy = std::strtod(cursor, &after);
    if (after == cursor || !std::isfinite(energy)) {
      ++out.rows_skipped;
      continue;
    }
    out.energies.push_back(energy);
  }
}

QmcaResult summarize_scalar_series(const ScalarSeries& series, bool nul_bytes_found,
                                   const QmcaOptions& options) {
  const std::vector<double>& energies = series.energies;
  if (energies.size() <= options.equilibration_rows) {
    throw QmcaError("scalar file has no post-equilibration rows (" +
                    std::to_string(energies.size()) + " total)");
  }

  QmcaResult result;
  result.rows_skipped = series.rows_skipped;
  result.nul_bytes_found = nul_bytes_found;
  double sum = 0.0, sum2 = 0.0;
  std::uint64_t n = 0;
  for (std::size_t i = options.equilibration_rows; i < energies.size(); ++i) {
    sum += energies[i];
    sum2 += energies[i] * energies[i];
    ++n;
  }
  result.rows_used = n;
  result.mean_energy = sum / static_cast<double>(n);
  const double variance =
      std::max(0.0, sum2 / static_cast<double>(n) - result.mean_energy * result.mean_energy);
  result.error_bar = std::sqrt(variance / static_cast<double>(n));
  return result;
}

QmcaResult analyze_scalar_text(std::string_view text, const QmcaOptions& options) {
  const std::size_t first_newline = check_scalar_header(text);

  // Binary garbage in a text series is detectable corruption: the numpy
  // tool chain refuses files with NUL bytes.  QMCA reports it (Detected)
  // rather than aborting.
  const bool nul_bytes_found = text.find('\0', first_newline + 1) != std::string_view::npos;

  ScalarSeries series;
  parse_scalar_lines(text, first_newline + 1, text.size(), series);
  return summarize_scalar_series(series, nul_bytes_found, options);
}

QmcaResult analyze_scalar_file(vfs::FileSystem& fs, const std::string& path,
                               const QmcaOptions& options) {
  return analyze_scalar_text(vfs::read_text_file(fs, path), options);
}

}  // namespace ffis::qmc
