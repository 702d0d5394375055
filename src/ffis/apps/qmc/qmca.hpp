#pragma once
// QMCA-style post-analysis: parses a scalar.dat series, discards the
// configured equilibration prefix and reports the mean LocalEnergy with an
// error bar.
//
// Failure semantics mirror the numpy-based QMCA tool chain:
//  * a missing/mangled header is unrecoverable and throws (Crash);
//  * NUL bytes in the series (a dropped write's zero-filled hole) are
//    flagged as detected corruption — binary garbage in a text file;
//  * individual unparseable rows are skipped and counted.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ffis/vfs/file_system.hpp"

namespace ffis::qmc {

class QmcaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct QmcaOptions {
  std::uint64_t equilibration_rows = 100;  ///< discarded prefix
};

struct QmcaResult {
  double mean_energy = 0.0;
  double error_bar = 0.0;      ///< naive standard error of the mean
  std::uint64_t rows_used = 0;
  std::uint64_t rows_skipped = 0;  ///< unparseable rows (counted, ignored)
  bool nul_bytes_found = false;    ///< binary garbage flagged as corruption
};

/// Analyzes the text content of a scalar.dat file.  Throws QmcaError when
/// the header is unusable or no data rows survive.  Equivalent to
/// check_scalar_header, parse_scalar_lines over the data lines and
/// summarize_scalar_series — the pieces an incremental re-analysis reuses.
[[nodiscard]] QmcaResult analyze_scalar_text(std::string_view text,
                                             const QmcaOptions& options = {});

/// Offset of the header line's '\n'.  Throws QmcaError when the text has no
/// line or its first line is not a comment naming the LocalEnergy column.
[[nodiscard]] std::size_t check_scalar_header(std::string_view text);

/// The parsed data rows of a series, in file order.
struct ScalarSeries {
  std::vector<double> energies;    ///< LocalEnergy of every parsed row
  std::uint64_t rows_skipped = 0;  ///< unparseable rows
};

/// Where a data line starts and what the lines before it contributed.
struct ScalarLine {
  std::size_t start = 0;             ///< first byte (the previous '\n' + 1)
  std::size_t energies_before = 0;   ///< ScalarSeries::energies.size() before it
  std::uint64_t skipped_before = 0;  ///< ScalarSeries::rows_skipped before it
};

/// Parses every line of `text` that starts in [begin, stop) into `out`
/// (appending).  `begin` must be a line start; a line runs to the next '\n'
/// or to the end of `text`, so the last line parsed may end past `stop`.
/// Comment and empty lines are ignored.  With `lines`, appends one entry per
/// line parsed.
void parse_scalar_lines(std::string_view text, std::size_t begin, std::size_t stop,
                        ScalarSeries& out, std::vector<ScalarLine>* lines = nullptr);

/// The statistics over `series`, after discarding the equilibration prefix.
/// Throws QmcaError when no post-equilibration row remains.
[[nodiscard]] QmcaResult summarize_scalar_series(const ScalarSeries& series,
                                                 bool nul_bytes_found,
                                                 const QmcaOptions& options = {});

/// Convenience: read + analyze through the VFS.
[[nodiscard]] QmcaResult analyze_scalar_file(vfs::FileSystem& fs, const std::string& path,
                                             const QmcaOptions& options = {});

}  // namespace ffis::qmc
