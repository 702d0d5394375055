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

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

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
/// the header is unusable or no data rows survive.
[[nodiscard]] QmcaResult analyze_scalar_text(std::string_view text,
                                             const QmcaOptions& options = {});

/// Convenience: read + analyze through the VFS.
[[nodiscard]] QmcaResult analyze_scalar_file(vfs::FileSystem& fs, const std::string& path,
                                             const QmcaOptions& options = {});

}  // namespace ffis::qmc
