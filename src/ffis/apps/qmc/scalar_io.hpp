#pragma once
// scalar.dat serialization: QMCPACK's per-step text output.  Writes go
// through the VFS in flush-sized pwrite chunks so that injected faults land
// in realistic write granularities (header write + several data-buffer
// flushes per series).
//
// A series is rendered once (render_scalar_series: the file text plus where
// each pwrite ends) and can then be written any number of times by replaying
// those pwrites (write_rendered_series) — byte- and call-identical to the
// buffered row writer, without re-formatting a row.

#include <cstddef>
#include <string>
#include <vector>

#include "ffis/apps/qmc/vmc.hpp"
#include "ffis/vfs/file_system.hpp"

namespace ffis::qmc {

struct ScalarIoOptions {
  std::size_t flush_bytes = 4096;  ///< buffered-writer flush threshold
};

/// Renders the canonical header line ("#   index   LocalEnergy ...").
[[nodiscard]] std::string scalar_header();

/// Renders one row exactly as the writer emits it.
[[nodiscard]] std::string format_row(const ScalarRow& row);

/// A series as the buffered writer emits it: the whole file text, and the
/// end offset within it of each pwrite (the header, then one per buffer
/// flush).  Pwrite k carries text[write_ends[k-1], write_ends[k]).
struct RenderedSeries {
  std::string text;
  std::vector<std::size_t> write_ends;
};

/// Renders header + rows, splitting the data into pwrites the way a
/// stdio-buffered fprintf loop flushes: whenever the buffer reaches
/// `flush_bytes`, and once more for a non-empty remainder.
[[nodiscard]] RenderedSeries render_scalar_series(const std::vector<ScalarRow>& rows,
                                                  const ScalarIoOptions& options = {});

/// Issues the series' pwrites to `path` in order.  Each write lands at the
/// previous offset plus the byte count the previous pwrite returned, so a
/// shortened write shifts every later one, as with the row writer.
void write_rendered_series(vfs::FileSystem& fs, const std::string& path,
                           const RenderedSeries& series);

/// Writes header + rows to `path` (header pwrite first, then flush-sized
/// data pwrites — mirroring a stdio-buffered fprintf loop).
void write_scalar_file(vfs::FileSystem& fs, const std::string& path,
                       const std::vector<ScalarRow>& rows,
                       const ScalarIoOptions& options = {});

}  // namespace ffis::qmc
