#include "ffis/apps/nyx/plotfile.hpp"

#include <cmath>

#include "ffis/h5/reader.hpp"

namespace ffis::nyx {

namespace {

/// The plotfile's single dataset, shape only.  The one definition both the
/// writer and the layout planner build from, so in-place slab updates can
/// never desynchronize from the written layout.
h5::Dataset density_dataset_shape(std::size_t n) {
  h5::Dataset ds;
  ds.name = kDensityDatasetName;
  const auto dim = static_cast<std::uint64_t>(n);
  ds.dims = {dim, dim, dim};
  return ds;
}

}  // namespace

h5::WriteInfo write_plotfile(vfs::FileSystem& fs, const std::string& path,
                             const DensityField& field, const h5::WriteOptions& options) {
  h5::H5File file;
  file.datasets.push_back(density_dataset_shape(field.n()));
  const std::span<const double> values[] = {field.data()};
  return h5::write_h5(fs, path, file, values, options);
}

DensityField read_plotfile(vfs::FileSystem& fs, const std::string& path) {
  h5::Dataset ds = h5::read_dataset(fs, path, kDensityDatasetName);
  if (ds.dims.size() != 3 || ds.dims[0] != ds.dims[1] || ds.dims[1] != ds.dims[2]) {
    throw h5::H5FormatError("baryon_density is not a cubic 3-D dataset");
  }
  const auto n = static_cast<std::size_t>(ds.dims[0]);
  return DensityField(n, std::move(ds.data));
}

h5::WriteInfo plan_plotfile_layout(std::size_t n, const h5::WriteOptions& options) {
  h5::H5File file;
  file.datasets.push_back(density_dataset_shape(n));
  return h5::plan_layout(file, options);
}

}  // namespace ffis::nyx
