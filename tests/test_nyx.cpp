// Unit tests for the mini-Nyx application: density field, halo finder,
// plotfile I/O and outcome classification.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "ffis/apps/nyx/density_field.hpp"
#include "ffis/apps/nyx/halo_finder.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/core/application.hpp"
#include "ffis/h5/float_codec.hpp"
#include "ffis/vfs/counting_fs.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "ffis/vfs/passthrough_fs.hpp"

namespace {

using namespace ffis;
using nyx::DensityField;
using nyx::FieldConfig;
using nyx::HaloFinderConfig;

// --- density field --------------------------------------------------------------

TEST(DensityField, GenerationIsDeterministic) {
  FieldConfig config;
  config.n = 16;
  const auto a = nyx::generate_density_field(config);
  const auto b = nyx::generate_density_field(config);
  EXPECT_EQ(a.data(), b.data());
  config.seed = 2;
  const auto c = nyx::generate_density_field(config);
  EXPECT_NE(a.data(), c.data());
}

class FieldMeanIsOne : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FieldMeanIsOne, MassConservation) {
  FieldConfig config;
  config.n = 24;
  config.seed = GetParam();
  const auto field = nyx::generate_density_field(config);
  // The average-value detector relies on |mean - 1| staying far below 1e-3.
  EXPECT_NEAR(field.mean(), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FieldMeanIsOne, ::testing::Values(1u, 2u, 3u, 42u, 1000u));

TEST(DensityField, ValuesArePositiveWithDenseBlobs) {
  FieldConfig config;
  config.n = 32;
  const auto field = nyx::generate_density_field(config);
  for (const double v : field.data()) EXPECT_GT(v, 0.0);
  // Halos make the max far exceed the 81.66x threshold over the mean.
  EXPECT_GT(field.max(), 81.66);
}

TEST(DensityField, IndexingIsRowMajorZyx) {
  DensityField field(4, std::vector<double>(64, 0.0));
  field.at(1, 2, 3) = 7.0;
  EXPECT_EQ(field.data()[(3 * 4 + 2) * 4 + 1], 7.0);
  EXPECT_EQ(field.linear_index(1, 2, 3), (3u * 4 + 2) * 4 + 1);
}

TEST(DensityField, RejectsMismatchedSizes) {
  EXPECT_THROW(DensityField(4, std::vector<double>(63)), std::invalid_argument);
  FieldConfig tiny;
  tiny.n = 4;
  EXPECT_THROW((void)nyx::generate_density_field(tiny), std::invalid_argument);
}

TEST(DensityField, RejectsAnEdgeWhoseCubeOverflows) {
  // (2^22)^3 = 2^66 wraps to 0 in 64 bits, so an empty vector would match.
  EXPECT_THROW(DensityField(std::size_t{1} << 22, {}), std::invalid_argument);
  EXPECT_THROW(DensityField(std::size_t{1} << 32, {}), std::invalid_argument);
  EXPECT_THROW(DensityField(std::numeric_limits<std::size_t>::max(), {}),
               std::invalid_argument);
  EXPECT_NO_THROW(DensityField(0, {}));
}

// --- halo finder -----------------------------------------------------------------

DensityField uniform_field(std::size_t n, double value = 1.0) {
  return DensityField(n, std::vector<double>(n * n * n, value));
}

TEST(HaloFinder, NoHalosInUniformField) {
  const auto catalog = nyx::find_halos(uniform_field(8));
  EXPECT_TRUE(catalog.halos.empty());
  EXPECT_EQ(catalog.candidate_cells, 0u);
  EXPECT_DOUBLE_EQ(catalog.mean_density, 1.0);
  EXPECT_NEAR(catalog.threshold, 81.66, 1e-9);
}

TEST(HaloFinder, DetectsACraftedBlob) {
  auto field = uniform_field(16);
  // A 2x2x2 blob well above threshold (mean stays ~1).
  for (std::size_t z = 4; z < 6; ++z)
    for (std::size_t y = 4; y < 6; ++y)
      for (std::size_t x = 4; x < 6; ++x) field.at(x, y, z) = 500.0;

  const auto catalog = nyx::find_halos(field);
  ASSERT_EQ(catalog.halos.size(), 1u);
  EXPECT_EQ(catalog.halos[0].cells, 8u);
  EXPECT_NEAR(catalog.halos[0].cx, 4.5, 1e-9);
  EXPECT_NEAR(catalog.halos[0].cy, 4.5, 1e-9);
  EXPECT_NEAR(catalog.halos[0].cz, 4.5, 1e-9);
  EXPECT_NEAR(catalog.halos[0].mass, 8 * 500.0, 1e-9);
}

TEST(HaloFinder, MinCellsRuleFiltersSmallClumps) {
  auto field = uniform_field(16);
  for (std::size_t x = 2; x < 6; ++x) field.at(x, 2, 2) = 900.0;  // 4 cells only
  HaloFinderConfig config;
  config.min_cells = 8;
  EXPECT_TRUE(nyx::find_halos(field, config).halos.empty());
  config.min_cells = 4;
  EXPECT_EQ(nyx::find_halos(field, config).halos.size(), 1u);
}

TEST(HaloFinder, SixConnectivityDoesNotLinkDiagonals) {
  auto field = uniform_field(16);
  // Two 8-cell blobs touching only at a corner: must remain two halos.
  for (std::size_t z = 2; z < 4; ++z)
    for (std::size_t y = 2; y < 4; ++y)
      for (std::size_t x = 2; x < 4; ++x) field.at(x, y, z) = 800.0;
  for (std::size_t z = 4; z < 6; ++z)
    for (std::size_t y = 4; y < 6; ++y)
      for (std::size_t x = 4; x < 6; ++x) field.at(x, y, z) = 700.0;
  const auto catalog = nyx::find_halos(field);
  EXPECT_EQ(catalog.halos.size(), 2u);
}

TEST(HaloFinder, FaceContactMergesComponents) {
  auto field = uniform_field(16);
  for (std::size_t z = 2; z < 4; ++z)
    for (std::size_t y = 2; y < 4; ++y)
      for (std::size_t x = 2; x < 6; ++x) field.at(x, y, z) = 600.0;  // one 16-cell bar
  const auto catalog = nyx::find_halos(field);
  ASSERT_EQ(catalog.halos.size(), 1u);
  EXPECT_EQ(catalog.halos[0].cells, 16u);
}

TEST(HaloFinder, ThresholdScalesWithMean) {
  // Scaling all data by 2^k scales threshold and masses but keeps the same
  // candidate set — the Exponent-Bias SDC signature of Table IV.
  FieldConfig config;
  config.n = 24;
  auto field = nyx::generate_density_field(config);
  const auto golden = nyx::find_halos(field);
  for (auto& v : field.data()) v *= 4096.0;
  const auto scaled = nyx::find_halos(field);
  ASSERT_EQ(scaled.halos.size(), golden.halos.size());
  for (std::size_t i = 0; i < golden.halos.size(); ++i) {
    EXPECT_EQ(scaled.halos[i].cells, golden.halos[i].cells);
    EXPECT_DOUBLE_EQ(scaled.halos[i].cx, golden.halos[i].cx);
    EXPECT_NEAR(scaled.halos[i].mass, golden.halos[i].mass * 4096.0,
                golden.halos[i].mass);
  }
}

TEST(HaloFinder, NonFiniteDataYieldsEmptyCatalog) {
  auto field = uniform_field(8);
  field.at(1, 1, 1) = std::numeric_limits<double>::infinity();
  const auto catalog = nyx::find_halos(field);
  EXPECT_TRUE(catalog.halos.empty());  // threshold became infinite
}

TEST(HaloFinder, SortedByMassDescending) {
  FieldConfig config;
  config.n = 32;
  const auto field = nyx::generate_density_field(config);
  const auto catalog = nyx::find_halos(field);
  ASSERT_GE(catalog.halos.size(), 2u);
  for (std::size_t i = 1; i < catalog.halos.size(); ++i) {
    EXPECT_GE(catalog.halos[i - 1].mass, catalog.halos[i].mass);
  }
}

TEST(HaloFinder, CatalogTextIsStableAndParsable) {
  FieldConfig config;
  config.n = 24;
  const auto field = nyx::generate_density_field(config);
  const auto a = nyx::find_halos(field).to_text();
  const auto b = nyx::find_halos(field).to_text();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("total_halos="), std::string::npos);
}

// --- plotfile I/O -----------------------------------------------------------------

TEST(Plotfile, RoundtripPreservesField) {
  FieldConfig config;
  config.n = 16;
  const auto field = nyx::generate_density_field(config);
  vfs::MemFs fs;
  const auto info = nyx::write_plotfile(fs, "/plt.h5", field);
  EXPECT_EQ(info.data_addresses[0], info.metadata_size);
  const auto back = nyx::read_plotfile(fs, "/plt.h5");
  EXPECT_EQ(back.n(), field.n());
  EXPECT_EQ(back.data(), field.data());
}

TEST(Plotfile, NonCubicDatasetRejected) {
  vfs::MemFs fs;
  h5::H5File file;
  h5::Dataset ds;
  ds.name = nyx::kDensityDatasetName;
  ds.dims = {4, 4, 8};
  ds.data.resize(128, 1.0);
  file.datasets.push_back(std::move(ds));
  (void)h5::write_h5(fs, "/bad.h5", file);
  EXPECT_THROW((void)nyx::read_plotfile(fs, "/bad.h5"), h5::H5FormatError);
}

TEST(Plotfile, DimsCorruptedToWrapTheCellCountCrash) {
  // A plotfile whose three dims read 2^22: the 2^66-cell product used to
  // wrap to 0, parse as an empty dataset and come back as a DensityField
  // with n = 4194304 and no data.
  FieldConfig config;
  config.n = 16;
  const auto field = nyx::generate_density_field(config);
  vfs::MemFs fs;
  const auto info = nyx::write_plotfile(fs, "/plt.h5", field);
  util::Bytes dim;
  util::put_le(dim, 1ULL << 22, 8);
  for (int d = 0; d < 3; ++d) {
    const std::string name = std::string("objectHeader[") + nyx::kDensityDatasetName +
                             "].dataspace.dimension[" + std::to_string(d) + "]";
    const auto* entry = info.field_map.find_by_name(name);
    ASSERT_NE(entry, nullptr) << name;
    vfs::File f(fs, "/plt.h5", vfs::OpenMode::ReadWrite);
    ASSERT_EQ(f.pwrite(dim, entry->offset), 8u);
  }
  EXPECT_THROW((void)nyx::read_plotfile(fs, "/plt.h5"), h5::H5FormatError);
}

// --- NyxApp ------------------------------------------------------------------------

TEST(NyxApp, RunAnalyzeGoldenIsBenign) {
  nyx::NyxConfig config;
  config.field.n = 32;
  nyx::NyxApp app(config);
  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  const auto a = app.analyze(fs);
  const auto b = app.analyze(fs);
  EXPECT_EQ(a.comparison_blob, b.comparison_blob);
  EXPECT_GE(a.metric("halo_count"), 1.0);
  EXPECT_NEAR(a.metric("mean_density"), 1.0, 1e-9);
}

TEST(NyxApp, FieldCacheServesRepeatedRuns) {
  nyx::NyxConfig config;
  config.field.n = 16;
  nyx::NyxApp app(config);
  const auto f1 = app.field(3);
  const auto f2 = app.field(3);
  EXPECT_EQ(f1.get(), f2.get());  // same cached object
  // field(4) evicts the seed-3 cache entry; f1's shared ownership keeps the
  // seed-3 field alive regardless.
  const auto f3 = app.field(4);
  EXPECT_NE(f1->data(), f3->data());
}

TEST(NyxApp, WritesAreChunked) {
  nyx::NyxConfig config;
  config.field.n = 16;  // 32 KB raw data
  config.h5_options.data_chunk_bytes = 4096;
  nyx::NyxApp app(config);
  vfs::MemFs backing;
  vfs::CountingFs counting(backing);
  core::RunContext ctx{.fs = counting, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  EXPECT_EQ(counting.count(vfs::Primitive::Pwrite), 10u);  // 8 data + metadata + EOF
  EXPECT_EQ(counting.count(vfs::Primitive::Mknod), 1u);    // lock protocol
  EXPECT_EQ(counting.count(vfs::Primitive::Unlink), 1u);
}

TEST(NyxApp, RejectsNonPositiveTimesteps) {
  nyx::NyxConfig config;
  config.timesteps = 0;
  EXPECT_THROW(nyx::NyxApp{config}, std::invalid_argument);
}

TEST(NyxApp, RejectsAverageValueDetectorWithSlabGrowth) {
  // Slab growth shifts the fault-free mean off 1, which would make the
  // mean-based detector flag every divergent run (SDC tally silently 0).
  nyx::NyxConfig config;
  config.timesteps = 2;
  config.use_average_value_detector = true;
  EXPECT_THROW(nyx::NyxApp{config}, std::invalid_argument);
  config.slab_growth = 0.0;  // no mean shift: the combination is sound again
  EXPECT_NO_THROW(nyx::NyxApp{config});
}

TEST(NyxApp, MultiDumpUpdatesSlabsInPlace) {
  nyx::NyxConfig config;
  config.field.n = 16;
  config.timesteps = 3;  // stage 2 advances slab z=0, stage 3 slab z=1
  nyx::NyxApp app(config);
  EXPECT_EQ(app.stage_count(), 3);

  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = 5, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);

  const auto base_field = app.field(5);  // hold ownership, not a reference
  const DensityField& base = *base_field;
  const DensityField updated = nyx::read_plotfile(fs, config.plotfile_path);
  const std::size_t n = base.n();
  // Slab 0 scaled by 1 + growth*1, slab 1 by 1 + growth*2, the rest intact.
  for (std::size_t x = 0; x < n; x += 5) {
    for (std::size_t y = 0; y < n; y += 5) {
      EXPECT_DOUBLE_EQ(updated.at(x, y, 0), base.at(x, y, 0) * (1.0 + config.slab_growth));
      EXPECT_DOUBLE_EQ(updated.at(x, y, 1),
                       base.at(x, y, 1) * (1.0 + 2.0 * config.slab_growth));
      EXPECT_DOUBLE_EQ(updated.at(x, y, 2), base.at(x, y, 2));
      EXPECT_DOUBLE_EQ(updated.at(x, y, n - 1), base.at(x, y, n - 1));
    }
  }
}

TEST(NyxApp, MultiDumpRunsAreDeterministic) {
  nyx::NyxConfig config;
  config.field.n = 16;
  config.timesteps = 2;
  nyx::NyxApp app(config);
  core::AnalysisResult results[2];
  for (auto& result : results) {
    vfs::MemFs fs;
    core::RunContext ctx{.fs = fs, .app_seed = 9, .instrumented_stage = -1,
                         .instrument = nullptr};
    app.run(ctx);
    result = app.analyze(fs);
  }
  EXPECT_EQ(results[0].comparison_blob, results[1].comparison_blob);
}

TEST(NyxApp, SlabUpdateWritesOnlyTheSlab) {
  nyx::NyxConfig config;
  config.field.n = 16;  // slab = 16*16*8 = 2 KiB of a ~35 KiB file
  config.timesteps = 2;
  nyx::NyxApp app(config);
  vfs::MemFs backing;
  vfs::CountingFs counting(backing);
  core::RunContext ctx{.fs = backing, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  // Stage 1 via the plain run of a single-dump twin, then count only the
  // in-place update traffic of stage 2.
  nyx::NyxConfig first = config;
  first.timesteps = 1;
  nyx::NyxApp{first}.run(ctx);
  core::RunContext update_ctx{.fs = counting, .app_seed = 1, .instrumented_stage = -1,
                              .instrument = nullptr};
  app.run_from(update_ctx, 2);
  const std::uint64_t slab_bytes = 16ull * 16ull * sizeof(double);
  EXPECT_EQ(counting.bytes_written(), slab_bytes);
  EXPECT_EQ(counting.count(vfs::Primitive::Truncate), 0u);  // strictly in place
}

TEST(NyxApp, ClassifyPaperRule) {
  nyx::NyxApp app;
  core::AnalysisResult golden, faulty;
  golden.metrics["halo_count"] = 12;
  golden.metrics["mean_density"] = 1.0;
  faulty.metrics["halo_count"] = 0;
  faulty.metrics["mean_density"] = 1.0;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Detected);  // no halos
  faulty.metrics["halo_count"] = 11;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Sdc);  // halos but different
}

TEST(NyxApp, AverageValueDetectorFlagsMeanShift) {
  nyx::NyxConfig config;
  config.use_average_value_detector = true;
  nyx::NyxApp app(config);
  core::AnalysisResult golden, faulty;
  golden.metrics["halo_count"] = 12;
  faulty.metrics["halo_count"] = 11;
  faulty.metrics["mean_density"] = 0.9983;  // the paper's DW signature
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Detected);
  faulty.metrics["mean_density"] = 1.0000001;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Sdc);
}

// --- incremental halo finder ---------------------------------------------------
//
// Seeded property test in the style of a reproducible fuzz harness: a tiny
// LCG drives edit generation, every assertion names the seed and trial, and
// rerunning the same seed replays the failing case exactly.

class EditRng {
 public:
  explicit EditRng(std::uint32_t seed) : state_(seed) {}
  std::uint32_t next() {
    state_ = state_ * 1103515245u + 12345u;
    return (state_ >> 16) & 0x7FFF;
  }
  std::uint32_t below(std::uint32_t bound) { return bound == 0 ? 0 : next() % bound; }
  double unit() { return static_cast<double>(next()) / 32768.0; }

 private:
  std::uint32_t state_;
};

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A hand-built golden field on a unit background: a 2x2x2 halo in the
/// corner cell (0,0,0) (exactly min_cells = 8 cells), a 7-cell bar on the
/// x = n-1 face (one short of a halo), two 8-cell blobs one empty cell apart
/// (a one-cell edit merges them), a 9-cell bar (a one-cell edit splits it
/// below min_cells), a blob on the z = n-1 face, and a ring of cells just
/// above and just below the threshold so that mean shifts flip candidacy.
DensityField crafted_field(std::size_t n) {
  DensityField f(n, std::vector<double>(n * n * n, 1.0));
  const double hot = 1000.0;
  for (std::size_t z = 0; z < 2; ++z)
    for (std::size_t y = 0; y < 2; ++y)
      for (std::size_t x = 0; x < 2; ++x) f.at(x, y, z) = hot;
  for (std::size_t y = 4; y < 11; ++y) f.at(n - 1, y, 5) = hot + static_cast<double>(y);
  for (std::size_t z = 6; z < 8; ++z)
    for (std::size_t y = 6; y < 8; ++y) {
      for (std::size_t x = 3; x < 5; ++x) f.at(x, y, z) = hot * 1.5;
      for (std::size_t x = 6; x < 8; ++x) f.at(x, y, z) = hot * 1.25;
    }
  for (std::size_t x = 2; x < 11; ++x) f.at(x, 13, 12) = hot * 0.9 + static_cast<double>(x);
  for (std::size_t y = 14; y < 16; ++y)
    for (std::size_t x = 14; x < 16; ++x)
      for (std::size_t z = n - 2; z < n; ++z) f.at(x, y, z) = hot * 1.1;
  // Near-threshold ring, placed against the finished mean.
  const double t0 = nyx::find_halos(f).threshold;
  for (std::size_t k = 0; k < 24; ++k) {
    const double factor = 0.9 + 0.2 * static_cast<double>(k) / 23.0;
    f.at(2 + k % 12, 2 + k / 12, 16) = t0 * factor;
  }
  return f;
}

/// Everything find() must reproduce, bit for bit.
void expect_same_catalog(const nyx::HaloCatalog& got, const nyx::HaloCatalog& want,
                         const std::string& where) {
  ASSERT_EQ(got.to_text(), want.to_text()) << where;
  ASSERT_EQ(got.candidate_cells, want.candidate_cells) << where;
  ASSERT_TRUE(bits_of(got.mean_density) == bits_of(want.mean_density) ||
              (std::isnan(got.mean_density) && std::isnan(want.mean_density)))
      << got.mean_density << " vs " << want.mean_density << ", " << where;
  ASSERT_TRUE(bits_of(got.threshold) == bits_of(want.threshold) ||
              (std::isnan(got.threshold) && std::isnan(want.threshold)))
      << where;
  ASSERT_EQ(got.halos.size(), want.halos.size()) << where;
  for (std::size_t i = 0; i < got.halos.size(); ++i) {
    ASSERT_EQ(got.halos[i].cells, want.halos[i].cells) << "halo " << i << ", " << where;
    ASSERT_EQ(bits_of(got.halos[i].mass), bits_of(want.halos[i].mass)) << where;
    ASSERT_EQ(bits_of(got.halos[i].cx), bits_of(want.halos[i].cx)) << where;
    ASSERT_EQ(bits_of(got.halos[i].cy), bits_of(want.halos[i].cy)) << where;
    ASSERT_EQ(bits_of(got.halos[i].cz), bits_of(want.halos[i].cz)) << where;
  }
}

/// Per-run coverage counters: the property is only as good as the paths the
/// random edits reach.
struct FinderCoverage {
  std::size_t trials = 0;
  std::size_t window_fallbacks = 0;  ///< find() returned nullopt
  std::size_t non_finite = 0;        ///< empty catalog by a non-finite threshold
  std::size_t halo_count_changed = 0;
  std::size_t candidates_changed = 0;
};

class IncrementalFinderProperty {
 public:
  IncrementalFinderProperty(DensityField golden, HaloFinderConfig config, std::string name)
      : golden_(std::move(golden)), config_(config), name_(std::move(name)),
        finder_(golden_, config_), t0_(finder_.golden_catalog().threshold) {
    for (std::size_t i = 0; i < golden_.size(); ++i) {
      if (std::isfinite(golden_.data()[i]) && golden_.data()[i] > t0_) candidates_.push_back(i);
    }
  }

  void run(std::uint32_t seed, std::size_t trials, FinderCoverage& coverage) {
    EditRng rng(seed);
    for (std::size_t t = 0; t < trials; ++t) {
      const std::string where =
          name_ + " seed=" + std::to_string(seed) + " trial=" + std::to_string(t);
      std::map<std::size_t, double> edits;
      if (rng.below(4) == 0) {
        slab_run(rng, edits);
      } else {
        const std::uint32_t cells = 1 + rng.below(4);
        for (std::uint32_t c = 0; c < cells; ++c) {
          const std::size_t cell = pick_cell(rng);
          edits[cell] = new_value(rng, golden_.data()[cell]);
        }
      }
      check(edits, where, coverage);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

 private:
  std::size_t cell_at(std::size_t x, std::size_t y, std::size_t z) const {
    return golden_.linear_index(x, y, z);
  }

  std::size_t pick_cell(EditRng& rng) const {
    const std::size_t n = golden_.n();
    const auto coord = [&] { return static_cast<std::size_t>(rng.below(static_cast<std::uint32_t>(n))); };
    switch (rng.below(5)) {
      case 0: {  // a cell on one of the six grid faces
        std::size_t p[3] = {coord(), coord(), coord()};
        p[rng.below(3)] = rng.below(2) == 0 ? 0 : n - 1;
        return cell_at(p[0], p[1], p[2]);
      }
      case 1:    // a golden candidate: shrink, split, or re-weigh its halo
        if (!candidates_.empty()) return candidates_[rng.below(static_cast<std::uint32_t>(candidates_.size()))];
        [[fallthrough]];
      case 2: {  // next to a golden candidate: extend or merge halos
        if (!candidates_.empty()) {
          const std::size_t c = candidates_[rng.below(static_cast<std::uint32_t>(candidates_.size()))];
          const std::size_t x = c % n, y = (c / n) % n, z = c / (n * n);
          switch (rng.below(6)) {
            case 0: return x > 0 ? c - 1 : c;
            case 1: return x + 1 < n ? c + 1 : c;
            case 2: return y > 0 ? c - n : c;
            case 3: return y + 1 < n ? c + n : c;
            case 4: return z > 0 ? c - n * n : c;
            default: return z + 1 < n ? c + n * n : c;
          }
        }
        [[fallthrough]];
      }
      default:
        return cell_at(coord(), coord(), coord());
    }
  }

  double new_value(EditRng& rng, double v) const {
    const double inf = std::numeric_limits<double>::infinity();
    switch (rng.below(16)) {
      case 0: return t0_ * (1.0 + 0.5 * rng.unit());          // crosses up
      case 1: return t0_ * (1.0 - 0.5 * rng.unit());          // crosses down
      case 2: return rng.below(2) == 0 ? t0_ : std::nextafter(t0_, inf);  // the boundary
      case 3: return std::bit_cast<double>(bits_of(v) ^ (std::uint64_t{1} << (52 + rng.below(11))));
      case 4: return std::bit_cast<double>(bits_of(v) ^ (std::uint64_t{1} << rng.below(52)));
      case 5: return -v;
      case 6: return 0.0;
      case 7: return v * (1.0 + 1e-6 * (rng.unit() - 0.5));  // a rounding-level nudge
      case 8: return rng.below(3) == 0 ? std::numeric_limits<double>::quiet_NaN() : v * 2.0;
      case 9: return rng.below(3) == 0 ? inf : v * 0.5;
      case 10: return rng.below(3) == 0 ? -inf : v * 3.0;
      case 11: return rng.below(3) == 0 ? -1e300 : v;       // drops the mean out of window
      case 12: return v;                                      // rewritten, unchanged
      default: return v / 1.05;                              // a stale pre-update value
    }
  }

  /// A contiguous run of cells in one z-slab with one shared corruption —
  /// the shape a torn or shorn slab write leaves.
  void slab_run(EditRng& rng, std::map<std::size_t, double>& edits) const {
    const std::size_t n = golden_.n();
    const std::size_t plane = n * n;
    const std::size_t z = rng.below(static_cast<std::uint32_t>(n));
    const std::size_t length = 1 + rng.below(static_cast<std::uint32_t>(plane));
    const std::size_t first = z * plane + rng.below(static_cast<std::uint32_t>(plane - length + 1));
    const std::uint32_t kind = rng.below(4);
    const int bit = 52 + static_cast<int>(rng.below(11));
    for (std::size_t i = first; i < first + length; ++i) {
      const double v = golden_.data()[i];
      switch (kind) {
        case 0: edits[i] = v / 1.05; break;
        case 1: edits[i] = 0.0; break;
        // Exponent flips over a run: values near 1 turn into infinities or
        // huge finite values, the latter overflowing the threshold.
        case 2: edits[i] = std::bit_cast<double>(bits_of(v) ^ (std::uint64_t{1} << bit)); break;
        default: edits[i] = v * (1.0 + 0.01 * rng.unit()); break;
      }
    }
  }

  void check(const std::map<std::size_t, double>& edit_map, const std::string& where,
             FinderCoverage& coverage) {
    std::vector<nyx::CellEdit> edits;
    DensityField edited = golden_;
    for (const auto& [cell, value] : edit_map) {
      edits.push_back(nyx::CellEdit{.index = cell, .value = value});
      edited.data()[cell] = value;
    }
    const nyx::HaloCatalog want = nyx::find_halos(edited, config_);
    const std::optional<nyx::HaloCatalog> got = finder_.find(edits);
    ++coverage.trials;
    if (!got.has_value()) {
      ++coverage.window_fallbacks;
      ASSERT_TRUE(std::isfinite(want.threshold)) << where;
      ASSERT_LT(want.threshold, finder_.window_floor()) << "needless fallback, " << where;
      return;
    }
    if (!std::isfinite(want.threshold)) ++coverage.non_finite;
    if (want.halos.size() != finder_.golden_catalog().halos.size()) ++coverage.halo_count_changed;
    if (want.candidate_cells != finder_.golden_catalog().candidate_cells) {
      ++coverage.candidates_changed;
    }
    expect_same_catalog(*got, want, where);
  }

  DensityField golden_;
  HaloFinderConfig config_;
  std::string name_;
  nyx::IncrementalHaloFinder finder_;
  double t0_;
  std::vector<std::size_t> candidates_;
};

TEST(IncrementalHaloFuzz, MatchesFullFinderUnderRandomEdits) {
  FinderCoverage coverage;
  {
    HaloFinderConfig config;
    IncrementalFinderProperty crafted(crafted_field(20), config, "crafted");
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
      crafted.run(seed, 250, coverage);
      if (HasFatalFailure()) return;
    }
  }
  for (const std::uint64_t min_cells : {std::uint64_t{8}, std::uint64_t{3}}) {
    FieldConfig field;
    field.n = 16;
    field.halo_count = 400;  // ~6 halos on a 16^3 grid
    field.seed = 11 + min_cells;
    HaloFinderConfig config;
    config.min_cells = min_cells;
    IncrementalFinderProperty generated(nyx::generate_density_field(field), config,
                                        "generated/min_cells=" + std::to_string(min_cells));
    for (std::uint32_t seed = 100; seed < 104; ++seed) {
      generated.run(seed, 250, coverage);
      if (HasFatalFailure()) return;
    }
  }
  // The random edits must actually reach every path they are meant to.
  EXPECT_GT(coverage.window_fallbacks, 0u);
  EXPECT_GT(coverage.non_finite, 0u);
  EXPECT_GT(coverage.halo_count_changed, coverage.trials / 50);
  EXPECT_GT(coverage.candidates_changed, coverage.trials / 10);
}

TEST(IncrementalHaloFinder, GoldenStateMatchesFindHalos) {
  const DensityField golden = crafted_field(20);
  const nyx::IncrementalHaloFinder finder(golden, HaloFinderConfig{});
  expect_same_catalog(finder.golden_catalog(), nyx::find_halos(golden), "golden");
  // The crafted components: corner (8), blob pair, bar (9), face blob; the
  // 7-cell bar is a component but no halo.
  EXPECT_EQ(finder.golden_catalog().halos.size(), 5u);
  EXPECT_LT(finder.window_floor(), finder.golden_catalog().threshold);
  // No edits, or edits that rewrite the same bits: the golden catalog.
  expect_same_catalog(*finder.find({}), finder.golden_catalog(), "no edits");
  const std::vector<nyx::CellEdit> same{{.index = 0, .value = golden.data()[0]}};
  expect_same_catalog(*finder.find(same), finder.golden_catalog(), "same bits");
}

TEST(IncrementalHaloFinder, MergeSplitAndMinCellsEdgesMatchFindHalos) {
  const DensityField golden = crafted_field(20);
  const HaloFinderConfig config;
  const nyx::IncrementalHaloFinder finder(golden, config);
  const double hot = 1000.0;
  const auto check = [&](std::vector<nyx::CellEdit> edits, const std::string& what) {
    DensityField edited = golden;
    for (const auto& e : edits) edited.data()[e.index] = e.value;
    const auto got = finder.find(edits);
    ASSERT_TRUE(got.has_value()) << what;
    expect_same_catalog(*got, nyx::find_halos(edited, config), what);
  };
  const auto at = [&](std::size_t x, std::size_t y, std::size_t z) {
    return golden.linear_index(x, y, z);
  };
  check({{.index = at(5, 6, 6), .value = hot}}, "merge the blob pair");
  check({{.index = at(6, 13, 12), .value = 1.0}}, "split the bar below min_cells");
  check({{.index = at(19, 11, 5), .value = hot}}, "grow the 7-cell bar to a halo");
  check({{.index = at(1, 1, 1), .value = 1.0}}, "shrink the corner halo to 7 cells");
  check({{.index = at(0, 0, 0), .value = std::numeric_limits<double>::quiet_NaN()}},
        "NaN empties the catalog");
}

// --- NyxApp diff-driven analysis -------------------------------------------------

/// A 2-dump plotfile tree and the run's fork of it, for driving
/// analyze_dirty by hand.
struct DirtyFixture {
  explicit DirtyFixture(std::size_t n = 16) : app(config_for(n)) {
    core::RunContext ctx{.fs = golden_tree, .app_seed = 3, .instrumented_stage = -1,
                         .instrument = nullptr};
    app.run(ctx);
    golden = app.analyze(golden_tree);
    vfs::MemFs scratch = golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    artifacts = app.golden_artifacts(scratch, golden);
    const h5::WriteInfo info = nyx::plan_plotfile_layout(n);
    data_begin = h5::dataset_byte_ranges(info).at(0).begin;
    file_size = info.file_size;
  }

  static nyx::NyxConfig config_for(std::size_t n) {
    nyx::NyxConfig config;
    config.field.n = n;
    config.timesteps = 2;
    return config;
  }

  /// Overwrites element `cell` of the run tree's dataset with `value`.
  void write_value(vfs::MemFs& run, std::size_t cell, double value) const {
    vfs::File f(run, app.config().plotfile_path, vfs::OpenMode::ReadWrite);
    const util::Bytes raw = h5::encode_array(std::vector<double>{value}, h5::FloatFormat{});
    f.pwrite(raw, data_begin + cell * sizeof(double));
  }

  core::AnalysisResult analyze_dirty(vfs::MemFs& run) const {
    return app.analyze_dirty(run, run.diff_tree(golden_tree), golden, artifacts.get());
  }

  nyx::NyxApp app;
  vfs::MemFs golden_tree;
  core::AnalysisResult golden;
  std::shared_ptr<const core::GoldenArtifacts> artifacts;
  std::uint64_t data_begin = 0;
  std::uint64_t file_size = 0;
};

/// Returns half the bytes of any read of at most one element at or past
/// `from`; larger reads pass through whole.
class ShortTinyReadsFs final : public vfs::PassthroughFs {
 public:
  ShortTinyReadsFs(vfs::FileSystem& inner, std::uint64_t from)
      : PassthroughFs(inner), from_(from) {}
  std::size_t pread(vfs::FileHandle fh, util::MutableByteSpan buf,
                    std::uint64_t offset) override {
    if (offset >= from_ && buf.size() <= sizeof(double)) {
      return PassthroughFs::pread(fh, buf.first(buf.size() / 2), offset);
    }
    return PassthroughFs::pread(fh, buf, offset);
  }

 private:
  std::uint64_t from_;
};

double reason_of(const core::AnalysisResult& r) {
  const auto it = r.metrics.find(core::kFullAnalysisReasonMetric);
  return it == r.metrics.end() ? 0.0 : it->second;
}

TEST(NyxDiffAnalysis, SplicedPathMatchesFullAnalysisAndReadsOnlyTheEdit) {
  DirtyFixture fx;
  vfs::MemFs run = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
  const std::size_t cell = 5 * 16 * 16 + 7;
  fx.write_value(run, cell, 2.5);
  const vfs::FsDiff diff = run.diff_tree(fx.golden_tree);
  ASSERT_EQ(diff.changed.size(), 1u);
  ASSERT_EQ(diff.changed[0].ranges.size(), 1u);
  EXPECT_LE(diff.changed[0].ranges[0].length, sizeof(double));

  const std::uint64_t reads_before = run.stats().bytes_read;
  const core::AnalysisResult spliced = fx.analyze_dirty(run);
  EXPECT_EQ(reason_of(spliced), 0.0);
  EXPECT_LE(run.stats().bytes_read - reads_before, sizeof(double));
  const core::AnalysisResult full = fx.app.analyze(run);
  EXPECT_EQ(spliced.comparison_blob, full.comparison_blob);
  EXPECT_EQ(spliced.metrics, full.metrics);
}

TEST(NyxDiffAnalysis, EveryFullAnalysisNamesItsReason) {
  DirtyFixture fx;
  const std::string& path = fx.app.config().plotfile_path;
  const auto reason = [](core::FullAnalysisReason r) { return static_cast<double>(r); };

  {  // metadata: mode bits
    vfs::MemFs run = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    run.chmod(path, 0600);
    EXPECT_EQ(reason_of(fx.analyze_dirty(run)), reason(core::FullAnalysisReason::MetadataChanged));
  }
  {  // metadata: the path renamed away — the full analysis fails like analyze()
    vfs::MemFs run = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    run.rename(path, "/moved.h5");
    const vfs::FsDiff diff = run.diff_tree(fx.golden_tree);
    EXPECT_EQ(diff.find(path), nullptr);
    EXPECT_TRUE(diff.touches(path));
    EXPECT_THROW((void)fx.app.analyze_dirty(run, diff, fx.golden, fx.artifacts.get()),
                 std::exception);
  }
  // Diffs that merely claim a change over a clean tree name their reason
  // without the full parser tripping over real corruption.
  const auto claimed = [&](std::vector<vfs::ByteRange> ranges, std::uint64_t size) {
    vfs::FsDiff diff;
    diff.changed.push_back(vfs::FileDiff{.path = path, .ranges = std::move(ranges),
                                         .base_size = fx.file_size, .size = size,
                                         .metadata_changed = false});
    return diff;
  };
  vfs::MemFs clean = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
  {  // size change
    const auto r = fx.app.analyze_dirty(clean, claimed({{fx.file_size, 8}}, fx.file_size + 8),
                                        fx.golden, fx.artifacts.get());
    EXPECT_EQ(reason_of(r), reason(core::FullAnalysisReason::SizeChanged));
    EXPECT_EQ(r.comparison_blob, fx.golden.comparison_blob);
  }
  {  // a dirty byte in the metadata region
    const auto r = fx.app.analyze_dirty(clean, claimed({{fx.data_begin - 1, 2}}, fx.file_size),
                                        fx.golden, fx.artifacts.get());
    EXPECT_EQ(reason_of(r), reason(core::FullAnalysisReason::OutsideDataRegion));
    EXPECT_EQ(r.comparison_blob, fx.golden.comparison_blob);
  }
  {  // short read: the diff promises the golden size, the file is shorter.
     // The full path then fails exactly as analyze() does.
    vfs::MemFs run = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    run.truncate(path, fx.file_size - 64);
    std::string full_error, dirty_error;
    try {
      (void)fx.app.analyze(run);
    } catch (const std::exception& e) {
      full_error = e.what();
    }
    try {
      (void)fx.app.analyze_dirty(run, claimed({{fx.file_size - 16, 16}}, fx.file_size),
                                 fx.golden, fx.artifacts.get());
    } catch (const std::exception& e) {
      dirty_error = e.what();
    }
    EXPECT_FALSE(full_error.empty());
    EXPECT_EQ(dirty_error, full_error);
  }
  {  // short read on a device that shortens tiny data reads (the splice's),
     // while the full analysis' large reads succeed
    vfs::MemFs run = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    fx.write_value(run, 100, 2.0);
    ShortTinyReadsFs flaky(run, fx.data_begin);
    const auto r = fx.app.analyze_dirty(flaky, run.diff_tree(fx.golden_tree), fx.golden,
                                        fx.artifacts.get());
    EXPECT_EQ(reason_of(r), reason(core::FullAnalysisReason::ShortRead));
    EXPECT_EQ(r.comparison_blob, fx.app.analyze(run).comparison_blob);
  }
  {  // the threshold drops below the golden index window
    vfs::MemFs run = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    fx.write_value(run, 100, -1e300);
    const core::AnalysisResult r = fx.analyze_dirty(run);
    EXPECT_EQ(reason_of(r), reason(core::FullAnalysisReason::ThresholdOutsideWindow));
    const core::AnalysisResult full = fx.app.analyze(run);
    EXPECT_EQ(r.comparison_blob, full.comparison_blob);
  }
  {  // no golden artifacts
    vfs::MemFs run = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    fx.write_value(run, 100, 2.0);
    const auto r = fx.app.analyze_dirty(run, run.diff_tree(fx.golden_tree), fx.golden, nullptr);
    EXPECT_EQ(reason_of(r), reason(core::FullAnalysisReason::NoGoldenArtifacts));
  }
}

TEST(NyxDiffAnalysis, GoldenStateIsSharedPerGoldenContent) {
  DirtyFixture fx;
  // Another fork of the same golden tree: pointer-identical extents.
  vfs::MemFs again = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
  EXPECT_EQ(fx.app.golden_artifacts(again, fx.golden).get(), fx.artifacts.get());
  // An independently written tree with the same bytes: shared by content.
  vfs::MemFs rebuilt;
  core::RunContext ctx{.fs = rebuilt, .app_seed = 3, .instrumented_stage = -1,
                       .instrument = nullptr};
  fx.app.run(ctx);
  EXPECT_EQ(fx.app.golden_artifacts(rebuilt, fx.golden).get(), fx.artifacts.get());
  // Another seed writes another field: a state of its own.
  vfs::MemFs other;
  core::RunContext other_ctx{.fs = other, .app_seed = 4, .instrumented_stage = -1,
                             .instrument = nullptr};
  fx.app.run(other_ctx);
  const auto other_state = fx.app.golden_artifacts(other, fx.app.analyze(other));
  EXPECT_NE(other_state.get(), fx.artifacts.get());
}

}  // namespace
