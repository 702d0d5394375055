// Unit tests for the mini-QMCPACK application: wavefunction analytics (vs
// numerical derivatives), VMC/DMC physics, scalar I/O and QMCA parsing, the
// rendered-series replay, and diff-driven re-analysis against the full one.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ffis/apps/qmc/dmc.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/apps/qmc/qmca.hpp"
#include "ffis/apps/qmc/scalar_io.hpp"
#include "ffis/apps/qmc/vmc.hpp"
#include "ffis/apps/qmc/wavefunction.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/faults/fault_signature.hpp"
#include "ffis/faults/faulting_fs.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/vfs/counting_fs.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "ffis/vfs/passthrough_fs.hpp"

namespace {

using namespace ffis;
using qmc::TrialWavefunction;
using qmc::Vec3;
using qmc::Walker;

// --- wavefunction: analytic derivatives vs finite differences ------------------------

double numerical_laplacian_log_psi(const TrialWavefunction& psi, const Walker& w) {
  // Sum over both electrons of (nabla^2 f + |grad f|^2) where f = ln psi —
  // i.e. (nabla^2 psi)/psi, via central differences on f.
  const double h = 1e-5;
  const double f0 = psi.log_psi(w);
  double lap_f = 0.0;
  double grad_sq = 0.0;
  for (int electron = 0; electron < 2; ++electron) {
    for (int k = 0; k < 3; ++k) {
      Walker plus = w, minus = w;
      auto& rp = (electron == 0) ? plus.r1 : plus.r2;
      auto& rm = (electron == 0) ? minus.r1 : minus.r2;
      rp[k] += h;
      rm[k] -= h;
      const double fp = psi.log_psi(plus);
      const double fm = psi.log_psi(minus);
      lap_f += (fp - 2.0 * f0 + fm) / (h * h);
      const double df = (fp - fm) / (2.0 * h);
      grad_sq += df * df;
    }
  }
  return lap_f + grad_sq;
}

Walker test_walker(double scale = 1.0) {
  Walker w;
  w.r1 = {0.7 * scale, -0.4 * scale, 0.5 * scale};
  w.r2 = {-0.6 * scale, 0.8 * scale, -0.3 * scale};
  return w;
}

class WavefunctionDerivatives : public ::testing::TestWithParam<double> {};

TEST_P(WavefunctionDerivatives, LocalEnergyMatchesFiniteDifference) {
  const TrialWavefunction psi{};
  const Walker w = test_walker(GetParam());
  const double r1 = qmc::norm(w.r1);
  const double r2 = qmc::norm(w.r2);
  const double r12 = std::sqrt((w.r1[0] - w.r2[0]) * (w.r1[0] - w.r2[0]) +
                               (w.r1[1] - w.r2[1]) * (w.r1[1] - w.r2[1]) +
                               (w.r1[2] - w.r2[2]) * (w.r1[2] - w.r2[2]));
  const double potential = -2.0 / r1 - 2.0 / r2 + 1.0 / r12;
  const double expected = -0.5 * numerical_laplacian_log_psi(psi, w) + potential;
  EXPECT_NEAR(psi.local_energy(w), expected, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Scales, WavefunctionDerivatives,
                         ::testing::Values(0.5, 1.0, 1.7, 3.0));

TEST(Wavefunction, DriftMatchesFiniteDifferenceGradient) {
  const TrialWavefunction psi{};
  const Walker w = test_walker();
  Vec3 g1{}, g2{};
  psi.drift(w, g1, g2);
  const double h = 1e-6;
  for (int k = 0; k < 3; ++k) {
    Walker plus = w, minus = w;
    plus.r1[k] += h;
    minus.r1[k] -= h;
    EXPECT_NEAR(g1[k], (psi.log_psi(plus) - psi.log_psi(minus)) / (2 * h), 1e-5);
    plus = w;
    minus = w;
    plus.r2[k] += h;
    minus.r2[k] -= h;
    EXPECT_NEAR(g2[k], (psi.log_psi(plus) - psi.log_psi(minus)) / (2 * h), 1e-5);
  }
}

TEST(Wavefunction, ElectronNucleusCuspKeepsLocalEnergyFinite) {
  // With Z = Z_nuc the -2/r divergence cancels: E_L stays bounded as r1 -> 0.
  const TrialWavefunction psi{};
  Walker w = test_walker();
  for (const double r : {1e-2, 1e-4, 1e-6}) {
    w.r1 = {r, 0.0, 0.0};
    EXPECT_LT(std::fabs(psi.local_energy(w)), 50.0) << "r1 = " << r;
  }
}

TEST(Wavefunction, ElectronElectronCuspKeepsLocalEnergyFinite) {
  const TrialWavefunction psi{};
  Walker w;
  w.r1 = {0.5, 0.0, 0.0};
  for (const double d : {1e-2, 1e-4, 1e-6}) {
    w.r2 = {0.5 + d, 0.0, 0.0};
    EXPECT_LT(std::fabs(psi.local_energy(w)), 50.0) << "r12 = " << d;
  }
}

TEST(Wavefunction, LogPsiDecreasesWithDistance) {
  const TrialWavefunction psi{};
  EXPECT_GT(psi.log_psi(test_walker(0.5)), psi.log_psi(test_walker(2.0)));
}

// --- VMC ---------------------------------------------------------------------------

TEST(Vmc, ReasonableAcceptanceAndEnergy) {
  const TrialWavefunction psi{};
  qmc::VmcConfig config;
  config.walkers = 128;
  config.steps = 100;
  config.warmup_steps = 100;
  util::Rng rng(1);
  const auto result = qmc::run_vmc(psi, config, rng);
  EXPECT_GT(result.acceptance, 0.3);
  EXPECT_LT(result.acceptance, 0.95);
  ASSERT_EQ(result.rows.size(), 100u);
  double mean = 0;
  for (const auto& row : result.rows) mean += row.local_energy;
  mean /= static_cast<double>(result.rows.size());
  // VMC with this trial function sits above the exact energy but below -2.7.
  EXPECT_LT(mean, -2.7);
  EXPECT_GT(mean, -3.1);
  EXPECT_EQ(result.walkers.size(), config.walkers);
}

TEST(Vmc, RowsAreIndexedSequentially) {
  const TrialWavefunction psi{};
  qmc::VmcConfig config;
  config.walkers = 32;
  config.steps = 50;
  config.warmup_steps = 10;
  util::Rng rng(2);
  const auto result = qmc::run_vmc(psi, config, rng);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(result.rows[i].index, i);
    EXPECT_GE(result.rows[i].variance, 0.0);
    EXPECT_EQ(result.rows[i].weight, 32.0);
  }
}

// --- DMC ---------------------------------------------------------------------------

TEST(Dmc, ProjectsTowardsExactEnergy) {
  const TrialWavefunction psi{};
  qmc::VmcConfig vmc_config;
  vmc_config.walkers = 512;
  vmc_config.steps = 50;
  vmc_config.warmup_steps = 150;
  qmc::DmcConfig dmc_config;
  dmc_config.target_walkers = 512;
  dmc_config.steps = 400;
  dmc_config.warmup_steps = 100;
  util::Rng rng(1);
  auto vmc = qmc::run_vmc(psi, vmc_config, rng);
  const auto dmc = qmc::run_dmc(psi, std::move(vmc.walkers), dmc_config, rng);
  // Exact He ground state: -2.90372 Ha.  Statistical tolerance is generous.
  EXPECT_NEAR(dmc.mean_energy, -2.90372, 0.02);
}

TEST(Dmc, PopulationStaysNearTarget) {
  const TrialWavefunction psi{};
  qmc::VmcConfig vmc_config;
  vmc_config.walkers = 128;
  vmc_config.steps = 10;
  vmc_config.warmup_steps = 50;
  qmc::DmcConfig dmc_config;
  dmc_config.target_walkers = 128;
  dmc_config.steps = 100;
  dmc_config.warmup_steps = 20;
  util::Rng rng(3);
  auto vmc = qmc::run_vmc(psi, vmc_config, rng);
  const auto dmc = qmc::run_dmc(psi, std::move(vmc.walkers), dmc_config, rng);
  for (const auto& row : dmc.rows) {
    EXPECT_GT(row.weight, 128.0 * 0.3);
    EXPECT_LT(row.weight, 128.0 * 3.0);
  }
}

TEST(Dmc, EmptySeedPopulationRejected) {
  const TrialWavefunction psi{};
  util::Rng rng(1);
  EXPECT_THROW((void)qmc::run_dmc(psi, {}, qmc::DmcConfig{}, rng), std::invalid_argument);
}

// --- scalar I/O & QMCA -----------------------------------------------------------------

TEST(ScalarIo, RowFormatIsFixedWidth) {
  qmc::ScalarRow row;
  row.index = 42;
  row.local_energy = -2.90372;
  row.variance = 0.81;
  row.weight = 1024;
  const std::string line = qmc::format_row(row);
  EXPECT_EQ(line.size(), 65u);  // 16+1+15+1+15+1+15+1('\n')
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("-2.90372000"), std::string::npos);
}

TEST(ScalarIo, WriteProducesHeaderPlusFlushes) {
  std::vector<qmc::ScalarRow> rows(200);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].index = i;
    rows[i].local_energy = -2.9;
  }
  vfs::MemFs backing;
  vfs::CountingFs counting(backing);
  qmc::write_scalar_file(counting, "/s.dat", rows);
  // Header write + ceil(200*65/4096)-ish buffered flushes.
  EXPECT_GE(counting.count(vfs::Primitive::Pwrite), 4u);
  const std::string text = vfs::read_text_file(backing, "/s.dat");
  EXPECT_EQ(text.find(qmc::scalar_header()), 0u);
}

// --- rendered-series replay ------------------------------------------------------------

/// The buffered per-row writer the rendered series replays: header pwrite,
/// then one pwrite whenever the buffer reaches flush_bytes, then the rest.
void write_rows_buffered(vfs::FileSystem& fs, const std::string& path,
                         const std::vector<qmc::ScalarRow>& rows, std::size_t flush_bytes) {
  vfs::File out(fs, path, vfs::OpenMode::Write);
  std::uint64_t offset = 0;
  const std::string header = qmc::scalar_header();
  offset += out.pwrite(util::byte_view(header), offset);
  std::string buffer;
  const auto flush = [&] {
    if (buffer.empty()) return;
    offset += out.pwrite(util::byte_view(buffer), offset);
    buffer.clear();
  };
  for (const auto& row : rows) {
    buffer += qmc::format_row(row);
    if (buffer.size() >= flush_bytes) flush();
  }
  flush();
}

struct WriteCall {
  std::uint64_t offset = 0;
  util::Bytes bytes;
  bool operator==(const WriteCall&) const = default;
};

/// Records every pwrite that reaches it; optionally writes only the first
/// half of call `short_call` and reports that shorter count, as a short
/// write(2) does.
class RecordingFs final : public vfs::PassthroughFs {
 public:
  RecordingFs(vfs::FileSystem& inner, std::size_t short_call)
      : PassthroughFs(inner), short_call_(short_call) {}
  std::size_t pwrite(vfs::FileHandle fh, util::ByteSpan buf, std::uint64_t offset) override {
    if (calls.size() == short_call_) buf = buf.first(buf.size() / 2);
    calls.push_back({offset, util::Bytes(buf.begin(), buf.end())});
    return PassthroughFs::pwrite(fh, buf, offset);
  }
  std::vector<WriteCall> calls;

 private:
  std::size_t short_call_;
};

std::vector<qmc::ScalarRow> sample_rows(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<qmc::ScalarRow> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i].index = i;
    rows[i].local_energy = rng.uniform(-3.2, -2.6);
    rows[i].variance = rng.uniform(0.0, 2.0);
    rows[i].weight = rng.uniform(900.0, 1100.0);
  }
  return rows;
}

TEST(ScalarReplay, RenderedSeriesReplaysThePerRowWritersCalls) {
  // (rows, flush) pairs: empty series, a remainder-free split, a short
  // tail flush, and flushes of one row each.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {0, 4096}, {126, 65 * 63}, {200, 4096}, {37, 1}};
  const std::string path = "/s.dat";
  for (const auto& [n, flush] : shapes) {
    SCOPED_TRACE("rows " + std::to_string(n) + " flush " + std::to_string(flush));
    const std::vector<qmc::ScalarRow> rows = sample_rows(n, 100 + n);
    const qmc::RenderedSeries series = qmc::render_scalar_series(rows, {.flush_bytes = flush});
    ASSERT_EQ(series.write_ends.back(), series.text.size());
    // No fault, then a fault under every pwrite: a short write at the
    // recording layer, and a stale-tail SHORN_WRITE above it.
    for (std::size_t fault_at = 0; fault_at <= series.write_ends.size(); ++fault_at) {
      SCOPED_TRACE("fault at pwrite " + std::to_string(fault_at));
      const bool armed = fault_at < series.write_ends.size();
      const std::size_t no_short = static_cast<std::size_t>(-1);
      vfs::MemFs ref_backing, replay_backing;
      RecordingFs ref_rec(ref_backing, armed ? fault_at : no_short);
      RecordingFs replay_rec(replay_backing, armed ? fault_at : no_short);
      write_rows_buffered(ref_rec, path, rows, flush);
      qmc::write_rendered_series(replay_rec, path, series);
      EXPECT_EQ(replay_rec.calls, ref_rec.calls);
      EXPECT_EQ(vfs::read_file(replay_backing, path), vfs::read_file(ref_backing, path));
      if (!armed) {  // the rows-based wrapper renders, then replays
        vfs::MemFs wrapper_backing;
        RecordingFs wrapper_rec(wrapper_backing, no_short);
        qmc::write_scalar_file(wrapper_rec, path, rows, {.flush_bytes = flush});
        EXPECT_EQ(wrapper_rec.calls, ref_rec.calls);
        EXPECT_EQ(vfs::read_text_file(wrapper_backing, path), series.text);
      }

      vfs::MemFs ref_below, replay_below;
      RecordingFs ref_below_rec(ref_below, no_short), replay_below_rec(replay_below, no_short);
      faults::FaultingFs ref_shorn(ref_below_rec), replay_shorn(replay_below_rec);
      if (armed) {
        const auto sig = faults::parse_fault_signature("SHORN_WRITE@pwrite{tail=stale}");
        ref_shorn.arm(sig, fault_at, 9);
        replay_shorn.arm(sig, fault_at, 9);
      }
      write_rows_buffered(ref_shorn, path, rows, flush);
      qmc::write_rendered_series(replay_shorn, path, series);
      EXPECT_EQ(replay_below_rec.calls, ref_below_rec.calls);
      EXPECT_EQ(vfs::read_file(replay_below, path), vfs::read_file(ref_below, path));
      EXPECT_EQ(replay_shorn.fired(), ref_shorn.fired());
    }
  }
}

TEST(Qmca, AnalyzesCleanSeries) {
  std::string text = qmc::scalar_header();
  for (int i = 0; i < 300; ++i) {
    qmc::ScalarRow row;
    row.index = static_cast<std::uint64_t>(i);
    row.local_energy = -2.9 + 0.001 * ((i % 5) - 2);
    text += qmc::format_row(row);
  }
  qmc::QmcaOptions options;
  options.equilibration_rows = 100;
  const auto result = qmc::analyze_scalar_text(text, options);
  EXPECT_EQ(result.rows_used, 200u);
  EXPECT_EQ(result.rows_skipped, 0u);
  EXPECT_FALSE(result.nul_bytes_found);
  EXPECT_NEAR(result.mean_energy, -2.9, 0.002);
  EXPECT_GT(result.error_bar, 0.0);
}

TEST(Qmca, RowsKeepStrtodSemantics) {
  // Hex floats, leading whitespace and signed zero parse; inf/nan energies
  // parse but are not finite, so they are skipped like garbage; a NUL inside
  // a row ends the row where strtod stops.
  std::string text = qmc::scalar_header();
  text += "   0   0x1.8p1 0 0\n";            // 3.0
  text += "\t1 -0x1p-1 0 0\n";              // -0.5
  text += "2 inf 0 0\n";                     // skipped: not finite
  text += "3 -nan 0 0\n";                    // skipped: not finite
  text += std::string("4\0 7.0 0 0\n", 11);  // skipped: the row ends after "4"
  text += "5 +1.5e0 0 0\n";                  // 1.5
  text += "# a comment row\n";
  text += "\n";
  text += "6 2";                              // last row without a newline
  const auto result = qmc::analyze_scalar_text(text, {.equilibration_rows = 0});
  EXPECT_EQ(result.rows_used, 4u);
  EXPECT_EQ(result.rows_skipped, 3u);
  EXPECT_TRUE(result.nul_bytes_found);
  EXPECT_DOUBLE_EQ(result.mean_energy, (3.0 - 0.5 + 1.5 + 2.0) / 4.0);
}

TEST(Qmca, ParsesAViewIntoALargerBuffer) {
  // The text is a view; bytes after its end must never be read.
  std::string backing = qmc::scalar_header();
  backing += "0 1.0 0 0\n1 3.0 0 0\n2 5.0";
  const std::size_t end = backing.size() - 1;  // cut "5.0" to "5."
  backing += "99 0 0\n";
  const auto result =
      qmc::analyze_scalar_text(std::string_view(backing).substr(0, end), {.equilibration_rows = 0});
  EXPECT_EQ(result.rows_used, 3u);
  EXPECT_DOUBLE_EQ(result.mean_energy, 3.0);
}

TEST(Qmca, MissingHeaderThrows) {
  EXPECT_THROW((void)qmc::analyze_scalar_text("1 -2.9 0.8 64\n"), qmc::QmcaError);
  EXPECT_THROW((void)qmc::analyze_scalar_text("# wrong columns\n1 -2.9\n"),
               qmc::QmcaError);
  EXPECT_THROW((void)qmc::analyze_scalar_text(""), qmc::QmcaError);
}

TEST(Qmca, NulBytesAreFlaggedNotFatal) {
  std::string text = qmc::scalar_header();
  for (int i = 0; i < 150; ++i) {
    qmc::ScalarRow row;
    row.index = static_cast<std::uint64_t>(i);
    row.local_energy = -2.9;
    text += qmc::format_row(row);
  }
  text += std::string(64, '\0');  // a dropped write's hole
  for (int i = 150; i < 300; ++i) {
    qmc::ScalarRow row;
    row.index = static_cast<std::uint64_t>(i);
    row.local_energy = -2.9;
    text += qmc::format_row(row);
  }
  const auto result = qmc::analyze_scalar_text(text);
  EXPECT_TRUE(result.nul_bytes_found);
  EXPECT_GE(result.rows_skipped, 1u);
}

TEST(Qmca, GarbageRowsAreSkipped) {
  std::string text = qmc::scalar_header();
  for (int i = 0; i < 150; ++i) {
    qmc::ScalarRow row;
    row.index = static_cast<std::uint64_t>(i);
    row.local_energy = -2.9;
    text += qmc::format_row(row);
  }
  text += "xxxx not a row\n";
  const auto result = qmc::analyze_scalar_text(text, {.equilibration_rows = 10});
  EXPECT_EQ(result.rows_skipped, 1u);
  EXPECT_EQ(result.rows_used, 140u);
}

TEST(Qmca, TooFewRowsThrows) {
  std::string text = qmc::scalar_header();
  text += qmc::format_row({});
  EXPECT_THROW((void)qmc::analyze_scalar_text(text, {.equilibration_rows = 100}),
               qmc::QmcaError);
}

// --- QmcApp -----------------------------------------------------------------------------

class QmcAppEnergy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QmcAppEnergy, GoldenEnergyInsidePaperWindow) {
  qmc::QmcApp app;
  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = GetParam(), .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  const auto analysis = app.analyze(fs);
  const double energy = analysis.metric("energy");
  // Golden runs must land inside [-2.91, -2.90] for the paper's
  // classification to be meaningful.
  EXPECT_GE(energy, -2.91) << "seed " << GetParam();
  EXPECT_LE(energy, -2.90) << "seed " << GetParam();
  EXPECT_LT(analysis.metric("error_bar"), 0.002);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QmcAppEnergy, ::testing::Values(1u, 7u, 24263u));

TEST(QmcApp, WritesThreeFiles) {
  qmc::QmcApp app;
  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  EXPECT_TRUE(fs.exists("/He.cont.xml"));
  EXPECT_TRUE(fs.exists("/He.s000.scalar.dat"));
  EXPECT_TRUE(fs.exists("/He.s001.scalar.dat"));
}

TEST(QmcApp, TraceIsCachedPerSeed) {
  qmc::QmcApp app;
  const auto t1 = app.trace(1);
  const auto t2 = app.trace(1);
  EXPECT_EQ(t1.get(), t2.get());
  const auto t3 = app.trace(2);
  EXPECT_NE(t1->dmc_mean_energy, t3->dmc_mean_energy);
}

std::uint64_t rows_fingerprint(const std::vector<qmc::ScalarRow>& rows) {
  util::Bytes bytes;
  util::ByteWriter w(bytes);
  for (const auto& row : rows) {
    w.u64(row.index);
    w.f64(row.local_energy);
    w.f64(row.variance);
    w.f64(row.weight);
  }
  return util::fnv1a64(bytes);
}

TEST(QmcApp, TraceIsPinnedBitForBit) {
  // The Monte Carlo trace of the default configuration, frozen: FNV-1a of
  // every row's fields and the bits of the DMC mean.  Caching walker state
  // across steps or sharing distances between the wavefunction terms must
  // not move a single bit.
  struct TracePin {
    std::uint64_t seed, vmc, dmc, mean_bits;
  };
  for (const TracePin& pin : {TracePin{1000, 11199816316398581436ULL, 1544581900522638292ULL,
                                       13837072296760516973ULL},
                              TracePin{42, 3550125095982836026ULL, 2015718376701711322ULL,
                                       13837096759761769827ULL}}) {
    const qmc::QmcApp app;
    const auto t = app.trace(pin.seed);
    EXPECT_EQ(rows_fingerprint(t->vmc_rows), pin.vmc) << "seed " << pin.seed;
    EXPECT_EQ(rows_fingerprint(t->dmc_rows), pin.dmc) << "seed " << pin.seed;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(t->dmc_mean_energy), pin.mean_bits)
        << "seed " << pin.seed;
  }
}

TEST(QmcApp, RunReplaysTheSharedRenderedSeries) {
  qmc::QmcApp app;
  vfs::MemFs fs;
  app.run(core::RunContext{.fs = fs, .app_seed = 3});
  const auto t = app.trace(3);
  const qmc::RenderedSeries& dmc = t->dmc_series.get(t->dmc_rows, app.config().io);
  EXPECT_EQ(&dmc, &t->dmc_series.get(t->dmc_rows, app.config().io));
  EXPECT_EQ(vfs::read_text_file(fs, app.dmc_path()), dmc.text);
  vfs::MemFs reference;
  qmc::write_scalar_file(reference, "/s000", t->vmc_rows, app.config().io);
  EXPECT_EQ(vfs::read_file(fs, app.vmc_path()), vfs::read_file(reference, "/s000"));
}

TEST(QmcApp, ClassifyRules) {
  qmc::QmcApp app;
  core::AnalysisResult golden, faulty;
  faulty.metrics["nul_detected"] = 0.0;
  faulty.metrics["energy"] = -2.905;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Sdc);  // in window
  faulty.metrics["energy"] = -2.92;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Detected);
  faulty.metrics["energy"] = -2.905;
  faulty.metrics["nul_detected"] = 1.0;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Detected);  // NULs flagged
}

// --- diff-driven re-analysis ------------------------------------------------------------

/// A golden QMC tree (small series, so the fuzz stays fast under
/// sanitizers) with its analysis and golden artifacts.  A blemished golden
/// carries a skipped row of its own, which the splice must keep or drop
/// exactly as a full parse does.
struct QmcDirtyFixture {
  explicit QmcDirtyFixture(bool blemished = false) : app(config()) {
    app.run(core::RunContext{.fs = golden_tree, .app_seed = 11});
    if (blemished) {
      vfs::File f(golden_tree, app.dmc_path(), vfs::OpenMode::ReadWrite);
      const std::size_t row = qmc::format_row({}).size();
      f.pwrite(util::byte_view("x"), qmc::scalar_header().size() + 60 * row + 15);  // index
    }
    golden = app.analyze(golden_tree);
    vfs::MemFs scratch = golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    artifacts = app.golden_artifacts(scratch, golden);
    text = vfs::read_text_file(golden_tree, app.dmc_path());
    header_end = text.find('\n');
  }

  static qmc::QmcAppConfig config() {
    qmc::QmcAppConfig c;
    c.vmc.walkers = 32;
    c.vmc.steps = 10;
    c.vmc.warmup_steps = 10;
    c.dmc.target_walkers = 32;
    c.dmc.steps = 300;
    c.dmc.warmup_steps = 10;
    c.qmca.equilibration_rows = 40;
    return c;
  }

  qmc::QmcApp app;
  vfs::MemFs golden_tree;
  core::AnalysisResult golden;
  std::shared_ptr<const core::GoldenArtifacts> artifacts;
  std::string text;  ///< golden s001
  std::size_t header_end = 0;
};

double qmc_reason_of(const core::AnalysisResult& r) {
  const auto it = r.metrics.find(core::kFullAnalysisReasonMetric);
  return it == r.metrics.end() ? 0.0 : it->second;
}

/// analyze_dirty(run) against analyze(run): the same exception, or the same
/// blob, report and metrics bit for bit (the reason metric aside, which must
/// be `reason`).
void expect_dirty_matches_full(const QmcDirtyFixture& fx, vfs::MemFs& run,
                               core::FullAnalysisReason reason, bool expect_reason) {
  const vfs::FsDiff diff = run.diff_tree(fx.golden_tree);
  std::optional<core::AnalysisResult> full, dirty;
  std::string full_error, dirty_error;
  try {
    full = fx.app.analyze(run);
  } catch (const std::exception& e) {
    full_error = e.what();
  }
  try {
    dirty = fx.app.analyze_dirty(run, diff, fx.golden, fx.artifacts.get());
  } catch (const std::exception& e) {
    dirty_error = e.what();
  }
  ASSERT_EQ(dirty_error, full_error);
  ASSERT_EQ(dirty.has_value(), full.has_value());
  if (!full) return;
  EXPECT_EQ(dirty->comparison_blob, full->comparison_blob);
  EXPECT_EQ(dirty->report, full->report);
  EXPECT_EQ(qmc_reason_of(*dirty), expect_reason ? static_cast<double>(reason) : 0.0);
  dirty->metrics.erase(core::kFullAnalysisReasonMetric);
  ASSERT_EQ(dirty->metrics.size(), full->metrics.size());
  for (const auto& [name, value] : full->metrics) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dirty->metrics.at(name)),
              std::bit_cast<std::uint64_t>(value))
        << name;
  }
}

void fuzz_against_full(const QmcDirtyFixture& fx) {
  ASSERT_NE(fx.artifacts, nullptr);
  const std::string path = fx.app.dmc_path();
  const std::size_t size = fx.text.size();
  const std::size_t data_begin = fx.header_end + 1;
  // Rows after the header that feed the equilibration prefix.
  const std::size_t equil_end =
      data_begin + fx.app.config().qmca.equilibration_rows * qmc::format_row({}).size();
  enum Kind { BitFlip, Newline, Nul, Letter, Equilibration, LastNewline, Header, Resize, kKinds };

  std::set<int> kinds_seen;
  std::uint64_t spliced = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    util::Rng rng(seed);
    vfs::MemFs run = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    bool resized = false, header = false;
    {
      vfs::File f(run, path, vfs::OpenMode::ReadWrite);
      const auto put = [&](std::uint64_t offset, std::string_view bytes) {
        f.pwrite(util::byte_view(bytes), offset);
      };
      const auto data_offset = [&] { return data_begin + rng.uniform(size - data_begin); };
      const std::uint64_t edits = 1 + rng.uniform(std::uint64_t{3});
      for (std::uint64_t e = 0; e < edits; ++e) {
        const auto kind = static_cast<Kind>(rng.uniform(std::uint64_t{kKinds}));
        kinds_seen.insert(kind);
        switch (kind) {
          case BitFlip: {
            const std::uint64_t at = data_offset();
            const char c = static_cast<char>(fx.text[at] ^ (1 << rng.uniform(std::uint64_t{8})));
            put(at, std::string_view(&c, 1));
            break;
          }
          case Newline: {  // create a '\n' (a row splits) or destroy one (rows merge)
            const std::uint64_t at = data_offset();
            const std::size_t nl = fx.text.find('\n', at);
            if (rng.bernoulli(0.5) || nl == std::string::npos) {
              put(at, "\n");
            } else {
              put(nl, rng.bernoulli(0.5) ? "7" : " ");
            }
            break;
          }
          case Nul:
            put(data_offset(), std::string(1 + rng.uniform(std::uint64_t{80}), '\0'));
            break;
          case Letter: {  // a digit turned into a letter: the row is skipped
            const std::size_t at = fx.text.find_first_of("0123456789", data_offset());
            if (at != std::string::npos) put(at, "x");
            break;
          }
          case Equilibration:
            put(data_begin + rng.uniform(equil_end - data_begin), rng.bernoulli(0.5) ? "9" : "-");
            break;
          case LastNewline:  // the last row loses its '\n'
            put(size - 1, "5");
            break;
          case Header: {
            const std::uint64_t at = rng.uniform(fx.header_end + 1);
            const char c = static_cast<char>(fx.text[at] ^ (1 << rng.uniform(std::uint64_t{8})));
            put(at, std::string_view(&c, 1));
            header = true;
            break;
          }
          case Resize:
            if (rng.bernoulli(0.5)) {
              f.ftruncate(data_begin + rng.uniform(size - data_begin));
            } else {
              put(size + rng.uniform(std::uint64_t{100}), "1 -2.9 0 0\n");
            }
            resized = true;
            break;
          case kKinds:
            break;
        }
      }
    }
    const vfs::FsDiff diff = run.diff_tree(fx.golden_tree);
    if (diff.empty()) continue;  // the edits happened to restore golden bytes
    const vfs::FileDiff* fd = diff.find(path);
    ASSERT_NE(fd, nullptr);
    resized = fd->size != fd->base_size;
    header = !resized && fd->ranges.front().offset <= fx.header_end;
    const core::FullAnalysisReason reason = resized ? core::FullAnalysisReason::SizeChanged
                                                    : core::FullAnalysisReason::OutsideDataRegion;
    spliced += !resized && !header;
    expect_dirty_matches_full(fx, run, reason, resized || header);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(kinds_seen.size(), static_cast<std::size_t>(kKinds));
  EXPECT_GT(spliced, 300u);
}

TEST(QmcDiffAnalysis, DifferentialFuzzMatchesFullAnalysis) {
  for (const bool blemished : {false, true}) {
    SCOPED_TRACE(blemished ? "blemished golden" : "clean golden");
    const QmcDirtyFixture fx(blemished);
    EXPECT_EQ(fx.golden.metric("rows_skipped"), blemished ? 1.0 : 0.0);
    fuzz_against_full(fx);
    if (HasFailure()) return;
  }
}

TEST(QmcDiffAnalysis, FallbacksNameTheirReason) {
  const QmcDirtyFixture fx;
  const std::string path = fx.app.dmc_path();
  {  // untouched s001: the golden analysis verbatim
    vfs::MemFs run = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    vfs::write_text_file(run, fx.app.vmc_path(), "gone");
    const vfs::FsDiff diff = run.diff_tree(fx.golden_tree);
    const core::AnalysisResult r = fx.app.analyze_dirty(run, diff, fx.golden, fx.artifacts.get());
    EXPECT_EQ(r.comparison_blob, fx.golden.comparison_blob);
    EXPECT_EQ(qmc_reason_of(r), 0.0);
  }
  {  // mode bits
    vfs::MemFs run = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    run.chmod(path, 0600);
    expect_dirty_matches_full(fx, run, core::FullAnalysisReason::MetadataChanged, true);
  }
  {  // a golden series with a NUL byte gets no golden state
    core::AnalysisResult nul_golden = fx.golden;
    nul_golden.comparison_blob[fx.text.size() / 2] = std::byte{0};
    vfs::MemFs scratch = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    EXPECT_EQ(fx.app.golden_artifacts(scratch, nul_golden), nullptr);
  }
  {  // no golden artifacts
    vfs::MemFs run = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    vfs::File(run, path, vfs::OpenMode::ReadWrite).pwrite(util::byte_view("x"), fx.text.size() / 2);
    const core::AnalysisResult r =
        fx.app.analyze_dirty(run, run.diff_tree(fx.golden_tree), fx.golden, nullptr);
    EXPECT_EQ(qmc_reason_of(r),
              static_cast<double>(core::FullAnalysisReason::NoGoldenArtifacts));
  }
}

TEST(QmcDiffAnalysis, GoldenStateIsSharedPerContent) {
  const QmcDirtyFixture fx;
  vfs::MemFs scratch = fx.golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
  EXPECT_EQ(fx.app.golden_artifacts(scratch, fx.golden), fx.artifacts);
  core::AnalysisResult other = fx.golden;
  other.comparison_blob.back() = std::byte{'7'};
  EXPECT_NE(fx.app.golden_artifacts(scratch, other), fx.artifacts);
}

TEST(QmcEngine, FourThreadCellsShareOneRenderedTraceAndMatchTheClassicPath) {
  // QMC cells run by 4 pool threads share one cached trace and its rendered
  // series, and golden state; their tallies must equal the classic path's
  // (full re-execution, full analysis), and most analyzed runs splice.
  const qmc::QmcApp app(QmcDirtyFixture::config());
  constexpr std::uint64_t kRuns = 24;
  const auto make_plan = [&] {
    exp::PlanBuilder builder;
    builder.runs(kRuns).seed(31);
    builder.app(app).faults({"BF", "SHORN_WRITE@pwrite"}).stage(2).product();
    builder.cell(app, "BF", 1);
    builder.cell(app, "BF", -1);
    return builder.build();
  };
  const std::uint64_t app_seed = make_plan().cells().front().app_seed();
  const auto trace = app.trace(app_seed);
  exp::EngineOptions classic;
  classic.threads = 1;
  classic.use_checkpoints = false;
  classic.use_diff_classification = false;
  const auto reference = exp::Engine(classic).run(make_plan());

  exp::EngineOptions options;
  options.threads = 4;
  options.keep_details = true;
  const auto report = exp::Engine(options).run(make_plan());
  ASSERT_EQ(report.cells.size(), reference.cells.size());
  std::uint64_t analyzed = 0, spliced = 0;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const auto& cell = report.cells[i];
    ASSERT_TRUE(cell.error.empty()) << cell.cell.label << ": " << cell.error;
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      EXPECT_EQ(cell.tally.count(static_cast<core::Outcome>(o)),
                reference.cells[i].tally.count(static_cast<core::Outcome>(o)))
          << cell.cell.label << " outcome " << o;
    }
    for (const auto& run : cell.details) {
      if (!run.analysis.has_value()) continue;
      ++analyzed;
      spliced += run.analysis->metrics.count(core::kFullAnalysisReasonMetric) == 0;
    }
  }
  EXPECT_GT(analyzed, kRuns);
  EXPECT_GT(spliced * 2, analyzed);
  EXPECT_EQ(app.trace(app_seed), trace);  // one trace served every run
}

TEST(QmcEngine, ConcurrentFirstRunsRenderEachSeriesOnce) {
  // Four threads race to be the first writer of a fresh trace's series.
  const qmc::QmcApp app(QmcDirtyFixture::config());
  const auto trace = app.trace(5);
  std::vector<vfs::MemFs> trees(4);
  std::vector<std::thread> threads;
  for (auto& fs : trees) {
    threads.emplace_back([&app, &fs] { app.run(core::RunContext{.fs = fs, .app_seed = 5}); });
  }
  for (auto& th : threads) th.join();
  const qmc::RenderedSeries& dmc = trace->dmc_series.get(trace->dmc_rows, app.config().io);
  for (auto& fs : trees) {
    EXPECT_EQ(vfs::read_text_file(fs, app.dmc_path()), dmc.text);
    EXPECT_EQ(vfs::read_file(fs, app.vmc_path()), vfs::read_file(trees.front(), app.vmc_path()));
  }
}


}  // namespace
