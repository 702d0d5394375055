// Unit tests for the mini-QMCPACK application: wavefunction analytics (vs
// numerical derivatives), VMC/DMC physics, scalar I/O and QMCA parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>

#include "ffis/apps/qmc/dmc.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/apps/qmc/qmca.hpp"
#include "ffis/apps/qmc/scalar_io.hpp"
#include "ffis/apps/qmc/vmc.hpp"
#include "ffis/apps/qmc/wavefunction.hpp"
#include "ffis/vfs/counting_fs.hpp"
#include "ffis/vfs/mem_fs.hpp"

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

}  // namespace
