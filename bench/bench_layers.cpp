// Format-layer microbenchmarks (google-benchmark): the codecs every
// injection run re-executes, because a run replays the whole application.
//
//   * h5 float arrays at 80^3 (the campaign Nyx grid), host-native binary64
//     and big-endian binary64 (the per-element path);
//   * the Nyx plotfile writer and reader end to end through MemFs;
//   * FITS write/read of one Montage raw tile;
//   * util::to_bytes / util::to_string on 1 MiB;
//   * the QMC DMC series (1500 rows): writing it by replaying the rendered
//     text vs rendering it first, QMCA over the whole file vs the diff-driven
//     splice after one flipped byte, and the VMC + DMC trace itself.
//
// Results go to BENCH_layers.json (google-benchmark JSON) unless the caller
// passes its own --benchmark_out:
//
//   build/bench_layers --benchmark_min_time=0.05
//
// Throughput (bytes/s) is reported per case, so the native and per-element
// paths compare directly.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ffis/apps/montage/fits.hpp"
#include "ffis/apps/montage/scene.hpp"
#include "ffis/apps/nyx/density_field.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/apps/qmc/scalar_io.hpp"
#include "ffis/h5/float_codec.hpp"
#include "ffis/util/bytes.hpp"
#include "ffis/vfs/mem_fs.hpp"

using namespace ffis;

namespace {

constexpr std::size_t kGrid = 80;
constexpr std::size_t kTextBytes = 1 << 20;

/// The 80^3 campaign field, generated once.
const nyx::DensityField& field() {
  static const nyx::DensityField f = [] {
    nyx::FieldConfig config;
    config.n = kGrid;
    return nyx::generate_density_field(config);
  }();
  return f;
}

h5::FloatFormat format_for(std::int64_t big_endian) {
  h5::FloatFormat f{};
  f.big_endian = big_endian != 0;
  return f;
}

void set_bytes(benchmark::State& state, std::size_t bytes_per_iteration) {
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes_per_iteration));
}

// Arg 0: host-native binary64; arg 1: big-endian binary64.
void BM_H5EncodeArray(benchmark::State& state) {
  const h5::FloatFormat format = format_for(state.range(0));
  const std::vector<double>& values = field().data();
  for (auto _ : state) {
    util::Bytes raw = h5::encode_array(values, format);
    benchmark::DoNotOptimize(raw.data());
  }
  set_bytes(state, values.size() * sizeof(double));
}

void BM_H5DecodeArray(benchmark::State& state) {
  const h5::FloatFormat format = format_for(state.range(0));
  const util::Bytes raw = h5::encode_array(field().data(), format);
  for (auto _ : state) {
    std::vector<double> values = h5::decode_array(raw, field().size(), format);
    benchmark::DoNotOptimize(values.data());
  }
  set_bytes(state, raw.size());
}

void BM_NyxWritePlotfile(benchmark::State& state) {
  vfs::MemFs fs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nyx::write_plotfile(fs, "/plt.h5", field()).file_size);
  }
  set_bytes(state, field().size() * sizeof(double));
}

void BM_NyxReadPlotfile(benchmark::State& state) {
  vfs::MemFs fs;
  (void)nyx::write_plotfile(fs, "/plt.h5", field());
  for (auto _ : state) {
    const nyx::DensityField back = nyx::read_plotfile(fs, "/plt.h5");
    benchmark::DoNotOptimize(back.data().data());
  }
  set_bytes(state, field().size() * sizeof(double));
}

/// One raw tile of the campaign Montage scene.
const montage::Image& tile() {
  static const montage::Image t = montage::Scene(montage::SceneConfig{}).make_raw_tile(0);
  return t;
}

void BM_FitsWrite(benchmark::State& state) {
  vfs::MemFs fs;
  for (auto _ : state) montage::write_fits(fs, "/tile.fits", tile());
  set_bytes(state, tile().pixels.size() * sizeof(double));
}

void BM_FitsRead(benchmark::State& state) {
  vfs::MemFs fs;
  montage::write_fits(fs, "/tile.fits", tile());
  for (auto _ : state) {
    const montage::Image back = montage::read_fits(fs, "/tile.fits");
    benchmark::DoNotOptimize(back.pixels.data());
  }
  set_bytes(state, tile().pixels.size() * sizeof(double));
}

void BM_ToBytes(benchmark::State& state) {
  const std::string text(kTextBytes, 'x');
  for (auto _ : state) {
    util::Bytes bytes = util::to_bytes(text);
    benchmark::DoNotOptimize(bytes.data());
  }
  set_bytes(state, kTextBytes);
}

void BM_ToString(benchmark::State& state) {
  const util::Bytes bytes(kTextBytes, std::byte{'x'});
  for (auto _ : state) {
    std::string text = util::to_string(bytes);
    benchmark::DoNotOptimize(text.data());
  }
  set_bytes(state, kTextBytes);
}

constexpr std::uint64_t kQmcSeed = 7;

/// The default QMC app with its trace for kQmcSeed computed once.
const qmc::QmcApp& qmc_app() {
  static const qmc::QmcApp app;
  return app;
}

// Arg 0: replay the cached rendered series (what a run does); arg 1: render
// the rows first (write_scalar_file, the per-run cost before the cache).
void BM_QmcWriteScalarFile(benchmark::State& state) {
  const auto trace = qmc_app().trace(kQmcSeed);
  const qmc::ScalarIoOptions& io = qmc_app().config().io;
  const qmc::RenderedSeries& series = trace->dmc_series.get(trace->dmc_rows, io);
  vfs::MemFs fs;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      qmc::write_rendered_series(fs, "/s001.dat", series);
    } else {
      qmc::write_scalar_file(fs, "/s001.dat", trace->dmc_rows, io);
    }
    benchmark::DoNotOptimize(fs.stat("/s001.dat").size);
  }
  set_bytes(state, series.text.size());
}

/// A golden QMC tree, its analysis and artifacts, and a fork of it with one
/// byte of a mid-series row flipped.
struct QmcDirty {
  QmcDirty() {
    qmc_app().run(core::RunContext{.fs = golden_tree, .app_seed = kQmcSeed});
    golden = qmc_app().analyze(golden_tree);
    vfs::MemFs scratch = golden_tree.fork(vfs::MemFs::Concurrency::SingleThread);
    artifacts = qmc_app().golden_artifacts(scratch, golden);
    run = golden_tree.fork_unique(vfs::MemFs::Concurrency::SingleThread);
    const std::string path = qmc_app().dmc_path();
    const std::size_t size = run->stat(path).size;
    vfs::File(*run, path, vfs::OpenMode::ReadWrite).pwrite(util::byte_view("x"), size / 2);
    diff = run->diff_tree(golden_tree);
  }
  vfs::MemFs golden_tree;
  core::AnalysisResult golden;
  std::shared_ptr<const core::GoldenArtifacts> artifacts;
  std::unique_ptr<vfs::MemFs> run;
  vfs::FsDiff diff;
};

const QmcDirty& qmc_dirty() {
  static const QmcDirty d;
  return d;
}

void BM_QmcAnalyzeFull(benchmark::State& state) {
  const QmcDirty& d = qmc_dirty();
  for (auto _ : state) {
    const core::AnalysisResult r = qmc_app().analyze(*d.run);
    benchmark::DoNotOptimize(r.comparison_blob.data());
  }
  set_bytes(state, d.golden.comparison_blob.size());
}

void BM_QmcAnalyzeDirty(benchmark::State& state) {
  const QmcDirty& d = qmc_dirty();
  for (auto _ : state) {
    const core::AnalysisResult r =
        qmc_app().analyze_dirty(*d.run, d.diff, d.golden, d.artifacts.get());
    benchmark::DoNotOptimize(r.comparison_blob.data());
  }
  set_bytes(state, d.golden.comparison_blob.size());
}

/// The VMC + DMC simulation of one golden run (a fresh app per iteration, so
/// nothing is cached).
void BM_QmcTrace(benchmark::State& state) {
  for (auto _ : state) {
    const qmc::QmcApp app;
    benchmark::DoNotOptimize(app.trace(kQmcSeed)->dmc_mean_energy);
  }
}

}  // namespace

BENCHMARK(BM_H5EncodeArray)->ArgName("big_endian")->Arg(0)->Arg(1);
BENCHMARK(BM_H5DecodeArray)->ArgName("big_endian")->Arg(0)->Arg(1);
BENCHMARK(BM_NyxWritePlotfile);
BENCHMARK(BM_NyxReadPlotfile);
BENCHMARK(BM_FitsWrite);
BENCHMARK(BM_FitsRead);
BENCHMARK(BM_ToBytes);
BENCHMARK(BM_ToString);
BENCHMARK(BM_QmcWriteScalarFile)->ArgName("render")->Arg(0)->Arg(1);
BENCHMARK(BM_QmcAnalyzeFull);
BENCHMARK(BM_QmcAnalyzeDirty);
BENCHMARK(BM_QmcTrace)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_layers.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    has_out = has_out || std::string_view(argv[i]).starts_with("--benchmark_out=");
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
