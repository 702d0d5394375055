// Format-layer microbenchmarks (google-benchmark): the codecs every
// injection run re-executes, because a run replays the whole application.
//
//   * h5 float arrays at 80^3 (the campaign Nyx grid), host-native binary64
//     and big-endian binary64 (the per-element path);
//   * the Nyx plotfile writer and reader end to end through MemFs;
//   * FITS write/read of one Montage raw tile;
//   * util::to_bytes / util::to_string on 1 MiB.
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
#include <string>
#include <string_view>
#include <vector>

#include "ffis/apps/montage/fits.hpp"
#include "ffis/apps/montage/scene.hpp"
#include "ffis/apps/nyx/density_field.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
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

}  // namespace

BENCHMARK(BM_H5EncodeArray)->ArgName("big_endian")->Arg(0)->Arg(1);
BENCHMARK(BM_H5DecodeArray)->ArgName("big_endian")->Arg(0)->Arg(1);
BENCHMARK(BM_NyxWritePlotfile);
BENCHMARK(BM_NyxReadPlotfile);
BENCHMARK(BM_FitsWrite);
BENCHMARK(BM_FitsRead);
BENCHMARK(BM_ToBytes);
BENCHMARK(BM_ToString);

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
