// Golden pin: the bytes and the I/O calls of each mini-app's fault-free run
// are frozen.  The format codecs (h5 float arrays, FITS pixels and headers,
// text files) may change how they produce bytes, never which bytes they
// write or which pwrite/pread calls carry them: the injector's instance
// space is the dynamic pwrite/pread count, so a codec that merged or split a
// call would silently re-map every campaign seed.
//
// Each case runs the application once through a CountingFs, analyzes it
// there, and compares the per-primitive counts and byte totals, the FNV-1a
// of every output file, and the FNV-1a of the analysis and the app-state
// blob with constants captured from the byte-at-a-time codecs.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/vfs/counting_fs.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace {

using namespace ffis;

constexpr std::uint64_t kAppSeed = 7;

struct Pin {
  std::uint64_t pwrite_calls = 0;
  std::uint64_t pread_calls = 0;
  std::uint64_t open_calls = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t analysis_hash = 0;  ///< fnv1a64 of the comparison blob
  std::uint64_t state_hash = 0;     ///< fnv1a64 of serialize_state()
  std::map<std::string, std::uint64_t> files;  ///< path -> fnv1a64(content)
};

void hash_tree(vfs::FileSystem& fs, const std::string& dir,
               std::map<std::string, std::uint64_t>& out) {
  for (const auto& name : fs.readdir(dir)) {
    const std::string path = dir == "/" ? "/" + name : dir + "/" + name;
    if (fs.stat(path).is_dir) {
      hash_tree(fs, path, out);
    } else {
      out[path] = util::fnv1a64(vfs::read_file(fs, path));
    }
  }
}

Pin observe(const core::Application& app) {
  vfs::MemFs backing;
  vfs::CountingFs counting(backing);
  const core::RunContext ctx{.fs = counting, .app_seed = kAppSeed};
  app.run(ctx);
  const core::AnalysisResult analysis = app.analyze(counting);

  Pin pin;
  pin.pwrite_calls = counting.count(vfs::Primitive::Pwrite);
  pin.pread_calls = counting.count(vfs::Primitive::Pread);
  pin.open_calls = counting.count(vfs::Primitive::Open);
  pin.bytes_written = counting.bytes_written();
  pin.bytes_read = counting.bytes_read();
  pin.analysis_hash = util::fnv1a64(analysis.comparison_blob);
  pin.state_hash = util::fnv1a64(app.serialize_state(kAppSeed));
  hash_tree(backing, "/", pin.files);
  return pin;
}

/// Prints the observed pin as a C++ initializer, so a deliberate format
/// change can re-capture the constants in one step.
std::string render(const Pin& p) {
  std::string out = "{" + std::to_string(p.pwrite_calls) + ", " +
                    std::to_string(p.pread_calls) + ", " + std::to_string(p.open_calls) +
                    ", " + std::to_string(p.bytes_written) + ", " +
                    std::to_string(p.bytes_read) + ", " +
                    std::to_string(p.analysis_hash) + "ULL, " +
                    std::to_string(p.state_hash) + "ULL, {\n";
  for (const auto& [path, hash] : p.files) {
    out += "    {\"" + path + "\", " + std::to_string(hash) + "ULL},\n";
  }
  return out + "}}";
}

void expect_pinned(const core::Application& app, const Pin& want) {
  const Pin got = observe(app);
  SCOPED_TRACE("observed: " + render(got));
  EXPECT_EQ(got.pwrite_calls, want.pwrite_calls);
  EXPECT_EQ(got.pread_calls, want.pread_calls);
  EXPECT_EQ(got.open_calls, want.open_calls);
  EXPECT_EQ(got.bytes_written, want.bytes_written);
  EXPECT_EQ(got.bytes_read, want.bytes_read);
  EXPECT_EQ(got.analysis_hash, want.analysis_hash);
  EXPECT_EQ(got.state_hash, want.state_hash);
  EXPECT_EQ(got.files, want.files);
}

TEST(GoldenPin, MontageFilesAndIoCallsAreFrozen) {
  const montage::MontageApp app;
  expect_pinned(app, Pin{.pwrite_calls = 280,
                         .pread_calls = 97,
                         .open_calls = 97,
                         .bytes_written = 1678808,
                         .bytes_read = 2105048,
                         .analysis_hash = 3863449908159746242ULL,
                         .state_hash = 584938600575390167ULL,
                         .files = {
                             {"/corr/area_0.fits", 13369869995206140436ULL},
                             {"/corr/area_1.fits", 9653444525926118800ULL},
                             {"/corr/area_2.fits", 15351131702935132965ULL},
                             {"/corr/area_3.fits", 17760280502875788925ULL},
                             {"/corr/area_4.fits", 13287492795208119709ULL},
                             {"/corr/area_5.fits", 17501359032777793095ULL},
                             {"/corr/area_6.fits", 4945761335351520011ULL},
                             {"/corr/area_7.fits", 8351123521462656198ULL},
                             {"/corr/area_8.fits", 17509343401508318494ULL},
                             {"/corr/area_9.fits", 6603395380710358078ULL},
                             {"/corr/img_0.fits", 2850550111057996404ULL},
                             {"/corr/img_1.fits", 8289266541206653970ULL},
                             {"/corr/img_2.fits", 18270799634559020806ULL},
                             {"/corr/img_3.fits", 17065458435371207274ULL},
                             {"/corr/img_4.fits", 8025652561280516756ULL},
                             {"/corr/img_5.fits", 14300251552201441324ULL},
                             {"/corr/img_6.fits", 9919879927894270178ULL},
                             {"/corr/img_7.fits", 4573626066124876522ULL},
                             {"/corr/img_8.fits", 995999664609407513ULL},
                             {"/corr/img_9.fits", 12387650567442184528ULL},
                             {"/diff/diff_0_1.fits", 11715891113713686141ULL},
                             {"/diff/diff_0_5.fits", 1397734837176558062ULL},
                             {"/diff/diff_1_2.fits", 7143967686352197983ULL},
                             {"/diff/diff_1_6.fits", 1761237873057601902ULL},
                             {"/diff/diff_2_3.fits", 6164080028499113840ULL},
                             {"/diff/diff_2_7.fits", 17850479899124886894ULL},
                             {"/diff/diff_3_4.fits", 4523024574126911818ULL},
                             {"/diff/diff_3_8.fits", 5272587476020258723ULL},
                             {"/diff/diff_4_9.fits", 5065984486155025773ULL},
                             {"/diff/diff_5_6.fits", 810690410207244210ULL},
                             {"/diff/diff_6_7.fits", 10051561122574025513ULL},
                             {"/diff/diff_7_8.fits", 16461725302486268859ULL},
                             {"/diff/diff_8_9.fits", 11363525931395818277ULL},
                             {"/diff/fits.tbl", 1478479768634954780ULL},
                             {"/mosaic/m101_mosaic.pgm", 3863449908159746242ULL},
                             {"/mosaic/mosaic.fits", 5870941315272357194ULL},
                             {"/mosaic/mosaic_area.fits", 8408646752967718048ULL},
                             {"/mosaic/mosaic_uncorrected.fits", 483681825213071215ULL},
                             {"/mosaic/stats.txt", 13910682481968837109ULL},
                             {"/proj/area_0.fits", 13369869995206140436ULL},
                             {"/proj/area_1.fits", 9653444525926118800ULL},
                             {"/proj/area_2.fits", 15351131702935132965ULL},
                             {"/proj/area_3.fits", 17760280502875788925ULL},
                             {"/proj/area_4.fits", 13287492795208119709ULL},
                             {"/proj/area_5.fits", 17501359032777793095ULL},
                             {"/proj/area_6.fits", 4945761335351520011ULL},
                             {"/proj/area_7.fits", 8351123521462656198ULL},
                             {"/proj/area_8.fits", 17509343401508318494ULL},
                             {"/proj/area_9.fits", 6603395380710358078ULL},
                             {"/proj/img_0.fits", 2850550111057996404ULL},
                             {"/proj/img_1.fits", 15277272466658693902ULL},
                             {"/proj/img_2.fits", 18324066444549729245ULL},
                             {"/proj/img_3.fits", 8391690709894193763ULL},
                             {"/proj/img_4.fits", 3317582772231891351ULL},
                             {"/proj/img_5.fits", 12598883876474447704ULL},
                             {"/proj/img_6.fits", 2794969200383283908ULL},
                             {"/proj/img_7.fits", 16736287671968518757ULL},
                             {"/proj/img_8.fits", 8819569352806686282ULL},
                             {"/proj/img_9.fits", 4053554769490152113ULL},
                             {"/raw/tile_0.fits", 10615003227931509543ULL},
                             {"/raw/tile_1.fits", 15588350563076661398ULL},
                             {"/raw/tile_2.fits", 1906122309457891789ULL},
                             {"/raw/tile_3.fits", 13588288265324737587ULL},
                             {"/raw/tile_4.fits", 971796633628753207ULL},
                             {"/raw/tile_5.fits", 1916703518779091472ULL},
                             {"/raw/tile_6.fits", 10416534162230625694ULL},
                             {"/raw/tile_7.fits", 8013248619368229533ULL},
                             {"/raw/tile_8.fits", 3380606468121643446ULL},
                             {"/raw/tile_9.fits", 1296958279284212627ULL},
                         }});
}

TEST(GoldenPin, NyxFilesAndIoCallsAreFrozen) {
  nyx::NyxConfig config;
  config.field.n = 32;
  config.timesteps = 3;  // stage 1 writes the plotfile, 2..3 rewrite slabs
  const nyx::NyxApp app(config);
  expect_pinned(app, Pin{.pwrite_calls = 20,
                         .pread_calls = 1,
                         .open_calls = 1,
                         .bytes_written = 280960,
                         .bytes_read = 264568,
                         .analysis_hash = 15663056152731186094ULL,
                         .state_hash = 16765237507020865618ULL,
                         .files = {
                             {"/plt00000.h5", 9239462276022232001ULL},
                         }});
}

TEST(GoldenPin, QmcFilesAndIoCallsAreFrozen) {
  const qmc::QmcApp app;
  expect_pinned(app, Pin{.pwrite_calls = 40,
                         .pread_calls = 1,
                         .open_calls = 1,
                         .bytes_written = 149826,
                         .bytes_read = 97565,
                         .analysis_hash = 4009048332936624248ULL,
                         .state_hash = 8775930907937814826ULL,
                         .files = {
                             {"/He.cont.xml", 9391616854803077299ULL},
                             {"/He.s000.scalar.dat", 1301041745991981430ULL},
                             {"/He.s001.scalar.dat", 4009048332936624248ULL},
                         }});
}

}  // namespace
