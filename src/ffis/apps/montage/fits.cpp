#include "ffis/apps/montage/fits.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "ffis/util/bytes.hpp"

namespace ffis::montage {

namespace {

constexpr std::size_t kBlockSize = 2880;
constexpr std::size_t kCardSize = 80;

std::string card(const std::string& key, const std::string& value) {
  char buf[kCardSize + 1];
  std::snprintf(buf, sizeof buf, "%-8.8s= %20.20s%50s", key.c_str(), value.c_str(), "");
  return std::string(buf, kCardSize);
}

std::string pad_block(std::string s) {
  const std::size_t rem = s.size() % kBlockSize;
  if (rem != 0) s.append(kBlockSize - rem, ' ');
  return s;
}

double parse_numeric_card(std::string_view header, std::string_view key) {
  // Cards are fixed-position: KEYWORD(8) '= ' VALUE(20).
  for (std::size_t pos = 0; pos + kCardSize <= header.size(); pos += kCardSize) {
    const std::string_view keyword = header.substr(pos, 8);
    if (keyword.starts_with(key) && (key.size() == 8 || keyword[key.size()] == ' ')) {
      // strtod needs a terminator; the value field is copied whole, so an
      // embedded NUL ends it exactly where it ended a per-card string.
      char value[21];
      header.copy(value, 20, pos + 10);
      value[20] = '\0';
      char* end = nullptr;
      const double parsed = std::strtod(value, &end);
      if (end == value) throw FitsError("unparsable value for card " + std::string(key));
      return parsed;
    }
  }
  throw FitsError("missing mandatory card: " + std::string(key));
}

/// Host word <-> big-endian word (the FITS byte order): a byte swap on
/// little-endian hosts, the identity on big-endian ones.
std::uint64_t big_endian_word(std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::big) return v;
  v = ((v & 0x00ff00ff00ff00ffULL) << 8) | ((v >> 8) & 0x00ff00ff00ff00ffULL);
  v = ((v & 0x0000ffff0000ffffULL) << 16) | ((v >> 16) & 0x0000ffff0000ffffULL);
  return (v << 32) | (v >> 32);
}

}  // namespace

void write_fits(vfs::FileSystem& fs, const std::string& path, const Image& image,
                const FitsIoOptions& options) {
  char num[32];
  std::string header;
  header += card("SIMPLE", "T");
  header += card("BITPIX", "-64");
  header += card("NAXIS", "2");
  header += card("NAXIS1", std::to_string(image.width));
  header += card("NAXIS2", std::to_string(image.height));
  std::snprintf(num, sizeof num, "%.6f", image.x0);
  header += card("CRVAL1", num);
  std::snprintf(num, sizeof num, "%.6f", image.y0);
  header += card("CRVAL2", num);
  header += card("BUNIT", "'DN'");
  header += card("ORIGIN", "'FFIS-MONTAGE'");
  {
    char end_card[kCardSize + 1];
    std::snprintf(end_card, sizeof end_card, "%-80s", "END");
    header += std::string(end_card, kCardSize);
  }
  header = pad_block(std::move(header));

  // Big-endian binary64 pixels, padded to a block multiple with zeros.
  const std::size_t pixel_bytes = image.pixels.size() * 8;
  util::Bytes data((pixel_bytes + kBlockSize - 1) / kBlockSize * kBlockSize);
  for (std::size_t i = 0; i < image.pixels.size(); ++i) {
    const std::uint64_t word = big_endian_word(std::bit_cast<std::uint64_t>(image.pixels[i]));
    std::memcpy(data.data() + i * 8, &word, 8);
  }

  vfs::File out(fs, path, vfs::OpenMode::Write);
  const std::uint64_t offset = out.pwrite(util::byte_view(header), 0);
  if (!vfs::pwrite_all(out, data, offset, options.data_chunk_bytes)) {
    throw FitsError("short write to " + path);
  }
}

Image read_fits(vfs::FileSystem& fs, const std::string& path) {
  const util::Bytes raw = vfs::read_file(fs, path);
  if (raw.size() < kBlockSize) throw FitsError("file too small for a FITS header: " + path);
  const std::string_view header = util::char_view(util::ByteSpan(raw).first(kBlockSize));

  if (header.substr(0, 8) != "SIMPLE  " || header.find('T', 10) >= 30) {
    throw FitsError("not a FITS file (SIMPLE card missing): " + path);
  }
  const auto bitpix = static_cast<int>(parse_numeric_card(header, "BITPIX"));
  if (bitpix != -64) throw FitsError("unsupported BITPIX: " + std::to_string(bitpix));
  const auto naxis = static_cast<int>(parse_numeric_card(header, "NAXIS"));
  if (naxis != 2) throw FitsError("unsupported NAXIS: " + std::to_string(naxis));
  const auto w = static_cast<long long>(parse_numeric_card(header, "NAXIS1"));
  const auto h = static_cast<long long>(parse_numeric_card(header, "NAXIS2"));
  if (w <= 0 || h <= 0 || w > 65536 || h > 65536) {
    throw FitsError("implausible image dimensions " + std::to_string(w) + "x" +
                    std::to_string(h));
  }

  Image image(static_cast<std::size_t>(w), static_cast<std::size_t>(h),
              parse_numeric_card(header, "CRVAL1"), parse_numeric_card(header, "CRVAL2"));
  const std::size_t need = image.pixels.size() * 8;
  if (raw.size() < kBlockSize + need) {
    throw FitsError("FITS data segment truncated: " + path);
  }
  for (std::size_t i = 0; i < image.pixels.size(); ++i) {
    std::uint64_t word = 0;
    std::memcpy(&word, raw.data() + kBlockSize + i * 8, 8);
    image.pixels[i] = std::bit_cast<double>(big_endian_word(word));
  }
  return image;
}

}  // namespace ffis::montage
