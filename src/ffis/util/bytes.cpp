#include "ffis/util/bytes.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <stdexcept>

namespace ffis::util {

void put_le(Bytes& out, std::uint64_t value, std::size_t width) {
  if (width == 0 || width > 8) throw std::invalid_argument("put_le: width must be 1..8");
  for (std::size_t i = 0; i < width; ++i) {
    out.push_back(static_cast<std::byte>((value >> (8 * i)) & 0xff));
  }
}

void put_le_at(MutableByteSpan buf, std::size_t offset, std::uint64_t value,
               std::size_t width) {
  if (width == 0 || width > 8) throw std::invalid_argument("put_le_at: width must be 1..8");
  if (offset + width > buf.size()) throw std::out_of_range("put_le_at: write past end of buffer");
  for (std::size_t i = 0; i < width; ++i) {
    buf[offset + i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  }
}

std::uint64_t get_le(ByteSpan buf, std::size_t offset, std::size_t width) {
  if (width == 0 || width > 8) throw std::invalid_argument("get_le: width must be 1..8");
  if (offset + width > buf.size()) throw std::out_of_range("get_le: read past end of buffer");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(buf[offset + i])) << (8 * i);
  }
  return value;
}

void put_bytes(Bytes& out, ByteSpan data) {
  out.insert(out.end(), data.begin(), data.end());
}

void put_signature(Bytes& out, std::string_view sig) { put_bytes(out, byte_view(sig)); }

void flip_bits(MutableByteSpan buf, std::size_t bit_offset, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t bit = bit_offset + i;
    const std::size_t byte = bit / 8;
    if (byte >= buf.size()) return;
    buf[byte] ^= static_cast<std::byte>(1u << (bit % 8));
  }
}

bool test_bit(ByteSpan buf, std::size_t bit_offset) {
  const std::size_t byte = bit_offset / 8;
  if (byte >= buf.size()) throw std::out_of_range("test_bit: past end of buffer");
  return (std::to_integer<std::uint8_t>(buf[byte]) >> (bit_offset % 8)) & 1u;
}

std::uint64_t extract_bits(ByteSpan buf, std::size_t bit_offset, std::size_t nbits) {
  if (nbits > 64) throw std::invalid_argument("extract_bits: nbits must be <= 64");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < nbits; ++i) {
    if (test_bit(buf, bit_offset + i)) value |= (1ULL << i);
  }
  return value;
}

void deposit_bits(MutableByteSpan buf, std::size_t bit_offset, std::size_t nbits,
                  std::uint64_t value) {
  if (nbits > 64) throw std::invalid_argument("deposit_bits: nbits must be <= 64");
  for (std::size_t i = 0; i < nbits; ++i) {
    const std::size_t bit = bit_offset + i;
    const std::size_t byte = bit / 8;
    if (byte >= buf.size()) throw std::out_of_range("deposit_bits: past end of buffer");
    const auto mask = static_cast<std::byte>(1u << (bit % 8));
    if ((value >> i) & 1u) {
      buf[byte] |= mask;
    } else {
      buf[byte] &= ~mask;
    }
  }
}

std::string hexdump(ByteSpan buf, std::size_t max_bytes) {
  std::string out;
  const std::size_t n = std::min(buf.size(), max_bytes);
  char line[128];
  for (std::size_t base = 0; base < n; base += 16) {
    int pos = std::snprintf(line, sizeof line, "%08zx  ", base);
    for (std::size_t i = 0; i < 16; ++i) {
      if (base + i < n) {
        pos += std::snprintf(line + pos, sizeof line - pos, "%02x ",
                             std::to_integer<unsigned>(buf[base + i]));
      } else {
        pos += std::snprintf(line + pos, sizeof line - pos, "   ");
      }
      if (i == 7) pos += std::snprintf(line + pos, sizeof line - pos, " ");
    }
    pos += std::snprintf(line + pos, sizeof line - pos, " |");
    for (std::size_t i = 0; i < 16 && base + i < n; ++i) {
      const auto c = std::to_integer<unsigned char>(buf[base + i]);
      pos += std::snprintf(line + pos, sizeof line - pos, "%c",
                           std::isprint(c) ? static_cast<char>(c) : '.');
    }
    std::snprintf(line + pos, sizeof line - pos, "|");
    out += line;
    out += '\n';
  }
  if (buf.size() > max_bytes) out += "... (" + std::to_string(buf.size() - max_bytes) + " more bytes)\n";
  return out;
}

std::size_t count_diff_bytes(ByteSpan a, ByteSpan b) noexcept {
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t diff = 0;
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) ++diff;
  }
  return diff + (std::max(a.size(), b.size()) - common);
}

Bytes to_bytes(std::string_view s) {
  const ByteSpan view = byte_view(s);
  return Bytes(view.begin(), view.end());
}

std::string to_string(ByteSpan b) { return std::string(char_view(b)); }

}  // namespace ffis::util
