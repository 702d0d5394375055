#pragma once
// Bounds-checked binary (de)serialization primitives shared by the snapshot
// codec (vfs::SnapshotCodec), the persistent checkpoint store
// (core::CheckpointStore) and the applications' serialize_state hooks.
//
// Everything is little-endian and fixed-width, so blobs written on one
// machine parse identically on another; doubles round-trip bit-exactly
// (encoded as their IEEE-754 bit pattern), which the store's bit-identical
// warm-start guarantee depends on.  ByteReader throws std::out_of_range on
// any read past the end of the input — truncated or corrupt blobs surface
// as exceptions, never as silent garbage.

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ffis/util/bytes.hpp"

namespace ffis::util {

/// 64-bit FNV-1a over `data`, continuing from `seed` (chain calls to hash a
/// logical stream in pieces).  Used for content addressing and whole-file
/// checksums; not cryptographic.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    ByteSpan data, std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Appends fixed-width little-endian records to a util::Bytes buffer.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { put_le(out_, v, 1); }
  void u32(std::uint32_t v) { put_le(out_, v, 4); }
  void u64(std::uint64_t v) { put_le(out_, v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  /// Bit-exact: the IEEE-754 pattern, not a decimal rendering.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// Length-prefixed (u64) string.
  void str(std::string_view s) {
    u64(s.size());
    put_bytes(out_, byte_view(s));
  }
  /// Length-prefixed (u64) byte blob.
  void blob(ByteSpan b) {
    u64(b.size());
    put_bytes(out_, b);
  }
  /// Raw bytes, no length prefix (the reader must know the size).
  void raw(ByteSpan b) { put_bytes(out_, b); }

  [[nodiscard]] Bytes& out() noexcept { return out_; }

 private:
  Bytes& out_;
};

/// Sequential reader over a ByteSpan; every accessor throws
/// std::out_of_range("truncated input: ...") past the end.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan in) : in_(in) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(take(1, "u8")); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(take(4, "u32")); }
  [[nodiscard]] std::uint64_t u64() { return take(8, "u64"); }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  /// A u64 that the encoder promised stays <= `max` (element counts, run
  /// indices, enum values).  The decode side of a network boundary must not
  /// trust such fields: a forged count would otherwise size a loop or a
  /// container before any per-element bounds check runs.  Throws
  /// std::out_of_range when the value exceeds `max`.
  [[nodiscard]] std::uint64_t u64_bounded(std::uint64_t max, const char* what) {
    const std::uint64_t v = u64();
    if (v > max) {
      throw std::out_of_range(std::string("malformed input: ") + what + " value " +
                              std::to_string(v) + " exceeds the limit " +
                              std::to_string(max));
    }
    return v;
  }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] std::string str() {
    const ByteSpan b = span(checked_size(u64(), "string"), "string");
    return to_string(b);
  }
  /// Length-prefixed string whose length the encoder bounded by `max` — use
  /// on network boundaries so a forged prefix cannot demand a giant string
  /// even when the surrounding frame happens to be large enough to cover it.
  [[nodiscard]] std::string str_bounded(std::size_t max, const char* what) {
    const std::uint64_t n = u64_bounded(max, what);
    const ByteSpan b = span(checked_size(n, what), what);
    return to_string(b);
  }
  [[nodiscard]] Bytes blob() {
    const ByteSpan b = span(checked_size(u64(), "blob"), "blob");
    return Bytes(b.begin(), b.end());
  }
  /// A view into the input (no copy); valid as long as the input is.
  [[nodiscard]] ByteSpan view(std::size_t n) { return span(n, "view"); }

  [[nodiscard]] std::size_t remaining() const noexcept { return in_.size() - pos_; }
  /// Throws unless the whole input has been consumed (trailing garbage is
  /// as suspicious as truncation).
  void expect_end() const {
    if (pos_ != in_.size()) {
      throw std::out_of_range("trailing bytes after the last record (" +
                              std::to_string(in_.size() - pos_) + " unread)");
    }
  }

 private:
  // NB: length prefixes are compared against remaining() as full u64 values
  // BEFORE any cast to std::size_t, so a prefix like 2^64-1 can never wrap
  // on a 32-bit size_t and sneak past the bounds check.
  [[nodiscard]] std::size_t checked_size(std::uint64_t n, const char* what) const {
    if (n > remaining()) {
      throw std::out_of_range(std::string("truncated input: ") + what + " length " +
                              std::to_string(n) + " exceeds the " +
                              std::to_string(remaining()) + " bytes left");
    }
    return static_cast<std::size_t>(n);
  }
  [[nodiscard]] ByteSpan span(std::size_t n, const char* what) {
    if (n > remaining()) {
      throw std::out_of_range(std::string("truncated input: reading ") + what);
    }
    const ByteSpan out = in_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  [[nodiscard]] std::uint64_t take(std::size_t width, const char* what) {
    if (width > remaining()) {
      throw std::out_of_range(std::string("truncated input: reading ") + what);
    }
    const std::uint64_t v = get_le(in_, pos_, width);
    pos_ += width;
    return v;
  }

  ByteSpan in_;
  std::size_t pos_ = 0;
};

}  // namespace ffis::util
