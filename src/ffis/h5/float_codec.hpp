#pragma once
// Generic floating-point codec driven by the HDF5 datatype message.
//
// Every element is decoded *through* the FloatFormat read from the file's
// datatype message (sign location,
// exponent location/size/bias, mantissa location/size, normalization mode).
// This is the property that makes metadata faults reproduce the paper's SDC
// phenomenology — a corrupted Exponent Bias genuinely rescales all values by
// a power of two, a corrupted Mantissa Size genuinely re-partitions the bit
// fields, a flipped normalization bit genuinely changes the implied-MSB rule.
//
// Decoding is deliberately *permissive* for the paper's SDC-capable fields
// (locations/sizes are clamped to the element width instead of rejected),
// matching the observation that the HDF5 library accepts these values and
// silently produces wrong data.  Structurally impossible values (reserved
// normalization mode 3, zero-size datatype) throw, producing crashes.
//
// The array codecs validate the format once per array.  When the format is
// exactly the host's own double layout (is_host_native), the bit-exact
// per-element path is a bit_cast, so the whole array moves with one memcpy;
// any corrupted datatype field leaves that fast path and goes through the
// per-element decoder.  Either way the bytes are identical to encoding or
// decoding element by element.

#include <cstdint>
#include <span>
#include <vector>

#include "ffis/h5/format.hpp"
#include "ffis/util/bytes.hpp"

namespace ffis::h5 {

/// Decodes one raw element (little-endian bit numbering within the
/// `format.size_bytes * 8`-bit word) to a double.
[[nodiscard]] double decode_element(std::uint64_t raw, const FloatFormat& format);

/// Encodes a double into the raw bit pattern for `format`.  Exact for IEEE
/// binary64; best-effort (round-to-nearest mantissa truncation, clamped
/// exponent) for other formats.
[[nodiscard]] std::uint64_t encode_element(double value, const FloatFormat& format);

/// True when `format` is IEEE binary64 little-endian and the host stores
/// doubles that way: an encoded array is then the values' own bytes.
[[nodiscard]] bool is_host_native(const FloatFormat& format) noexcept;

/// Decodes `count` elements from `raw` (size_bytes stride, honouring
/// format.big_endian).  Throws H5BoundsError when raw is too short.
[[nodiscard]] std::vector<double> decode_array(util::ByteSpan raw, std::uint64_t count,
                                               const FloatFormat& format);

/// Encodes values into a byte buffer (size_bytes stride).
[[nodiscard]] util::Bytes encode_array(std::span<const double> values,
                                       const FloatFormat& format);

/// The encoded bytes of `values` without a copy where possible: a view of
/// the values' own memory for a host-native format, otherwise `scratch`
/// filled by encode_array.  The view lives as long as `values` and
/// `scratch`.
[[nodiscard]] util::ByteSpan encoded_view(std::span<const double> values,
                                          const FloatFormat& format, util::Bytes& scratch);

}  // namespace ffis::h5
