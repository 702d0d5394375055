#include "ffis/h5/float_codec.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace ffis::h5 {

namespace {

/// Extracts `nbits` at `pos` from a word of `width` bits, clamping the field
/// to the word (permissive handling of corrupted location/size fields).
std::uint64_t field(std::uint64_t raw, unsigned pos, unsigned nbits, unsigned width) {
  if (pos >= width || nbits == 0) return 0;
  nbits = std::min(nbits, width - pos);
  const std::uint64_t mask = (nbits >= 64) ? ~0ULL : ((1ULL << nbits) - 1);
  return (raw >> pos) & mask;
}

void validate(const FloatFormat& f) {
  if (f.size_bytes == 0 || f.size_bytes > 8) {
    throw H5FormatError("datatype size not supported: " +
                        std::to_string(f.size_bytes) + " bytes");
  }
  const auto norm = static_cast<std::uint8_t>(f.normalization);
  if (norm > 2) {
    throw H5FormatError("reserved mantissa normalization mode: " + std::to_string(norm));
  }
  if (f.exponent_size == 0 || f.exponent_size > 63) {
    throw H5FormatError("exponent size not supported: " + std::to_string(f.exponent_size));
  }
}

double decode_validated(std::uint64_t raw, const FloatFormat& f) {
  const unsigned width = f.size_bytes * 8;

  // Fast path: bit-exact for the canonical type (also covers inf/nan/subnormal).
  if (f.is_ieee_binary64()) return std::bit_cast<double>(raw);

  const unsigned exp_nbits = (f.exponent_location >= width)
                                 ? 0
                                 : std::min<unsigned>(f.exponent_size, width - f.exponent_location);
  const std::uint64_t exp_field = field(raw, f.exponent_location, f.exponent_size, width);
  const std::uint64_t man_field = field(raw, f.mantissa_location, f.mantissa_size, width);
  const unsigned man_nbits =
      (f.mantissa_location >= width)
          ? 0
          : std::min<unsigned>(f.mantissa_size, width - f.mantissa_location);
  const bool negative = f.sign_location < width && ((raw >> f.sign_location) & 1u);

  const std::uint64_t exp_max = (exp_nbits == 0) ? 0 : ((1ULL << exp_nbits) - 1);
  const auto bias = static_cast<std::int64_t>(f.exponent_bias);

  double magnitude;
  if (exp_nbits > 0 && exp_field == exp_max && exp_max > 1) {
    // All-ones exponent: infinity (zero mantissa) or NaN.
    magnitude = (man_field == 0) ? std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::quiet_NaN();
  } else if (exp_field == 0) {
    // Denormalized: no implied bit regardless of mode.
    magnitude = std::ldexp(static_cast<double>(man_field),
                           static_cast<int>(1 - bias - static_cast<std::int64_t>(man_nbits)));
  } else {
    const auto e = static_cast<std::int64_t>(exp_field) - bias;
    switch (f.normalization) {
      case MantissaNorm::MsbImplied:
        magnitude = std::ldexp(static_cast<double>(man_field) +
                                   std::ldexp(1.0, static_cast<int>(man_nbits)),
                               static_cast<int>(e - static_cast<std::int64_t>(man_nbits)));
        break;
      case MantissaNorm::MsbSet:
        // The stored mantissa's MSB is the leading significant bit.
        magnitude = std::ldexp(static_cast<double>(man_field),
                               static_cast<int>(e - static_cast<std::int64_t>(man_nbits) + 1));
        break;
      case MantissaNorm::None:
        // Mantissa is a plain fraction in [0, 1) with no implied bit; the
        // exponent applies to the fraction scaled into [0.5, 1).
        magnitude = std::ldexp(static_cast<double>(man_field),
                               static_cast<int>(e + 1 - static_cast<std::int64_t>(man_nbits)));
        break;
      default:
        throw H5FormatError("unreachable normalization mode");
    }
  }
  return negative ? -magnitude : magnitude;
}

std::uint64_t encode_validated(double value, const FloatFormat& f) {
  if (f.is_ieee_binary64()) return std::bit_cast<std::uint64_t>(value);

  const unsigned width = f.size_bytes * 8;
  const unsigned man_nbits =
      (f.mantissa_location >= width)
          ? 0
          : std::min<unsigned>(f.mantissa_size, width - f.mantissa_location);
  const unsigned exp_nbits = (f.exponent_location >= width)
                                 ? 0
                                 : std::min<unsigned>(f.exponent_size, width - f.exponent_location);
  const std::uint64_t exp_max = (exp_nbits == 0) ? 0 : ((1ULL << exp_nbits) - 1);

  std::uint64_t raw = 0;
  const bool negative = std::signbit(value);
  if (negative && f.sign_location < width) raw |= (1ULL << f.sign_location);
  const double mag = std::fabs(value);

  if (std::isnan(mag)) {
    raw |= exp_max << f.exponent_location;
    raw |= 1ULL << f.mantissa_location;  // any non-zero mantissa
    return raw;
  }
  if (std::isinf(mag)) {
    raw |= exp_max << f.exponent_location;
    return raw;
  }
  if (mag == 0.0) return raw;

  int e2 = 0;
  const double frac = std::frexp(mag, &e2);  // frac in [0.5, 1)
  // Normalized form: 1.xxx * 2^(e2-1).
  std::int64_t exp_field = (e2 - 1) + static_cast<std::int64_t>(f.exponent_bias);
  if (exp_field >= static_cast<std::int64_t>(exp_max)) {
    // Overflow: clamp to infinity.
    raw |= exp_max << f.exponent_location;
    return raw;
  }
  if (exp_field <= 0) {
    // Underflow: encode as denormal.
    const double scaled =
        std::ldexp(mag, static_cast<int>(static_cast<std::int64_t>(man_nbits) +
                                         static_cast<std::int64_t>(f.exponent_bias) - 1));
    auto man = static_cast<std::uint64_t>(std::llround(scaled));
    const std::uint64_t man_mask = (man_nbits >= 64) ? ~0ULL : ((1ULL << man_nbits) - 1);
    raw |= (man & man_mask) << f.mantissa_location;
    return raw;
  }

  std::uint64_t man = 0;
  switch (f.normalization) {
    case MantissaNorm::MsbImplied: {
      // frac*2 in [1,2); drop the implied leading 1.
      const double m = (frac * 2.0 - 1.0);  // [0,1)
      man = static_cast<std::uint64_t>(std::llround(std::ldexp(m, static_cast<int>(man_nbits))));
      if (man >> man_nbits) {  // rounding carried into the implied bit
        man = 0;
        ++exp_field;
        if (exp_field >= static_cast<std::int64_t>(exp_max)) {
          raw |= exp_max << f.exponent_location;
          return raw;
        }
      }
      break;
    }
    case MantissaNorm::MsbSet: {
      man = static_cast<std::uint64_t>(
          std::llround(std::ldexp(frac, static_cast<int>(man_nbits))));
      if (man >> man_nbits) {
        man >>= 1;
        ++exp_field;
      }
      break;
    }
    case MantissaNorm::None: {
      man = static_cast<std::uint64_t>(
          std::llround(std::ldexp(frac, static_cast<int>(man_nbits))));
      if (man >> man_nbits) {
        man >>= 1;
        ++exp_field;
      }
      break;
    }
    default:
      throw H5FormatError("unreachable normalization mode");
  }
  const std::uint64_t man_mask = (man_nbits >= 64) ? ~0ULL : ((1ULL << man_nbits) - 1);
  raw |= (man & man_mask) << f.mantissa_location;
  raw |= (static_cast<std::uint64_t>(exp_field) & exp_max) << f.exponent_location;
  return raw;
}

}  // namespace

bool is_host_native(const FloatFormat& format) noexcept {
  return format.is_ieee_binary64() && std::endian::native == std::endian::little;
}

double decode_element(std::uint64_t raw, const FloatFormat& format) {
  validate(format);
  return decode_validated(raw, format);
}

std::uint64_t encode_element(double value, const FloatFormat& format) {
  validate(format);
  return encode_validated(value, format);
}

std::vector<double> decode_array(util::ByteSpan raw, std::uint64_t count,
                                 const FloatFormat& format) {
  validate(format);
  const std::size_t stride = format.size_bytes;
  if (count > raw.size() / stride) {
    throw H5BoundsError("raw data region too small: need " + std::to_string(count) +
                        " elements of " + std::to_string(stride) + " bytes, have " +
                        std::to_string(raw.size()) + " bytes");
  }
  std::vector<double> out(count);
  if (is_host_native(format)) {
    if (count != 0) std::memcpy(out.data(), raw.data(), count * sizeof(double));
    return out;
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(raw.data());
  for (std::uint64_t i = 0; i < count; ++i) {
    const unsigned char* element = bytes + i * stride;
    // Assemble the word most-significant byte first from either end.
    std::uint64_t bits = 0;
    if (format.big_endian) {
      for (std::size_t b = 0; b < stride; ++b) bits = (bits << 8) | element[b];
    } else {
      for (std::size_t b = stride; b-- > 0;) bits = (bits << 8) | element[b];
    }
    out[i] = decode_validated(bits, format);
  }
  return out;
}

util::Bytes encode_array(std::span<const double> values, const FloatFormat& format) {
  validate(format);
  const std::size_t stride = format.size_bytes;
  util::Bytes out(values.size() * stride);
  if (is_host_native(format)) {
    if (!values.empty()) std::memcpy(out.data(), values.data(), out.size());
    return out;
  }
  auto* bytes = reinterpret_cast<unsigned char*>(out.data());
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t bits = encode_validated(values[i], format);
    unsigned char* element = bytes + i * stride;
    // Emit the word least-significant byte first into either end.
    if (format.big_endian) {
      for (std::size_t b = stride; b-- > 0; bits >>= 8) {
        element[b] = static_cast<unsigned char>(bits);
      }
    } else {
      for (std::size_t b = 0; b < stride; ++b, bits >>= 8) {
        element[b] = static_cast<unsigned char>(bits);
      }
    }
  }
  return out;
}

util::ByteSpan encoded_view(std::span<const double> values, const FloatFormat& format,
                            util::Bytes& scratch) {
  if (is_host_native(format)) return std::as_bytes(values);
  scratch = encode_array(values, format);
  return scratch;
}

}  // namespace ffis::h5
