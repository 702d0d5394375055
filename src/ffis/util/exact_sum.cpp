#include "ffis/util/exact_sum.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace ffis::util {

namespace {

/// Fixed-point magnitude in units of 2^-1074 (the smallest subnormal).  Bin
/// i is worth its value times 2^i, and a bin holds at most 127 magnitude
/// bits, so 2046 + 127 bits suffice.
constexpr int kLimbs = (2046 + 127 + 63) / 64;
using Magnitude = std::array<std::uint64_t, kLimbs>;

/// mag += value * 2^shift, carrying upward.
void add_shifted(Magnitude& mag, unsigned __int128 value, int shift) noexcept {
  const int limb = shift / 64;
  const int off = shift % 64;
  const auto w0 = static_cast<std::uint64_t>(value);
  const auto w1 = static_cast<std::uint64_t>(value >> 64);
  const std::uint64_t parts[3] = {
      w0 << off,
      (w1 << off) | (off != 0 ? w0 >> (64 - off) : 0),
      off != 0 ? w1 >> (64 - off) : 0,
  };
  unsigned __int128 carry = 0;
  for (int k = limb; k < kLimbs; ++k) {
    const int p = k - limb;
    if (p >= 3 && carry == 0) break;
    carry += mag[static_cast<std::size_t>(k)];
    if (p < 3) carry += parts[p];
    mag[static_cast<std::size_t>(k)] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
}

/// a < b as unsigned multi-limb integers.
bool less(const Magnitude& a, const Magnitude& b) noexcept {
  for (int k = kLimbs - 1; k >= 0; --k) {
    const auto i = static_cast<std::size_t>(k);
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

/// a -= b, for a >= b.
void subtract_from(Magnitude& a, const Magnitude& b) noexcept {
  std::uint64_t borrow = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const std::uint64_t rhs = b[k] + borrow;
    borrow = (rhs < borrow || a[k] < rhs) ? 1 : 0;
    a[k] -= rhs;
  }
}

/// The magnitude rounded to nearest (ties to even) long double: the 128
/// leading bits, starting at the most significant set bit, with a sticky bit
/// for everything below them OR-ed into bit 0 — well below the round bit
/// (bit 63 of the window), so it only breaks ties.
long double to_long_double(const Magnitude& mag) noexcept {
  int top = kLimbs - 1;
  while (top >= 0 && mag[static_cast<std::size_t>(top)] == 0) --top;
  if (top < 0) return 0.0L;
  const auto limb = [&](int k) { return mag[static_cast<std::size_t>(k)]; };
  // The window's bit 0 sits at magnitude bit `low`.
  const int msb = 64 * top + 63 - std::countl_zero(limb(top));
  const int low = std::max(0, msb - 127);
  const int low_limb = low / 64;
  const int off = low % 64;
  auto window = (static_cast<unsigned __int128>(limb(low_limb + 1)) << 64) | limb(low_limb);
  bool sticky = false;
  if (off != 0) {
    window >>= off;
    window |= static_cast<unsigned __int128>(limb(low_limb + 2)) << (128 - off);
    sticky = (limb(low_limb) & ((std::uint64_t{1} << off) - 1)) != 0;
  }
  for (int k = 0; k < low_limb && !sticky; ++k) sticky = limb(k) != 0;
  if (sticky) window |= 1;
  return std::ldexp(static_cast<long double>(window), low - 1074);
}

}  // namespace

void ExactSum::accumulate(double v, bool negate) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto exponent = static_cast<int>((bits >> 52) & 0x7ff);
  const std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
  const bool sign = (bits >> 63) != 0;
  if (exponent == 0x7ff) {
    const std::int64_t step = negate ? -1 : 1;
    if (fraction != 0) {
      nan_ += step;
    } else if (sign) {
      neg_inf_ += step;
    } else {
      pos_inf_ += step;
    }
    return;
  }
  const auto mantissa = static_cast<std::int64_t>(
      exponent == 0 ? fraction : fraction | (std::uint64_t{1} << 52));
  bins_[static_cast<std::size_t>(exponent == 0 ? 0 : exponent - 1)] +=
      sign != negate ? -mantissa : mantissa;
}

double ExactSum::mean(std::uint64_t count) const noexcept {
  if (nan_ != 0 || (pos_inf_ != 0 && neg_inf_ != 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf_ != 0) return std::numeric_limits<double>::infinity();
  if (neg_inf_ != 0) return -std::numeric_limits<double>::infinity();

  Magnitude positive{}, negative{};
  for (int i = 0; i < kBins; ++i) {
    const __int128 bin = bins_[static_cast<std::size_t>(i)];
    if (bin > 0) {
      add_shifted(positive, static_cast<unsigned __int128>(bin), i);
    } else if (bin < 0) {
      add_shifted(negative, static_cast<unsigned __int128>(-bin), i);
    }
  }
  const bool negative_sum = less(positive, negative);
  Magnitude& larger = negative_sum ? negative : positive;
  subtract_from(larger, negative_sum ? positive : negative);
  const long double sum = to_long_double(larger);
  return static_cast<double>((negative_sum ? -sum : sum) / static_cast<long double>(count));
}

}  // namespace ffis::util
