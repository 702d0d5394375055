#pragma once
// Exact, order-independent summation of doubles.
//
// A floating-point running sum rounds after every term, so its result
// depends on the order of the terms: a mean updated by the delta of a few
// changed values drifts from the mean recomputed from scratch.  ExactSum
// keeps the sum exactly instead — one 128-bit integer bin per binary
// exponent, holding the signed sum of the mantissas of the terms with that
// exponent — so add() and subtract() commute, subtract(v) exactly undoes
// add(v), and the result is a function of the multiset of terms alone.
// That is what lets an incremental analysis (golden sum, minus the old
// values of the changed cells, plus their new values) reproduce the mean of
// a full pass bit for bit.
//
// Non-finite terms are counted apart from the exact finite sum, so a NaN or
// infinity poisons mean() exactly as IEEE addition would, and subtracting it
// again heals it.

#include <array>
#include <cstdint>

namespace ffis::util {

class ExactSum {
 public:
  void add(double v) noexcept { accumulate(v, false); }
  /// Exact inverse of add(v).
  void subtract(double v) noexcept { accumulate(v, true); }

  /// The sum divided by `count`: NaN when NaN terms (or infinities of both
  /// signs) are present, ±inf for infinities of one sign, otherwise the
  /// exact finite sum rounded once to nearest (ties to even) long double,
  /// divided by `count`, then rounded to double.
  [[nodiscard]] double mean(std::uint64_t count) const noexcept;

 private:
  void accumulate(double v, bool negate) noexcept;

  /// bins_[e - 1] is worth bins_[e - 1] * 2^(e - 1075): the signed sum of
  /// the 53-bit mantissas of finite terms with biased exponent e
  /// (subnormals, e = 0, share bin 1).  A bin absorbs 2^74 mantissas before
  /// it could overflow.
  static constexpr int kBins = 2046;
  std::array<__int128, kBins> bins_{};
  std::int64_t nan_ = 0;
  std::int64_t pos_inf_ = 0;
  std::int64_t neg_inf_ = 0;
};

}  // namespace ffis::util
