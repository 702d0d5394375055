#pragma once
// Deterministic pseudo-random number generation for FFIS.
//
// Every stochastic component in the framework (data generators, Monte Carlo
// samplers, fault-instance selection) draws from an explicitly seeded Rng so
// that campaigns are reproducible bit-for-bit.  The generator is
// xoshiro256** (Blackman & Vigna) seeded through splitmix64, which gives
// high-quality independent streams from small integer seeds — important when
// thousands of injection runs each get stream `base_seed + run_index`.

#include <array>
#include <cmath>
#include <cstdint>

namespace ffis::util {

/// One step of the splitmix64 generator; also usable as a mixing function.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG.  Satisfies std::uniform_random_bit_generator so it can
/// be used with <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via splitmix64(seed).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  /// bound must be > 0.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept {
    // 53 random mantissa bits -> [0,1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Standard normal via Marsaglia polar method (cached spare value).
  [[nodiscard]] double gaussian() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_gaussian_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_gaussian_ = v * factor;
    has_spare_ = true;
    return u * factor;
  }

  /// Normal with mean mu and standard deviation sigma.
  [[nodiscard]] double gaussian(double mu, double sigma) noexcept;

  /// Bernoulli trial with probability p of true.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Derives an independent child stream; child i of a given Rng state is
  /// deterministic.  Used to hand one stream per campaign run.
  [[nodiscard]] Rng split(std::uint64_t stream_index) const noexcept;

  /// Advance and discard n outputs.
  void discard(std::uint64_t n) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_gaussian_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace ffis::util
