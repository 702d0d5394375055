#include "ffis/util/rng.hpp"

#include <cmath>

namespace ffis::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
  // zero outputs in a row, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless algorithm.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::gaussian(double mu, double sigma) noexcept {
  return mu + sigma * gaussian();
}

bool Rng::bernoulli(double p) noexcept { return uniform01() < p; }

Rng Rng::split(std::uint64_t stream_index) const noexcept {
  // Mix the current state with the stream index through splitmix64 so that
  // child streams are decorrelated from the parent and from each other.
  std::uint64_t s = state_[0] ^ rotl(state_[2], 13) ^ (stream_index * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  Rng child(splitmix64(s));
  return child;
}

void Rng::discard(std::uint64_t n) noexcept {
  while (n-- > 0) (void)(*this)();
}

}  // namespace ffis::util
