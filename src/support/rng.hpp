// Deterministic, splittable random number generation.
//
// Every randomized component of the library draws from an explicit 64-bit
// seed. Per-node generators are derived with splitmix64 so that experiments
// are reproducible bit-for-bit regardless of execution order.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/check.hpp"

namespace csd {

/// splitmix64 step: maps a seed to a well-mixed 64-bit value. Used both as a
/// stream splitter and to seed xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derive an independent child seed from (seed, stream-id).
constexpr std::uint64_t derive_seed(std::uint64_t seed,
                                    std::uint64_t stream) noexcept {
  std::uint64_t s = seed ^ (0x517cc1b727220a95ULL * (stream + 1));
  std::uint64_t a = splitmix64(s);
  std::uint64_t b = splitmix64(s);
  return a ^ (b << 1);
}

/// xoshiro256** — fast, high-quality 64-bit PRNG.
/// Satisfies the UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xdeadbeefULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

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

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased:
  /// rejection below a modulo threshold, then `r % bound`.
  std::uint64_t below(std::uint64_t bound) noexcept {
    CSD_DCHECK(bound > 0);
    // A power-of-two bound divides 2^64, so its threshold is 0 and the
    // first draw is taken: the mask is `r % bound` without the divisions.
    if ((bound & (bound - 1)) == 0) return (*this)() & (bound - 1);
    // Reject the 2^64 mod bound lowest draws, so every residue is equally
    // likely.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    CSD_DCHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with probability num/den.
  bool chance(std::uint64_t num, std::uint64_t den) noexcept {
    CSD_DCHECK(den > 0 && num <= den);
    return below(den) < num;
  }

  /// Fair coin.
  bool coin() noexcept { return ((*this)() >> 63) != 0; }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Random permutation of {0, ..., n-1} (Fisher–Yates).
  std::vector<std::uint32_t> permutation(std::uint32_t n) {
    std::vector<std::uint32_t> p(n);
    for (std::uint32_t i = 0; i < n; ++i) p[i] = i;
    for (std::uint32_t i = n; i > 1; --i) {
      const auto j = static_cast<std::uint32_t>(below(i));
      std::swap(p[i - 1], p[j]);
    }
    return p;
  }

  /// Sample k distinct values from {0, ..., n-1} (order randomized).
  std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n,
                                                        std::uint32_t k);

  /// The raw xoshiro256** state, for snapshot/resume. A generator restored
  /// with set_state produces the exact draw sequence the saved one would
  /// have produced.
  std::array<std::uint64_t, 4> state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }

  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    for (std::size_t i = 0; i < 4; ++i) state_[i] = state[i];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace csd
