// Deterministic pseudo-random number generation for workload synthesis and
// pair-distribution hashing.  All randomness in OpalSim flows through these
// generators so that a fixed seed reproduces a run bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace opalsim::util {

/// SplitMix64 — tiny, high-quality 64-bit mixer.  Used both as a standalone
/// generator for seeding and as a stateless hash (`splitmix64_hash`).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Stateless mix of a 64-bit value; suitable for hashing pair indices onto
/// servers (Opal's "pseudo-random strategy").
constexpr std::uint64_t splitmix64_hash(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** — fast general-purpose generator used for molecule synthesis.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;
  using State = std::array<std::uint64_t, 4>;

  explicit Xoshiro256(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t below(std::uint64_t n) noexcept {
    // Lemire's multiply-shift rejection method (unbiased).
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Raw generator state, for checkpoint images.  Restoring a saved state
  /// makes the stream continue exactly where the snapshot left it.
  State state() const noexcept { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const State& s) noexcept {
    for (int i = 0; i < 4; ++i) s_[i] = s[i];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace opalsim::util
