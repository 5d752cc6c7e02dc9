// Exact remainder by a run-constant divisor without a divide instruction.
//
// Lemire, Kaser & Kurz, "Faster remainder by direct computation" (2019),
// Theorem 1 with N = 64 and F = 128: for c = ceil(2^128 / d), the low 128
// bits of c·h scaled by d and shifted right by 128 equal h mod d for every
// 64-bit h and every d in [1, 2^64).  The divisor here is a u32, so the
// 256-bit product (c·h mod 2^128)·d splits into two 64×32-bit products.
// Four multiplies replace a 64-bit `div`, which takes tens of cycles on
// most x86-64 cores.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace opalsim::util {

class FastMod {
 public:
  /// Throws std::invalid_argument for d == 0.
  explicit FastMod(std::uint32_t d) : d_(d), c_(ceil_2pow128_over(d)) {}

  /// h % d, exactly.
  std::uint32_t operator()(std::uint64_t h) const noexcept {
    const U128 low = c_ * h;  // mod 2^128
    const U128 lo_d = static_cast<U128>(static_cast<std::uint64_t>(low)) * d_;
    const U128 hi_d = static_cast<U128>(static_cast<std::uint64_t>(low >> 64)) *
                      d_;
    // (low·d) >> 128 = (hi_d + (lo_d >> 64)) >> 64; both terms are < 2^96.
    return static_cast<std::uint32_t>((hi_d + (lo_d >> 64)) >> 64);
  }

 private:
  // -Wpedantic rejects a bare __int128; the extension keyword accepts it.
  __extension__ typedef unsigned __int128 U128;

  static U128 ceil_2pow128_over(std::uint32_t d) {
    if (d == 0) throw std::invalid_argument("FastMod: divisor must be > 0");
    // floor((2^128 - 1) / d) + 1 == ceil(2^128 / d); for d == 1 it wraps to
    // 0, and every remainder is then 0 as it should be.
    return ~U128{0} / d + 1;
  }

  std::uint32_t d_;
  U128 c_;
};

}  // namespace opalsim::util
