// Test oracle: each distribution strategy's owner formula with the plain
// `%`, evaluated per pair, and the domains it implies.  build_domains
// (opal/pairs.hpp) must match it pair for pair, inline and pooled
// (test_pairs, test_pooled_build).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "opal/pairs.hpp"
#include "util/rng.hpp"

namespace opalsim::opal {

/// The owner of pair number k = (i, j) in lex order.
inline std::uint64_t oracle_owner(DistributionStrategy strategy,
                                  std::uint64_t k, std::uint32_t i,
                                  std::uint32_t n, std::uint64_t p,
                                  std::uint64_t seed) {
  switch (strategy) {
    case DistributionStrategy::PseudoRandomHistorical: {
      const std::uint64_t h = util::splitmix64_hash(k ^ seed);
      std::uint64_t server = h % p;
      if (p % 2 == 0 && ((h >> 32) & 7u) == 0) server &= ~std::uint64_t{1};
      return server;
    }
    case DistributionStrategy::PseudoRandomUniform:
      return util::splitmix64_hash(k ^ seed) % p;
    case DistributionStrategy::RowCyclic:
      return i % p;
    case DistributionStrategy::Folded:
      return std::min(i, n - 2 - i) % p;
    case DistributionStrategy::EvenMultiplierBug:
      return (k * 2654435762ull) % p;
  }
  return p;
}

/// Every server's domain by the per-pair oracle, each in lex order.
inline std::vector<std::vector<PairIdx>> oracle_domains(
    std::uint32_t n, int p, DistributionStrategy strategy,
    std::uint64_t seed) {
  std::vector<std::vector<PairIdx>> want(static_cast<std::size_t>(p));
  std::uint64_t k = 0;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j, ++k) {
      const std::uint64_t owner = oracle_owner(
          strategy, k, i, n, static_cast<std::uint64_t>(p), seed);
      want.at(owner).push_back({i, j});
    }
  }
  return want;
}

}  // namespace opalsim::opal
