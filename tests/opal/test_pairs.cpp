#include "opal/pairs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "domain_oracle.hpp"
#include "opal/complex.hpp"
#include "util/fastmod.hpp"
#include "util/rng.hpp"

namespace {

using opalsim::opal::build_domains;
using opalsim::opal::DistributionStrategy;
using opalsim::opal::make_synthetic_complex;
using opalsim::opal::oracle_domains;
using opalsim::opal::PairIdx;
using opalsim::opal::ServerDomain;
using opalsim::opal::SyntheticSpec;

std::uint64_t total_pairs(const std::vector<std::vector<PairIdx>>& ds) {
  std::uint64_t t = 0;
  for (const auto& d : ds) t += d.size();
  return t;
}

class DistributionTest
    : public ::testing::TestWithParam<DistributionStrategy> {};

TEST_P(DistributionTest, PartitionIsCompleteAndDisjoint) {
  const std::uint32_t n = 60;
  const int p = 5;
  auto ds = build_domains(n, p, GetParam(), 7);
  EXPECT_EQ(total_pairs(ds), static_cast<std::uint64_t>(n) * (n - 1) / 2);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const auto& d : ds) {
    for (const auto& pr : d) {
      EXPECT_LT(pr.i, pr.j);
      EXPECT_LT(pr.j, n);
      EXPECT_TRUE(seen.insert({pr.i, pr.j}).second) << "duplicate pair";
    }
  }
}

TEST_P(DistributionTest, DeterministicInSeed) {
  auto a = build_domains(40, 3, GetParam(), 11);
  auto b = build_domains(40, 3, GetParam(), 11);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (std::size_t k = 0; k < a[s].size(); ++k)
      EXPECT_EQ(a[s][k], b[s][k]);
  }
}

TEST_P(DistributionTest, SingleServerGetsEverything) {
  const std::uint32_t n = 30;
  auto ds = build_domains(n, 1, GetParam(), 3);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].size(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DistributionTest,
    ::testing::Values(DistributionStrategy::PseudoRandomHistorical,
                      DistributionStrategy::PseudoRandomUniform,
                      DistributionStrategy::RowCyclic,
                      DistributionStrategy::Folded,
                      DistributionStrategy::EvenMultiplierBug),
    [](const auto& info) {
      switch (info.param) {
        case DistributionStrategy::PseudoRandomHistorical:
          return std::string("Historical");
        case DistributionStrategy::PseudoRandomUniform:
          return std::string("Uniform");
        case DistributionStrategy::RowCyclic:
          return std::string("RowCyclic");
        case DistributionStrategy::Folded:
          return std::string("Folded");
        case DistributionStrategy::EvenMultiplierBug:
          return std::string("EvenBug");
      }
      return std::string("Unknown");
    });

double imbalance(const std::vector<std::vector<PairIdx>>& ds) {
  std::size_t mx = 0, total = 0;
  for (const auto& d : ds) {
    mx = std::max(mx, d.size());
    total += d.size();
  }
  const double mean = static_cast<double>(total) / ds.size();
  return static_cast<double>(mx) / mean;
}

TEST(Distribution, UniformIsBalancedForEveryP) {
  for (int p = 1; p <= 8; ++p) {
    auto ds =
        build_domains(400, p, DistributionStrategy::PseudoRandomUniform, 5);
    EXPECT_LT(imbalance(ds), 1.03) << "p=" << p;
  }
}

TEST(Distribution, HistoricalBalancedForOddP) {
  for (int p : {1, 3, 5, 7}) {
    auto ds = build_domains(400, p,
                            DistributionStrategy::PseudoRandomHistorical, 5);
    EXPECT_LT(imbalance(ds), 1.03) << "p=" << p;
  }
}

TEST(Distribution, HistoricalImbalancedForEvenP) {
  // The paper's anomaly: even p shows a systematic ~12% surplus on
  // even-ranked servers.
  for (int p : {2, 4, 6}) {
    auto ds = build_domains(400, p,
                            DistributionStrategy::PseudoRandomHistorical, 5);
    EXPECT_GT(imbalance(ds), 1.08) << "p=" << p;
    EXPECT_LT(imbalance(ds), 1.20) << "p=" << p;
    // Even-ranked servers carry the surplus.
    for (int s = 0; s + 1 < p; s += 2) {
      EXPECT_GT(ds[s].size(), ds[s + 1].size());
    }
  }
}

TEST(Distribution, EvenBugStarvesOddServersForEvenP) {
  auto ds = build_domains(200, 4, DistributionStrategy::EvenMultiplierBug, 5);
  EXPECT_EQ(ds[1].size(), 0u);
  EXPECT_EQ(ds[3].size(), 0u);
  EXPECT_GT(ds[0].size(), 0u);
  EXPECT_GT(ds[2].size(), 0u);
}

TEST(Distribution, EvenBugFineForOddP) {
  auto ds = build_domains(400, 5, DistributionStrategy::EvenMultiplierBug, 5);
  EXPECT_LT(imbalance(ds), 1.05);
}

TEST(Distribution, FoldedIsNearlyPerfectlyBalanced) {
  for (int p : {2, 3, 4, 7}) {
    auto ds = build_domains(401, p, DistributionStrategy::Folded, 5);
    EXPECT_LT(imbalance(ds), 1.02) << "p=" << p;
  }
}

TEST(Distribution, RejectsBadArguments) {
  EXPECT_THROW(build_domains(10, 0, DistributionStrategy::Folded, 1),
               std::invalid_argument);
  EXPECT_THROW(build_domains(1, 2, DistributionStrategy::Folded, 1),
               std::invalid_argument);
}

TEST(Distribution, BuildMatchesPerPairOracle) {
  // Every strategy, p from one server to past 65,535 (the old owner memo
  // stopped at u16), tiny to mid-size triangles, three seeds: each domain
  // is exactly the oracle's pairs in lex order.
  const DistributionStrategy strategies[] = {
      DistributionStrategy::PseudoRandomHistorical,
      DistributionStrategy::PseudoRandomUniform,
      DistributionStrategy::RowCyclic, DistributionStrategy::Folded,
      DistributionStrategy::EvenMultiplierBug};
  for (const DistributionStrategy strategy : strategies) {
    for (const int p : {1, 2, 3, 7, 8, 64, 65536, 70000}) {
      for (const std::uint32_t n : {2u, 3u, 97u, 400u}) {
        for (const std::uint64_t seed :
             {std::uint64_t{0}, std::uint64_t{42}, ~std::uint64_t{0}}) {
          SCOPED_TRACE(to_string(strategy) + " p=" + std::to_string(p) +
                       " n=" + std::to_string(n) +
                       " seed=" + std::to_string(seed));
          const auto want = oracle_domains(n, p, strategy, seed);
          const auto got = build_domains(n, p, strategy, seed);
          ASSERT_EQ(got.size(), want.size());
          for (int s = 0; s < p; ++s) {
            ASSERT_EQ(got[s], want[s]) << "server " << s;
            EXPECT_EQ(got[s].capacity(), got[s].size()) << "server " << s;
          }
        }
      }
    }
  }
}

TEST(FastMod, MatchesPercentAtBoundaries) {
  // Divisors across the u32 range, dividends at 0, 2^64 - 1 and around
  // multiples of d (where a truncated reciprocal would first go wrong),
  // plus pseudo-random values.
  using opalsim::util::FastMod;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint32_t> divisors{1, 2, 3, 5, 7, 8, 10, 64, 65535,
                                      65536, 65537, 70000, 1u << 31,
                                      (1u << 31) - 1, (1u << 31) + 1,
                                      0xFFFFFFFEu, 0xFFFFFFFFu};
  opalsim::util::SplitMix64 rng(2019);
  for (int t = 0; t < 64; ++t) {
    divisors.push_back(static_cast<std::uint32_t>(rng.next() >> (t % 32)) |
                       1u);
  }
  for (const std::uint32_t d : divisors) {
    const FastMod mod(d);
    std::vector<std::uint64_t> hs{0, 1, kMax, kMax - 1, d, d - 1ull,
                                  d + 1ull};
    const std::uint64_t top = kMax / d;  // largest multiple is top·d
    for (const std::uint64_t q :
         {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{1} << 32,
          top / 2, top - 1, top}) {
      if (q == 0 || q > top) continue;
      hs.push_back(q * d - 1);
      hs.push_back(q * d);
      if (q * d < kMax) hs.push_back(q * d + 1);
    }
    for (int t = 0; t < 256; ++t) hs.push_back(rng.next());
    for (const std::uint64_t h : hs) {
      ASSERT_EQ(mod(h), h % d) << h << " mod " << d;
    }
  }
  EXPECT_THROW(FastMod(0), std::invalid_argument);
}

TEST(ServerDomain, NoCutoffKeepsAllPairsWithoutMaterializing) {
  SyntheticSpec s;
  s.n_solute = 30;
  auto mc = make_synthetic_complex(s);
  auto ds = build_domains(30, 1, DistributionStrategy::Folded, 1);
  ServerDomain dom(std::move(ds[0]));
  const auto checked = dom.update(mc, -1.0);
  EXPECT_EQ(checked, 435u);
  EXPECT_EQ(dom.active_size(), 435u);
}

TEST(ServerDomain, CutoffFiltersPairs) {
  SyntheticSpec s;
  s.n_solute = 100;
  s.density = 0.05;
  auto mc = make_synthetic_complex(s);
  auto ds = build_domains(100, 1, DistributionStrategy::Folded, 1);
  ServerDomain dom(std::move(ds[0]));
  dom.update(mc, 5.0);
  EXPECT_LT(dom.active_size(), 4950u);
  EXPECT_GT(dom.active_size(), 0u);
  // Every active pair really is within the cutoff.
  for (const auto& pr : dom.active()) {
    const auto d =
        mc.centers[pr.i].position - mc.centers[pr.j].position;
    EXPECT_LE(d.norm(), 5.0 + 1e-12);
  }
}

TEST(ServerDomain, LargerCutoffKeepsMorePairs) {
  SyntheticSpec s;
  s.n_solute = 100;
  auto mc = make_synthetic_complex(s);
  auto ds = build_domains(100, 1, DistributionStrategy::Folded, 1);
  ServerDomain dom(std::move(ds[0]));
  dom.update(mc, 5.0);
  const auto small = dom.active_size();
  dom.update(mc, 15.0);
  const auto big = dom.active_size();
  EXPECT_GT(big, small);
}

TEST(ServerDomain, UnionOfServerActiveListsEqualsSerialList) {
  SyntheticSpec s;
  s.n_solute = 80;
  auto mc = make_synthetic_complex(s);
  const double cutoff = 6.0;

  auto serial = build_domains(80, 1, DistributionStrategy::Folded, 1);
  ServerDomain sdom(std::move(serial[0]));
  sdom.update(mc, cutoff);
  std::set<std::pair<std::uint32_t, std::uint32_t>> expect;
  for (const auto& pr : sdom.active()) expect.insert({pr.i, pr.j});

  auto par =
      build_domains(80, 4, DistributionStrategy::PseudoRandomUniform, 1);
  std::set<std::pair<std::uint32_t, std::uint32_t>> got;
  for (auto& d : par) {
    ServerDomain dom(std::move(d));
    dom.update(mc, cutoff);
    for (const auto& pr : dom.active()) got.insert({pr.i, pr.j});
  }
  EXPECT_EQ(got, expect);
}

TEST(ServerDomain, ListBytesMatchesPaperConstant) {
  // Paper §2.6: pair list entries are 2*4 bytes.
  static_assert(sizeof(PairIdx) == 8);
  auto ds = build_domains(20, 1, DistributionStrategy::Folded, 1);
  ServerDomain dom(std::move(ds[0]));
  SyntheticSpec s;
  s.n_solute = 20;
  auto mc = make_synthetic_complex(s);
  dom.update(mc, -1.0);
  EXPECT_EQ(dom.list_bytes(), 190u * 8u);
}

}  // namespace
