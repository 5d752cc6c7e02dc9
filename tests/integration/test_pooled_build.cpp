// build_domains on a thread pool: the row blocks of the triangle are
// counted and filled by the pool's participants, each writing its pairs at
// cursors taken from prefix sums over the blocks (opal/pairs.cpp).  This
// suite is in the TSan leg's label set, so the handoff runs under the race
// detector there; tests/opal/test_pairs.cpp pins the inline build against
// the same oracle across seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "../opal/domain_oracle.hpp"
#include "opal/pairs.hpp"
#include "util/fatal.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace opalsim;

constexpr opal::DistributionStrategy kStrategies[] = {
    opal::DistributionStrategy::PseudoRandomHistorical,
    opal::DistributionStrategy::PseudoRandomUniform,
    opal::DistributionStrategy::RowCyclic,
    opal::DistributionStrategy::Folded,
    opal::DistributionStrategy::EvenMultiplierBug,
};

/// Each domain equals the oracle's and is sized exactly.
void expect_oracle(const std::vector<std::vector<opal::PairIdx>>& got,
                   std::uint32_t n, int p, opal::DistributionStrategy strategy,
                   std::uint64_t seed) {
  const auto want = opal::oracle_domains(n, p, strategy, seed);
  ASSERT_EQ(got.size(), want.size());
  for (int s = 0; s < p; ++s) {
    ASSERT_EQ(got[s], want[s]) << "server " << s;
    EXPECT_EQ(got[s].capacity(), got[s].size()) << "server " << s;
  }
}

TEST(PooledBuild, MatchesPerPairOracle) {
  // This overload splits every triangle on a pool of more than one
  // thread.  A pool of 8 cuts 36 row blocks, so n = 2 .. 17 has more
  // blocks than rows; p = 70,000 bounds the cursor table at three blocks.
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    util::ThreadPool pool(threads);
    for (const auto strategy : kStrategies) {
      for (const int p : {1, 2, 7, 64, 70000}) {
        for (const std::uint32_t n : {2u, 3u, 5u, 17u, 97u, 400u}) {
          SCOPED_TRACE(opal::to_string(strategy) +
                       " threads=" + std::to_string(threads) +
                       " p=" + std::to_string(p) + " n=" + std::to_string(n));
          const std::uint64_t before = pool.dispatch_stats().dispatches;
          expect_oracle(opal::build_domains(n, p, strategy, 42, pool), n, p,
                        strategy, 42);
          // One dispatch fills, and at p > 1 one counts first.
          const std::uint64_t handoffs = threads == 1 ? 0 : p == 1 ? 1 : 2;
          EXPECT_EQ(pool.dispatch_stats().dispatches - before, handoffs);
        }
      }
    }
  }
}

TEST(PooledBuild, SharedPoolOverloadMatchesOracle) {
  // The four-argument form, below and past its threshold of 2^20 pairs
  // (1,449 centers), on whatever OPALSIM_THREADS gives the shared pool.
  for (const auto strategy : kStrategies) {
    for (const int p : {1, 7}) {
      for (const std::uint32_t n : {2u, 1448u, 1449u}) {
        SCOPED_TRACE(opal::to_string(strategy) + " p=" + std::to_string(p) +
                     " n=" + std::to_string(n));
        expect_oracle(opal::build_domains(n, p, strategy, 7), n, p, strategy,
                      7);
      }
    }
  }
}

TEST(PooledBuild, InsideADispatchRunsInline) {
  // A sweep's runs build their domains inside the sweep's dispatch: both
  // overloads must run there inline, leaving their pools untouched, even
  // past the shared-pool threshold.
  util::ThreadPool sweep(2);
  util::ThreadPool other(3);
  util::ThreadPool& shared = util::ThreadPool::shared();
  const std::uint64_t other_before = other.dispatch_stats().dispatches;
  const std::uint64_t shared_before = shared.dispatch_stats().dispatches;
  const auto strategy = opal::DistributionStrategy::PseudoRandomHistorical;
  const std::uint32_t n = 1449;
  std::vector<std::vector<std::vector<opal::PairIdx>>> got(4);
  util::parallel_for_indexed(sweep, got.size(), [&](std::size_t r) {
    got[r] = r % 2 == 0 ? opal::build_domains(n, 7, strategy, r, other)
                        : opal::build_domains(n, 7, strategy, r);
  });
  EXPECT_EQ(other.dispatch_stats().dispatches, other_before);
  EXPECT_EQ(shared.dispatch_stats().dispatches, shared_before);
  for (std::size_t r = 0; r < got.size(); ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    expect_oracle(got[r], n, 7, strategy, r);
  }
}

TEST(PooledBuild, RejectsBadArgumentsAsConfigErrors) {
  util::ThreadPool pool(2);
  const auto strategy = opal::DistributionStrategy::Folded;
  for (const auto& [n, p] : {std::pair{10u, 0}, std::pair{1u, 2}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p));
    try {
      opal::build_domains(n, p, strategy, 1, pool);
      ADD_FAILURE() << "no error";
    } catch (const util::ConfigError& e) {
      EXPECT_EQ(e.subsystem(), "opal");
    }
    EXPECT_THROW(opal::build_domains(n, p, strategy, 1), util::ConfigError);
  }
}

}  // namespace
