// Stress tests for the ThreadPool chunked-dispatch path, written for the
// TSan CI leg: several host threads hammer dispatch_indexed on one shared
// pool while the per-index exactly-once contract and the DispatchStats
// invariants are checked exactly.  Under -fsanitize=thread any racing
// access to the block cursors, the active-job latch or the participant
// count surfaces as a hard failure; under plain builds the tests still
// verify the arithmetic.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace {

using opalsim::util::DispatchStats;
using opalsim::util::ThreadPool;
using opalsim::util::parallel_for_indexed;

TEST(ThreadPoolStress, ConcurrentDispatchersEachIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kDispatchers = 4;
  constexpr std::size_t kCount = 10'000;

  // One counter array per dispatcher: fn(i) increments slot i exactly once
  // if the chunked hand-out neither drops nor duplicates indices, even
  // while other dispatchers keep the steal paths hot.
  std::vector<std::vector<std::atomic<int>>> hits(kDispatchers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kCount);
  }

  std::vector<std::thread> dispatchers;
  dispatchers.reserve(kDispatchers);
  for (int d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([&, d] {
      for (int round = 0; round < 3; ++round) {
        parallel_for_indexed(pool, kCount, [&, d](std::size_t i) {
          hits[d][i].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : dispatchers) t.join();

  for (int d = 0; d < kDispatchers; ++d) {
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[d][i].load(std::memory_order_relaxed), 3)
          << "dispatcher " << d << " index " << i;
    }
  }
}

TEST(ThreadPoolStress, DispatchStatsStayConsistentUnderContention) {
  ThreadPool pool(4);
  const DispatchStats before = pool.dispatch_stats();

  constexpr int kDispatchers = 3;
  constexpr int kRounds = 8;
  constexpr std::size_t kCount = 4'096;
  std::atomic<std::size_t> total{0};

  std::vector<std::thread> dispatchers;
  dispatchers.reserve(kDispatchers);
  for (int d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        parallel_for_indexed(pool, kCount, [&](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : dispatchers) t.join();

  EXPECT_EQ(total.load(), static_cast<std::size_t>(kDispatchers) * kRounds *
                              kCount);

  const DispatchStats after = pool.dispatch_stats();
  const std::uint64_t dispatches = after.dispatches - before.dispatches;
  const std::uint64_t chunks = after.chunks - before.chunks;
  const std::uint64_t steals = after.steals - before.steals;
  // Every parallel_for_indexed above goes through dispatch_indexed (pool
  // size > 1, count > 1, never nested), exactly once each.
  EXPECT_EQ(dispatches,
            static_cast<std::uint64_t>(kDispatchers) * kRounds);
  // At least one chunk per dispatch; a steal is always a chunk.
  EXPECT_GE(chunks, dispatches);
  EXPECT_LE(steals, chunks);
}

}  // namespace
