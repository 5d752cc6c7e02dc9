// The host-side worker pool and the index-order commit contract of
// parallel_for_indexed (sweep output must be byte-identical to a serial
// loop — see DESIGN.md, "Host execution engine").
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace {

using namespace opalsim;

TEST(ThreadPool, DefaultThreadsHonorsEnvOverride) {
  ::setenv("OPALSIM_THREADS", "3", 1);
  EXPECT_EQ(util::ThreadPool::default_threads(), 3u);
  ::setenv("OPALSIM_THREADS", "0", 1);  // clamped to >= 1
  EXPECT_EQ(util::ThreadPool::default_threads(), 1u);
  ::setenv("OPALSIM_THREADS", "-5", 1);
  EXPECT_EQ(util::ThreadPool::default_threads(), 1u);
  ::unsetenv("OPALSIM_THREADS");
  EXPECT_GE(util::ThreadPool::default_threads(), 1u);
}

TEST(ParallelForIndexed, CommitsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kCount = 200;
  std::vector<int> hits(kCount, 0);
  std::vector<std::size_t> value(kCount, 0);
  util::parallel_for_indexed(pool, kCount, [&](std::size_t i) {
    ++hits[i];
    value[i] = i * i;
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
    EXPECT_EQ(value[i], i * i);
  }
}

TEST(ParallelForIndexed, IndexCommitMatchesSerialLoop) {
  // The determinism contract: a preallocated slot per index filled by the
  // pool equals the same loop run serially, element for element.
  constexpr std::size_t kCount = 97;
  auto work = [](std::size_t i) { return static_cast<double>(i) * 1.5 + 7.0; };
  std::vector<double> serial(kCount);
  for (std::size_t i = 0; i < kCount; ++i) serial[i] = work(i);
  std::vector<double> pooled(kCount);
  util::ThreadPool pool(8);
  util::parallel_for_indexed(pool, kCount,
                             [&](std::size_t i) { pooled[i] = work(i); });
  EXPECT_EQ(serial, pooled);
}

TEST(ParallelForIndexed, SingleThreadPoolRunsInline) {
  util::ThreadPool pool(1);
  std::vector<std::size_t> order;
  util::parallel_for_indexed(pool, 10,
                             [&](std::size_t i) { order.push_back(i); });
  // Inline fallback preserves loop order exactly (no data race possible).
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ParallelForIndexed, ZeroAndOneCount) {
  util::ThreadPool pool(4);
  int calls = 0;
  util::parallel_for_indexed(pool, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  util::parallel_for_indexed(pool, 1, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 0u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForIndexed, NestedDispatchRunsInline) {
  // A fan-out from inside a dispatched index must degrade to an inline
  // loop (re-dispatching would deadlock on the single active job slot).
  util::ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  util::parallel_for_indexed(pool, 8, [&](std::size_t) {
    EXPECT_TRUE(util::ThreadPool::in_dispatch());
    util::parallel_for_indexed(pool, 5,
                               [&](std::size_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_FALSE(util::ThreadPool::in_dispatch());
  EXPECT_EQ(inner_calls.load(), 8 * 5);
}

TEST(ParallelForIndexed, DispatchStatsCountChunksAndDispatches) {
  util::ThreadPool pool(4);
  const util::DispatchStats before = pool.dispatch_stats();
  constexpr std::size_t kCount = 1000;
  std::atomic<std::size_t> ran{0};
  util::parallel_for_indexed(pool, kCount,
                             [&](std::size_t) { ran.fetch_add(1); });
  const util::DispatchStats after = pool.dispatch_stats();
  EXPECT_EQ(ran.load(), kCount);
  EXPECT_EQ(after.dispatches, before.dispatches + 1);
  // 1000 indices over 5 blocks (4 workers + caller) at chunk size
  // 1000/(5*8) = 25: every index is handed out in some chunk, so the chunk
  // count is at least count/chunk and each chunk is nonempty.
  EXPECT_GE(after.chunks, before.chunks + kCount / 25);
  EXPECT_GE(after.steals, before.steals);  // steals are scheduling-dependent
}

TEST(ParallelForIndexed, StealingDrainsSkewedWork) {
  // One index is vastly more expensive than the rest: the other
  // participants must drain the remaining chunks (work stealing), so total
  // wall time is bounded by the slow index, and every index still runs
  // exactly once.
  util::ThreadPool pool(4);
  constexpr std::size_t kCount = 400;
  std::vector<int> hits(kCount, 0);
  util::parallel_for_indexed(pool, kCount, [&](std::size_t i) {
    if (i == 0) {
      // Busy work, not sleep: keep the participant genuinely occupied.
      volatile double x = 1.0;
      for (int k = 0; k < 2'000'000; ++k) x = x * 1.0000001 + 0.5;
    }
    ++hits[i];
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForIndexed, BackToBackDispatchesReuseThePool) {
  // The job descriptor lives on the dispatcher's stack; consecutive
  // dispatches must not see stale state from the previous one (seq latch).
  util::ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> ran{0};
    const std::size_t count = 1 + static_cast<std::size_t>(round) * 7 % 97;
    util::parallel_for_indexed(pool, count,
                               [&](std::size_t) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), count) << "round " << round;
  }
}

TEST(ParallelForIndexed, ConcurrentDispatchersSerialize) {
  // Two threads sharing one pool: dispatch_indexed serializes them; both
  // fan-outs complete with every index run exactly once.
  util::ThreadPool pool(4);
  constexpr std::size_t kCount = 300;
  std::vector<int> a(kCount, 0), b(kCount, 0);
  std::thread other([&] {
    util::parallel_for_indexed(pool, kCount, [&](std::size_t i) { ++b[i]; });
  });
  util::parallel_for_indexed(pool, kCount, [&](std::size_t i) { ++a[i]; });
  other.join();
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(a[i], 1);
    EXPECT_EQ(b[i], 1);
  }
}

TEST(ParallelForIndexed, PropagatesFirstException) {
  util::ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    util::parallel_for_indexed(pool, 50, [&](std::size_t i) {
      if (i == 13) throw std::runtime_error("boom");
      completed.fetch_add(1);
    });
    FAIL() << "expected exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // All other iterations still ran (the pool drains before rethrowing).
  EXPECT_EQ(completed.load(), 49);
}

}  // namespace
