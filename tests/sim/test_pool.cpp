// FramePool: slab reuse, stats accounting, the oversize fallback, the
// owner-thread assert, and — the case that matters for leak-freedom — early
// engine teardown with processes still parked (their frames must come back
// to the pool via the root destroy chain; ASan/LSan in CI verifies nothing
// leaks for real).
#include "sim/pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace opalsim::sim {
namespace {

TEST(FramePool, ReusesFreedBlock) {
  // Warm up: whatever this test framework allocated before is irrelevant —
  // the free-then-reallocate pair below must hand back the same block.
  void* a = FramePool::allocate_raw(200);
  std::memset(a, 0xab, 200);
  FramePool::deallocate(a);
  void* b = FramePool::allocate_raw(200);  // same size class
  EXPECT_EQ(a, b);
  FramePool::deallocate(b);
}

TEST(FramePool, DistinctSizeClassesDoNotAlias) {
  void* small = FramePool::allocate_raw(40);
  void* big = FramePool::allocate_raw(3000);
  EXPECT_NE(small, big);
  FramePool::deallocate(small);
  FramePool::deallocate(big);
  // A different class: freeing 40 bytes must not satisfy a 3000-byte ask.
  void* big2 = FramePool::allocate_raw(3000);
  EXPECT_EQ(big2, big);
  FramePool::deallocate(big2);
}

TEST(FramePool, StatsTrackOutstanding) {
  const FramePool::Stats before = FramePool::local_stats();
  void* p = FramePool::allocate_raw(100);
  const FramePool::Stats during = FramePool::local_stats();
  EXPECT_EQ(during.outstanding, before.outstanding + 1);
  FramePool::deallocate(p);
  const FramePool::Stats after = FramePool::local_stats();
  EXPECT_EQ(after.outstanding, before.outstanding);
  EXPECT_EQ(after.freed, before.freed + 1);
}

TEST(FramePool, OversizeFallsBackToHeap) {
  const FramePool::Stats before = FramePool::local_stats();
  void* p = FramePool::allocate_raw(1 << 20);  // 1 MiB: far above 4 KiB cap
  std::memset(p, 0, 1 << 20);
  const FramePool::Stats during = FramePool::local_stats();
  EXPECT_EQ(during.fallback, before.fallback + 1);
  EXPECT_EQ(during.outstanding, before.outstanding);  // not pool-tracked
  FramePool::deallocate(p);
}

#ifndef NDEBUG
// Pooled blocks must be freed on their allocating thread: the owner's slabs
// die with that thread.  The block header names the owner, and deallocate()
// asserts on it — this pins that the assert is real.
TEST(FramePoolDeathTest, ForeignThreadFreeAborts) {
  // What GTEST_FLAG_SET(death_test_style, ...) expands to; googletest 1.11
  // predates that macro.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        void* p = FramePool::allocate_raw(100);
        std::thread([p] { FramePool::deallocate(p); }).join();
      },
      "freed on a thread other than its allocating one");
}
#endif

Task<void> nap(Engine* engine, double dt) { co_await engine->delay(dt); }

Task<void> nested(Engine* engine) {
  co_await nap(engine, 1.0);
  co_await nap(engine, 1.0);
}

TEST(FramePool, EngineChurnReusesFrames) {
  const FramePool::Stats before = FramePool::local_stats();
  for (int round = 0; round < 50; ++round) {
    Engine engine;
    for (int i = 0; i < 8; ++i) engine.spawn(nested(&engine));
    engine.run();
  }
  const FramePool::Stats after = FramePool::local_stats();
  // Frames and ProcessState blocks recycle: after the first rounds warm the
  // free lists, later rounds are served entirely from reuse.
  EXPECT_GT(after.reused, before.reused);
  const double hit =
      static_cast<double>(after.reused - before.reused) /
      static_cast<double>((after.reused - before.reused) +
                          (after.carved - before.carved));
  EXPECT_GT(hit, 0.5);
  EXPECT_EQ(after.outstanding, before.outstanding);  // no leaked frames
}

TEST(FramePool, EarlyEngineTeardownReturnsAllFrames) {
  const FramePool::Stats before = FramePool::local_stats();
  {
    Engine engine;
    // Processes parked mid-delay: none of these frames reach final_suspend
    // before the engine dies.
    for (int i = 0; i < 16; ++i) engine.spawn(nap(&engine, 1000.0));
    engine.run_until(1.0);
    EXPECT_EQ(engine.counters().frame_pool.outstanding,
              FramePool::local_stats().outstanding);
  }
  // Engine destruction destroys every root, unwinding nested task frames;
  // all pooled blocks must be back on the free lists (ASan would flag any
  // true leak; the counter check catches pool-accounting drift).
  const FramePool::Stats after = FramePool::local_stats();
  EXPECT_EQ(after.outstanding, before.outstanding);
}

}  // namespace
}  // namespace opalsim::sim
