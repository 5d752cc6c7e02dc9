// The host-side worker pool and the index-order commit contract of
// parallel_for_indexed (sweep output must be byte-identical to a serial
// loop — see DESIGN.md, "Host execution engine").
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/fatal.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace opalsim;

TEST(ThreadPool, DefaultThreadsHonorsEnvOverride) {
  ::setenv("OPALSIM_THREADS", "3", 1);
  EXPECT_EQ(util::ThreadPool::default_threads(), 3u);
  ::unsetenv("OPALSIM_THREADS");
  EXPECT_GE(util::ThreadPool::default_threads(), 1u);
}

TEST(ThreadPool, ParseThreadsAcceptsWholeDecimalsInRange) {
  EXPECT_EQ(util::ThreadPool::parse_threads("1"), 1u);
  EXPECT_EQ(util::ThreadPool::parse_threads("3"), 3u);
  EXPECT_EQ(util::ThreadPool::parse_threads("007"), 7u);
  EXPECT_EQ(util::ThreadPool::parse_threads("256"), 256u);
  EXPECT_EQ(util::ThreadPool::kMaxThreads, 256u);
}

TEST(ThreadPool, ParseThreadsRefusesEverythingElse) {
  // Empty, zero, signed, padded, suffixed, exponent, fractional and hex
  // forms, and values past the cap or past 32 bits: each is refused by
  // name, none is cut down to a number that parses.
  for (const char* bad :
       {"", "0", "-5", "+3", " 3", "3 ", "3x", "1e3", "3.0", "0x10", "257",
        "1000", "4294967297", "99999999999999999999999"}) {
    SCOPED_TRACE(std::string("OPALSIM_THREADS=\"") + bad + "\"");
    try {
      util::ThreadPool::parse_threads(bad);
      ADD_FAILURE() << "accepted";
    } catch (const util::FatalError& e) {
      EXPECT_EQ(e.subsystem(), "util");
      EXPECT_NE(std::string(e.what()).find("OPALSIM_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ThreadPool, MalformedEnvBuildsNoPool) {
  // The default size is read before the pool is built, so a refused value
  // throws without starting a thread.
  ::setenv("OPALSIM_THREADS", "4294967297", 1);
  EXPECT_THROW(util::ThreadPool::default_threads(), util::FatalError);
  EXPECT_THROW(util::ThreadPool pool, util::FatalError);
  ::unsetenv("OPALSIM_THREADS");
}

/// Shared state of the run_assisted tests: helpers count themselves in and
/// spin until main is done.
struct AssistProbe {
  std::atomic<int> helpers{0};
  std::atomic<bool> main_done{false};
  int main_runs = 0;
  static void help(void* ctx) {
    auto& pr = *static_cast<AssistProbe*>(ctx);
    pr.helpers.fetch_add(1);
    while (!pr.main_done.load()) std::this_thread::yield();
  }
  /// Waits (boundedly) for one helper, then finishes.
  static void main_waits_for_a_helper(void* ctx) {
    auto& pr = *static_cast<AssistProbe*>(ctx);
    ++pr.main_runs;
    for (long spin = 0; spin < 1'000'000 && pr.helpers.load() == 0;
         ++spin) {
      std::this_thread::yield();
    }
    pr.main_done.store(true);
  }
  static void main_alone(void* ctx) {
    auto& pr = *static_cast<AssistProbe*>(ctx);
    ++pr.main_runs;
    pr.main_done.store(true);
  }
};

TEST(RunAssisted, HelpersRunBesideMainAndAreJoined) {
  util::ThreadPool pool(4);
  const auto before = pool.dispatch_stats().assists;
  AssistProbe pr;
  pool.run_assisted(2, AssistProbe::help,
                    AssistProbe::main_waits_for_a_helper, &pr);
  // Returned only after every helper that started left: none is still
  // spinning on the probe, and no more than two started.
  EXPECT_EQ(pr.main_runs, 1);
  EXPECT_GE(pr.helpers.load(), 1);
  EXPECT_LE(pr.helpers.load(), 2);
  EXPECT_EQ(pool.dispatch_stats().assists, before + 1);
}

TEST(RunAssisted, HelpersCappedAtPoolSize) {
  util::ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    AssistProbe pr;
    pool.run_assisted(8, AssistProbe::help,
                      AssistProbe::main_waits_for_a_helper, &pr);
    ASSERT_LE(pr.helpers.load(), 2) << "round " << round;
  }
}

TEST(RunAssisted, LateHelperBacksOffTheNextCalls) {
  // A helper still inside well after main returned counts as late: the
  // next 8 calls run main alone, and the one after offers helpers again.
  util::ThreadPool pool(2);
  struct Slow {
    std::atomic<int> started{0};
    static void help(void* ctx) {
      static_cast<Slow*>(ctx)->started.fetch_add(1);
      for (int k = 0; k < 200'000; ++k) std::this_thread::yield();
    }
    static void wait_for_helper(void* ctx) {
      auto& sl = *static_cast<Slow*>(ctx);
      for (long spin = 0; spin < 1'000'000 && sl.started.load() == 0;
           ++spin) {
        std::this_thread::yield();
      }
    }
  } slow;
  pool.run_assisted(1, Slow::help, Slow::wait_for_helper, &slow);
  ASSERT_EQ(slow.started.load(), 1) << "no helper started; nothing to test";
  EXPECT_EQ(pool.dispatch_stats().assists, 1u);

  for (int call = 0; call < 8; ++call) {
    AssistProbe skipped;
    pool.run_assisted(2, AssistProbe::help, AssistProbe::main_alone,
                      &skipped);
    EXPECT_EQ(skipped.main_runs, 1);
    EXPECT_EQ(skipped.helpers.load(), 0) << "call " << call;
  }
  EXPECT_EQ(pool.dispatch_stats().assists, 1u);

  AssistProbe offered;
  pool.run_assisted(2, AssistProbe::help, AssistProbe::main_alone, &offered);
  EXPECT_EQ(offered.main_runs, 1);
  EXPECT_EQ(pool.dispatch_stats().assists, 2u);
}

TEST(RunAssisted, MainRunsAloneInsideADispatch) {
  util::ThreadPool outer(3), pool(3);
  std::atomic<int> helpers{0};
  util::parallel_for_indexed(outer, 6, [&](std::size_t) {
    AssistProbe pr;
    pool.run_assisted(2, AssistProbe::help, AssistProbe::main_alone, &pr);
    EXPECT_EQ(pr.main_runs, 1);
    helpers.fetch_add(pr.helpers.load());
  });
  EXPECT_EQ(helpers.load(), 0);
  EXPECT_EQ(pool.dispatch_stats().assists, 0u);
}

TEST(RunAssisted, BusyPoolRunsMainAlone) {
  // While one thread's assisted call holds the pool, another thread's call
  // runs its main alone instead of queueing.
  util::ThreadPool pool(3);
  struct First {
    std::atomic<bool> in_main{false};
    std::atomic<bool> release{false};
  } first;
  std::thread holder([&] {
    pool.run_assisted(
        1, [](void*) {},
        [](void* ctx) {
          auto& f = *static_cast<First*>(ctx);
          f.in_main.store(true);
          while (!f.release.load()) std::this_thread::yield();
        },
        &first);
  });
  while (!first.in_main.load()) std::this_thread::yield();
  AssistProbe pr;
  pool.run_assisted(2, AssistProbe::help, AssistProbe::main_alone, &pr);
  EXPECT_EQ(pr.main_runs, 1);
  EXPECT_EQ(pr.helpers.load(), 0);
  first.release.store(true);
  holder.join();
  EXPECT_EQ(pool.dispatch_stats().assists, 1u);
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
  // One index per grab: the grab count is exactly the index count,
  // whatever the scheduling.
  EXPECT_EQ(after.chunks, before.chunks + kCount);
  EXPECT_GE(after.steals, before.steals);  // steals are scheduling-dependent
  EXPECT_LE(after.steals - before.steals, kCount);
}

TEST(ParallelForIndexed, HeavyIndicesAtABlockEndAreGrabbedOneByOne) {
  // A sweep whose costliest runs sit together at the end of one
  // participant's block: a thief must take them one at a time, never
  // several in one grab, so they spread over whoever is idle.  96 indices
  // over 3 blocks (2 workers + caller) put the heavy ones, 28..31, at the
  // end of block 0; a grab of count/(participants·8) = 4 indices would
  // take all four at once.
  util::ThreadPool pool(2);
  constexpr std::size_t kCount = 96;
  constexpr std::size_t kHeavyBegin = 28, kHeavyEnd = 32;
  const util::DispatchStats before = pool.dispatch_stats();
  std::vector<std::atomic<int>> hits(kCount);
  util::parallel_for_indexed(pool, kCount, [&](std::size_t i) {
    if (i >= kHeavyBegin && i < kHeavyEnd) {
      volatile double x = 1.0;
      for (int k = 0; k < 300'000; ++k) x = x * 1.0000001 + 0.5;
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  const util::DispatchStats after = pool.dispatch_stats();
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(after.dispatches, before.dispatches + 1);
  // Every grab hands out at least one index, so as many grabs as indices
  // means no grab took more than one.
  EXPECT_EQ(after.chunks, before.chunks + kCount);
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
