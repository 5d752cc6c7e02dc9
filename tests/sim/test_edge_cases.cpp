// Edge-case and stress tests for the simulation engine beyond the basic
// contracts: resumption after run_until, spawning during a run, large event
// volumes, and interleaving patterns that exercise the primitives together.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/mailbox.hpp"
#include "sim/resource.hpp"

namespace {

using opalsim::sim::Engine;
using opalsim::sim::Event;
using opalsim::sim::Mailbox;
using opalsim::sim::Resource;
using opalsim::sim::Task;

TEST(EngineEdge, RunUntilThenRunResumesSeamlessly) {
  Engine eng;
  std::vector<double> ticks;
  auto proc = [&]() -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await eng.delay(1.0);
      ticks.push_back(eng.now());
    }
  };
  eng.spawn(proc());
  eng.run_until(3.5);
  EXPECT_EQ(ticks.size(), 3u);
  eng.run_until(7.0);
  EXPECT_EQ(ticks.size(), 7u);
  eng.run();
  ASSERT_EQ(ticks.size(), 10u);
  EXPECT_DOUBLE_EQ(ticks.back(), 10.0);
}

TEST(EngineEdge, SpawnDuringRunIsScheduled) {
  Engine eng;
  bool child_ran = false;
  auto child = [&]() -> Task<void> {
    co_await eng.delay(1.0);
    child_ran = true;
  };
  auto parent = [&]() -> Task<void> {
    co_await eng.delay(2.0);
    eng.spawn(child());
    co_await eng.delay(5.0);
  };
  eng.spawn(parent());
  eng.run();
  EXPECT_TRUE(child_ran);
  EXPECT_DOUBLE_EQ(eng.now(), 7.0);
}

TEST(EngineEdge, TenThousandProcessesComplete) {
  Engine eng;
  int done = 0;
  auto proc = [&](int k) -> Task<void> {
    co_await eng.delay(0.001 * (k % 97));
    ++done;
  };
  for (int k = 0; k < 10'000; ++k) eng.spawn(proc(k));
  eng.run();
  EXPECT_EQ(done, 10'000);
}

TEST(EngineEdge, ZeroDelayPreservesFifoWithinTimestamp) {
  Engine eng;
  std::vector<int> order;
  auto proc = [&](int id) -> Task<void> {
    co_await eng.delay(0.0);
    order.push_back(id);
  };
  for (int i = 0; i < 5; ++i) eng.spawn(proc(i));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventEdge, SetDuringWaiterResumptionWavesNextGeneration) {
  Engine eng;
  Event ev(eng);
  int first_wave = 0, second_wave = 0;
  auto waiter1 = [&]() -> Task<void> {
    co_await ev.wait();
    ++first_wave;
    ev.reset();  // re-arm from inside a resumed waiter
  };
  auto waiter2 = [&]() -> Task<void> {
    co_await eng.delay(2.0);  // waits on the re-armed generation
    co_await ev.wait();
    ++second_wave;
  };
  eng.spawn(waiter1());
  eng.spawn(waiter2());
  auto setter = [&]() -> Task<void> {
    co_await eng.delay(1.0);
    ev.set();
    co_await eng.delay(2.0);
    ev.set();
  };
  eng.spawn(setter());
  eng.run();
  EXPECT_EQ(first_wave, 1);
  EXPECT_EQ(second_wave, 1);
}

TEST(ResourceEdge, InterleavedAcquireReleaseKeepsInvariant) {
  Engine eng;
  Resource r(eng, 3);
  int max_concurrent = 0, current = 0;
  auto worker = [&](int k) -> Task<void> {
    co_await eng.delay(0.1 * (k % 5));
    auto lock = co_await r.scoped_acquire();
    ++current;
    max_concurrent = std::max(max_concurrent, current);
    EXPECT_LE(current, 3);
    co_await eng.delay(0.25);
    --current;
  };
  for (int k = 0; k < 20; ++k) eng.spawn(worker(k));
  eng.run();
  EXPECT_EQ(current, 0);
  EXPECT_EQ(max_concurrent, 3);
  EXPECT_EQ(r.in_use(), 0);
}

TEST(EngineEdge, DeterminismAcrossPrimitivesMix) {
  auto run_once = [] {
    Engine eng;
    Mailbox<int> box(eng);
    Resource r(eng, 2);
    Event done(eng);
    int finished = 0;
    bool drained = false;
    double checksum = 0.0;
    auto worker = [&](int id) -> Task<void> {
      for (int k = 0; k < 5; ++k) {
        auto lock = co_await r.scoped_acquire();
        co_await eng.delay(0.01 * ((id + k) % 3));
        box.put(id * 100 + k);
        checksum += eng.now();
      }
      if (++finished == 2) done.set();
    };
    auto drain = [&]() -> Task<void> {
      // The four odd payloads first (predicate matching), then the rest in
      // arrival order.
      for (int k = 0; k < 10; ++k) {
        const int v = co_await box.get(
            [k](const int& m) { return k >= 4 || m % 2 == 1; });
        checksum += v * 1e-3 * (k + 1);
      }
      co_await done.wait();
      checksum += eng.now();
      drained = true;
    };
    eng.spawn(worker(1));
    eng.spawn(worker(2));
    eng.spawn(drain());
    eng.run();
    EXPECT_TRUE(drained);
    EXPECT_EQ(box.size(), 0u);
    return checksum;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
