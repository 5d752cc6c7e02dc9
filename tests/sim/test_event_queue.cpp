// Event-queue equivalence: the ladder queue must pop the exact (t, seq)
// sequence of the reference binary heap under randomized mixes of pushes,
// pops and cancels — ties (equal timestamps) included, since FIFO order
// among simultaneous events is what keeps virtual-time runs bit-identical.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace opalsim::sim {
namespace {

// The handle field is never resumed in these tests; a null handle is fine.
ScheduledEvent ev(SimTime t, std::uint64_t seq) {
  return ScheduledEvent{t, seq, nullptr};
}

TEST(EventQueue, PopsTimeOrder) {
  for (const auto kind : {EventQueueKind::kHeap, EventQueueKind::kLadder}) {
    auto q = make_event_queue(kind);
    q->push(ev(3.0, 0));
    q->push(ev(1.0, 1));
    q->push(ev(2.0, 2));
    EXPECT_DOUBLE_EQ(q->next_time(), 1.0);
    EXPECT_EQ(q->pop().seq, 1u);
    EXPECT_EQ(q->pop().seq, 2u);
    EXPECT_EQ(q->pop().seq, 0u);
    EXPECT_TRUE(q->empty());
  }
}

TEST(EventQueue, TiesPopInSequenceOrder) {
  for (const auto kind : {EventQueueKind::kHeap, EventQueueKind::kLadder}) {
    auto q = make_event_queue(kind);
    for (std::uint64_t s = 0; s < 100; ++s) q->push(ev(5.0, s));
    for (std::uint64_t s = 0; s < 100; ++s) {
      EXPECT_EQ(q->pop().seq, s) << "kind " << static_cast<int>(kind);
    }
  }
}

TEST(EventQueue, CancelSkipsEvent) {
  for (const auto kind : {EventQueueKind::kHeap, EventQueueKind::kLadder}) {
    auto q = make_event_queue(kind);
    q->push(ev(1.0, 0));
    q->push(ev(2.0, 1));
    q->push(ev(3.0, 2));
    q->cancel(1);
    EXPECT_EQ(q->size(), 2u);
    EXPECT_EQ(q->pop().seq, 0u);
    EXPECT_DOUBLE_EQ(q->next_time(), 3.0);
    EXPECT_EQ(q->pop().seq, 2u);
    EXPECT_TRUE(q->empty());
    EXPECT_EQ(q->stats().cancels, 1u);
  }
}

TEST(EventQueue, StatsCountOps) {
  auto q = make_event_queue(EventQueueKind::kLadder);
  for (std::uint64_t s = 0; s < 10; ++s) q->push(ev(1.0 + s, s));
  for (int i = 0; i < 4; ++i) q->pop();
  EXPECT_EQ(q->stats().pushes, 10u);
  EXPECT_EQ(q->stats().pops, 4u);
  EXPECT_EQ(q->stats().peak_size, 10u);
}

// The property test: 10k mixed operations driven by one RNG applied to both
// queues; every pop must agree exactly.  Time distribution is deliberately
// nasty for a ladder: bursts of identical timestamps (ties), near-past
// inserts right above the current clock, far-future outliers, and enough
// interleaved pops that every band transition (bottom drain, rung advance,
// far split) is crossed many times.
void run_property_mix(std::uint64_t rng_seed, bool with_cancels) {
  auto ladder = make_event_queue(EventQueueKind::kLadder);
  auto heap = make_event_queue(EventQueueKind::kHeap);
  util::Xoshiro256 rng(rng_seed);

  std::uint64_t next_seq = 0;
  SimTime now = 0.0;
  std::vector<std::uint64_t> pending;  // seqs currently in both queues
  constexpr int kOps = 10000;

  for (int op = 0; op < kOps; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.55 || pending.empty()) {
      // Push: choose one of several adversarial time patterns.
      SimTime t;
      const double pat = rng.uniform();
      if (pat < 0.30) {
        t = now;  // exact tie with the clock
      } else if (pat < 0.55) {
        t = now + std::floor(rng.uniform() * 4.0);  // heavy discrete ties
      } else if (pat < 0.85) {
        t = now + rng.uniform() * 10.0;  // near future
      } else {
        t = now + 100.0 + rng.uniform() * 1000.0;  // far outlier
      }
      const ScheduledEvent e = ev(t, next_seq++);
      ladder->push(e);
      heap->push(e);
      pending.push_back(e.seq);
    } else if (with_cancels && roll < 0.65) {
      const std::size_t victim =
          static_cast<std::size_t>(rng.uniform() * pending.size());
      const std::uint64_t seq = pending[victim];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(victim));
      ladder->cancel(seq);
      heap->cancel(seq);
    } else {
      ASSERT_FALSE(ladder->empty());
      ASSERT_FALSE(heap->empty());
      ASSERT_DOUBLE_EQ(ladder->next_time(), heap->next_time());
      const ScheduledEvent a = ladder->pop();
      const ScheduledEvent b = heap->pop();
      ASSERT_EQ(a.seq, b.seq) << "divergence at op " << op;
      ASSERT_DOUBLE_EQ(a.t, b.t);
      ASSERT_GE(a.t, now);  // time never runs backwards
      now = a.t;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (pending[i] == a.seq) {
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    ASSERT_EQ(ladder->size(), heap->size());
  }

  // Drain: the full remaining order must agree too.
  while (!heap->empty()) {
    ASSERT_FALSE(ladder->empty());
    const ScheduledEvent a = ladder->pop();
    const ScheduledEvent b = heap->pop();
    ASSERT_EQ(a.seq, b.seq);
    ASSERT_DOUBLE_EQ(a.t, b.t);
  }
  ASSERT_TRUE(ladder->empty());
}

TEST(EventQueueProperty, LadderMatchesHeap10kOps) {
  run_property_mix(0x5eed1, /*with_cancels=*/false);
}

TEST(EventQueueProperty, LadderMatchesHeap10kOpsWithCancels) {
  run_property_mix(0x5eed2, /*with_cancels=*/true);
}

TEST(EventQueueProperty, MultipleSeeds) {
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    run_property_mix(seed, /*with_cancels=*/true);
  }
}

// Cancel-churn profile: bursts of pushes followed by bursts of cancels
// (many armed timers, most cancelled before they fire), with only
// occasional pops — so tombstones cannot ride out on the pop-side
// purge and must outgrow the live count.  Compaction must actually fire,
// keep the tombstone count bounded by max(threshold, live), and never
// perturb the pop order — ~10k ops checked against the heap oracle with
// the invariant asserted after every step.
TEST(EventQueueProperty, CancelChurnCompactsAndStaysExact) {
  constexpr std::size_t kCompactMinTombstones = 64;  // mirrors event_queue.hpp
  for (std::uint64_t seed = 21; seed < 24; ++seed) {
    auto ladder = make_event_queue(EventQueueKind::kLadder);
    auto heap = make_event_queue(EventQueueKind::kHeap);
    util::Xoshiro256 rng(seed);

    std::uint64_t next_seq = 0;
    SimTime now = 0.0;
    std::vector<std::uint64_t> pending;
    int ops = 0;

    const auto check_bound = [&] {
      // The bound: compaction fires once tombstones exceed both the
      // threshold and the live count, so the store never holds more than
      // max(threshold, live) cancelled entries.
      for (const auto* q : {ladder.get(), heap.get()}) {
        ASSERT_LE(q->tombstones(),
                  std::max(kCompactMinTombstones, q->size()))
            << q->name() << " seed " << seed << " op " << ops;
      }
      ASSERT_EQ(ladder->size(), heap->size());
    };

    for (int cycle = 0; cycle < 26; ++cycle) {
      // Push burst: 200 pushes across near-future ties and far
      // outliers (so cancelled entries are NOT all at the top of the order,
      // where pops would purge them lazily).
      for (int i = 0; i < 200; ++i) {
        const double pat = rng.uniform();
        const SimTime t = pat < 0.5 ? now + std::floor(rng.uniform() * 4.0)
                                    : now + 50.0 + rng.uniform() * 500.0;
        const ScheduledEvent e = ev(t, next_seq++);
        ladder->push(e);
        heap->push(e);
        pending.push_back(e.seq);
        ++ops;
        check_bound();
      }
      // Cancel burst: cancel ~65% of everything pending.
      const std::size_t victims = (pending.size() * 13) / 20;
      for (std::size_t i = 0; i < victims; ++i) {
        const std::size_t victim =
            static_cast<std::size_t>(rng.uniform() * pending.size());
        const std::uint64_t seq = pending[victim];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(victim));
        ladder->cancel(seq);
        heap->cancel(seq);
        ++ops;
        check_bound();
      }
      // A few pops: order must agree exactly.
      for (int i = 0; i < 40 && !heap->empty(); ++i) {
        ASSERT_DOUBLE_EQ(ladder->next_time(), heap->next_time());
        const ScheduledEvent a = ladder->pop();
        const ScheduledEvent b = heap->pop();
        ASSERT_EQ(a.seq, b.seq) << "seed " << seed << " op " << ops;
        ASSERT_DOUBLE_EQ(a.t, b.t);
        ASSERT_GE(a.t, now);
        now = a.t;
        for (std::size_t j = 0; j < pending.size(); ++j) {
          if (pending[j] == a.seq) {
            pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(j));
            break;
          }
        }
        ++ops;
        check_bound();
      }
    }
    ASSERT_GE(ops, 10000);
    EXPECT_GT(ladder->compactions(), 0u) << "seed " << seed;
    EXPECT_GT(heap->compactions(), 0u) << "seed " << seed;

    while (!heap->empty()) {
      ASSERT_FALSE(ladder->empty());
      const ScheduledEvent a = ladder->pop();
      const ScheduledEvent b = heap->pop();
      ASSERT_EQ(a.seq, b.seq);
      ASSERT_DOUBLE_EQ(a.t, b.t);
    }
    ASSERT_TRUE(ladder->empty());
    // Post-drain only sub-threshold tombstones may linger (pops purge from
    // the top; compaction reclaims the rest once the threshold is crossed).
    EXPECT_LE(ladder->tombstones(), kCompactMinTombstones);
    EXPECT_LE(heap->tombstones(), kCompactMinTombstones);
  }
}

// End-to-end: an engine workload produces identical virtual-time traces
// under both queue kinds.
Task<void> ping(Engine* engine, std::vector<double>* trace, double period,
                int reps) {
  for (int i = 0; i < reps; ++i) {
    co_await engine->delay(period);
    trace->push_back(engine->now());
  }
}

std::vector<double> run_trace(EventQueueKind kind) {
  Engine engine(kind);
  std::vector<double> trace;
  for (int p = 0; p < 16; ++p) {
    engine.spawn(ping(&engine, &trace, 0.25 * (p % 5 + 1), 40));
  }
  engine.run();
  return trace;
}

TEST(EventQueueProperty, EngineTraceIdenticalAcrossKinds) {
  const std::vector<double> heap_trace = run_trace(EventQueueKind::kHeap);
  const std::vector<double> ladder_trace = run_trace(EventQueueKind::kLadder);
  ASSERT_EQ(heap_trace.size(), ladder_trace.size());
  for (std::size_t i = 0; i < heap_trace.size(); ++i) {
    ASSERT_EQ(heap_trace[i], ladder_trace[i]) << "index " << i;
  }
}

TEST(EventQueue, DefaultKindRoundTrips) {
  const EventQueueKind before = default_event_queue();
  set_default_event_queue(EventQueueKind::kHeap);
  EXPECT_EQ(default_event_queue(), EventQueueKind::kHeap);
  {
    Engine engine;  // picks up the process default
    EXPECT_STREQ(engine.counters().queue_name, "heap");
  }
  set_default_event_queue(before);
}

}  // namespace
}  // namespace opalsim::sim
