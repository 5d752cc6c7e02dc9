// Event-queue oracle tests: the engine's heap must pop the exact (t, seq)
// sequence of a test-local reference — an ordered std::set of the live
// (t, seq) pairs — under randomized mixes of pushes, pops and cancels, ties
// (equal timestamps) included, since FIFO order among simultaneous events
// is what keeps virtual-time runs bit-identical.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace opalsim::sim {
namespace {

// The handle field is never resumed in these tests; a null handle is fine.
ScheduledEvent ev(SimTime t, std::uint64_t seq) {
  return ScheduledEvent{t, seq, nullptr};
}

TEST(EventQueue, PopsTimeOrder) {
  EventQueue q;
  q.push(ev(3.0, 0));
  q.push(ev(1.0, 1));
  q.push(ev(2.0, 2));
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesPopInSequenceOrder) {
  EventQueue q;
  for (std::uint64_t s = 0; s < 100; ++s) q.push(ev(5.0, s));
  for (std::uint64_t s = 0; s < 100; ++s) EXPECT_EQ(q.pop().seq, s);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  q.push(ev(1.0, 0));
  q.push(ev(2.0, 1));
  q.push(ev(3.0, 2));
  q.cancel(1);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_DOUBLE_EQ(q.next_time(), 3.0);
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().cancels, 1u);
}

TEST(EventQueue, StatsCountOps) {
  EventQueue q;
  for (std::uint64_t s = 0; s < 10; ++s) q.push(ev(1.0 + s, s));
  for (int i = 0; i < 4; ++i) q.pop();
  EXPECT_EQ(q.stats().pushes, 10u);
  EXPECT_EQ(q.stats().pops, 4u);
  EXPECT_EQ(q.stats().peak_size, 10u);
}

using Key = std::pair<SimTime, std::uint64_t>;

/// The oracle: the live events as an ordered set of (t, seq), whose
/// lexicographic order is the engine's contract.  `pending` mirrors it as a
/// vector so cancels can pick a victim uniformly.
struct Reference {
  std::set<Key> live;
  std::vector<Key> pending;

  void push(const ScheduledEvent& e) {
    live.emplace(e.t, e.seq);
    pending.emplace_back(e.t, e.seq);
  }
  /// Removes and returns pending[i] (a cancel).
  Key take(std::size_t i) {
    const Key k = pending[i];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    live.erase(k);
    return k;
  }
  /// Removes and returns the smallest live (t, seq) (a pop).
  Key pop() {
    const Key k = *live.begin();
    live.erase(live.begin());
    pending.erase(std::find(pending.begin(), pending.end(), k));
    return k;
  }
};

/// Pops one event from both and requires they agree exactly.
void expect_same_pop(EventQueue& q, Reference& ref, SimTime& now) {
  ASSERT_FALSE(q.empty());
  ASSERT_DOUBLE_EQ(q.next_time(), ref.live.begin()->first);
  const ScheduledEvent a = q.pop();
  const Key b = ref.pop();
  ASSERT_EQ(a.seq, b.second);
  ASSERT_DOUBLE_EQ(a.t, b.first);
  ASSERT_GE(a.t, now);  // time never runs backwards
  now = a.t;
}

// The property test: 10k mixed operations driven by one RNG applied to the
// queue and the reference; every pop must agree exactly.  The time
// distribution mixes bursts of identical timestamps (ties), near-past
// inserts right above the current clock and far-future outliers.
void run_property_mix(std::uint64_t rng_seed, bool with_cancels) {
  EventQueue q;
  Reference ref;
  util::Xoshiro256 rng(rng_seed);

  std::uint64_t next_seq = 0;
  SimTime now = 0.0;
  constexpr int kOps = 10000;

  for (int op = 0; op < kOps; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.55 || ref.pending.empty()) {
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
      q.push(e);
      ref.push(e);
    } else if (with_cancels && roll < 0.65) {
      const std::size_t victim =
          static_cast<std::size_t>(rng.uniform() * ref.pending.size());
      q.cancel(ref.take(victim).second);
    } else {
      expect_same_pop(q, ref, now);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "divergence at op " << op;
      }
    }
    ASSERT_EQ(q.size(), ref.live.size());
  }

  // Drain: the full remaining order must agree too.
  while (!ref.live.empty()) {
    expect_same_pop(q, ref, now);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  ASSERT_TRUE(q.empty());
}

TEST(EventQueueProperty, MatchesReference10kOps) {
  run_property_mix(0x5eed1, /*with_cancels=*/false);
}

TEST(EventQueueProperty, MatchesReference10kOpsWithCancels) {
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
// perturb the pop order — ~10k ops checked against the reference with
// the invariant asserted after every step.
TEST(EventQueueProperty, CancelChurnCompactsAndStaysExact) {
  constexpr std::size_t kCompactMinTombstones = 64;  // mirrors event_queue.hpp
  for (std::uint64_t seed = 21; seed < 24; ++seed) {
    EventQueue q;
    Reference ref;
    util::Xoshiro256 rng(seed);

    std::uint64_t next_seq = 0;
    SimTime now = 0.0;
    int ops = 0;

    const auto check_bound = [&] {
      // The bound: compaction fires once tombstones exceed both the
      // threshold and the live count, so the store never holds more than
      // max(threshold, live) cancelled entries.
      ASSERT_LE(q.tombstones(), std::max(kCompactMinTombstones, q.size()))
          << "seed " << seed << " op " << ops;
      ASSERT_EQ(q.size(), ref.live.size());
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
        q.push(e);
        ref.push(e);
        ++ops;
        check_bound();
      }
      // Cancel burst: cancel ~65% of everything pending.
      const std::size_t victims = (ref.pending.size() * 13) / 20;
      for (std::size_t i = 0; i < victims; ++i) {
        const std::size_t victim =
            static_cast<std::size_t>(rng.uniform() * ref.pending.size());
        q.cancel(ref.take(victim).second);
        ++ops;
        check_bound();
      }
      // A few pops: order must agree exactly.
      for (int i = 0; i < 40 && !ref.live.empty(); ++i) {
        expect_same_pop(q, ref, now);
        ASSERT_FALSE(::testing::Test::HasFatalFailure())
            << "seed " << seed << " op " << ops;
        ++ops;
        check_bound();
      }
    }
    ASSERT_GE(ops, 10000);
    EXPECT_GT(q.compactions(), 0u) << "seed " << seed;

    while (!ref.live.empty()) {
      expect_same_pop(q, ref, now);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    ASSERT_TRUE(q.empty());
    // Post-drain only sub-threshold tombstones may linger (pops purge from
    // the top; compaction reclaims the rest once the threshold is crossed).
    EXPECT_LE(q.tombstones(), kCompactMinTombstones);
  }
}

}  // namespace
}  // namespace opalsim::sim
