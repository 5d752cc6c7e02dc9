// The DES engine's event queue: one binary heap over (time, seq).
//
// The engine's contract is a strict total order on (time, seq): seq is a
// monotone counter assigned at schedule time and unique per event, so the
// heap's pop order is fully determined and virtual-time results are
// bit-for-bit reproducible.  Paper runs keep at most about p+1 events
// pending, so a plain heap over a reused vector is all the queue needs.
//
// Cancellation is lazy: cancel(seq) records a tombstone and pops skip it.
// Lazy tombstones are only reclaimed when they reach the top of the order,
// so a workload that arms many long timers and cancels most of them early
// (recv_timeout under a generous timeout) would keep them all stored.
// cancel() therefore compacts when tombstones come to outnumber live
// events: tombstoned entries are erased and the survivors re-heaped.  The
// total order makes any heap of the same entries pop the same sequence, so
// compaction never perturbs the pop order.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "sim/time.hpp"
#include "util/domains.hpp"

namespace opalsim::sim {

/// One scheduled resumption.  Total order: (t, seq) lexicographic.
struct ScheduledEvent {
  SimTime t = 0.0;
  std::uint64_t seq = 0;
  std::coroutine_handle<> handle;
};
static_assert(sizeof(ScheduledEvent) == 24,
              "ScheduledEvent is copied on every queue move; keep it small");

/// Lifetime operation counters of one queue instance.
struct EventQueueStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t cancels = 0;
  std::uint64_t peak_size = 0;
};

class EventQueue final {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  VT_PURE void push(const ScheduledEvent& ev) {
    ++stats_.pushes;
    ++live_;
    if (live_ > stats_.peak_size) stats_.peak_size = live_;
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Pops the live event with the smallest (t, seq).  Precondition: !empty().
  VT_PURE ScheduledEvent pop() {
    purge_cancelled();
    ++stats_.pops;
    --live_;
    return pop_top();
  }

  /// Time of the next live event.  Precondition: !empty().
  VT_PURE SimTime next_time() {
    purge_cancelled();
    return heap_.front().t;
  }

  /// Lazily removes the pending event with sequence number `seq`.  The
  /// caller must pass a seq that is actually pending and not yet cancelled
  /// (the tombstone is trusted, not verified).  Compacts the backing store
  /// when tombstones outnumber live events (see header comment).
  VT_PURE void cancel(std::uint64_t seq) {
    cancelled_.insert(seq);
    ++stats_.cancels;
    --live_;
    if (cancelled_.size() >= kCompactMinTombstones &&
        cancelled_.size() > live_) {
      compact();
    }
  }

  bool empty() const noexcept { return live_ == 0; }
  std::size_t size() const noexcept { return live_; }
  /// Cancelled entries still physically stored (0 right after a compaction).
  std::size_t tombstones() const noexcept { return cancelled_.size(); }
  /// Tombstone compaction passes performed (diagnostics; not checkpointed).
  std::uint64_t compactions() const noexcept { return compactions_; }
  const EventQueueStats& stats() const noexcept { return stats_; }

  /// Overwrites lifetime counters with snapshot values (checkpoint resume).
  /// live_ is left untouched: restore happens at a quiescent boundary where
  /// the queue is empty in both the golden and the resumed run.
  void restore_stats(const EventQueueStats& s) noexcept { stats_ = s; }

 private:
  static constexpr std::size_t kCompactMinTombstones = 64;

  /// Heap order: the front is the event no other event is Later than.
  struct Later {
    bool operator()(const ScheduledEvent& a,
                    const ScheduledEvent& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  ScheduledEvent pop_top() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const ScheduledEvent ev = heap_.back();
    heap_.pop_back();
    return ev;
  }

  void purge_cancelled() {
    while (!cancelled_.empty()) {
      const auto it = cancelled_.find(heap_.front().seq);
      if (it == cancelled_.end()) break;
      cancelled_.erase(it);
      pop_top();
    }
  }

  /// The cancel contract (pending, not yet cancelled) makes every tombstone
  /// name exactly one stored event, so erasing them leaves the live set.
  void compact();

  std::vector<ScheduledEvent> heap_;
  std::size_t live_ = 0;
  std::set<std::uint64_t> cancelled_;
  std::uint64_t compactions_ = 0;
  EventQueueStats stats_;
};

}  // namespace opalsim::sim
