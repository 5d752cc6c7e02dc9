// Pluggable event queue for the DES engine.
//
// The engine's contract is a strict total order on (time, seq): seq is a
// monotone counter assigned at schedule time, so any queue that pops the
// exact same (t, seq) order is a legal drop-in replacement — virtual-time
// results stay bit-for-bit identical.  Two implementations live behind this
// interface:
//
//   heap    — std::priority_queue reference implementation (the seed
//             engine's queue).  O(log n) push/pop, always correct, used as
//             the oracle in the randomized equivalence tests.
//   ladder  — a ladder-style (calendar) queue tuned for the engine's
//             mostly-near-future schedule pattern: O(1) appends into an
//             unsorted far band, on-demand splitting of the far band into
//             rung buckets, and a small sorted bottom band served by index.
//             Events are stored by value in reused vectors, so the steady
//             state performs no per-event allocation at all.
//
// The active implementation is selected per engine (Engine ctor) with the
// process default from OPALSIM_EVENT_QUEUE (ladder | heap; default ladder),
// overridable programmatically for tests/benches via
// set_default_event_queue().
//
// Cancellation is lazy: cancel(seq) records a tombstone and pops skip it.
// Lazy tombstones are only reclaimed when they reach the top of the order,
// so a workload that arms many long timers and cancels most of them early
// (recv_timeout under a generous timeout) would keep them all stored.
// cancel() therefore compacts when tombstones come to outnumber live
// events: the backing store is drained in (t, seq) order, tombstoned
// entries dropped, survivors re-pushed — identical pop order, bounded
// memory.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
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

class EventQueue {
 public:
  virtual ~EventQueue() = default;
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  virtual const char* name() const noexcept = 0;

  VT_PURE void push(const ScheduledEvent& ev) {
    ++stats_.pushes;
    ++live_;
    if (live_ > stats_.peak_size) stats_.peak_size = live_;
    do_push(ev);
  }

  /// Pops the live event with the smallest (t, seq).  Precondition: !empty().
  VT_PURE ScheduledEvent pop() {
    purge_cancelled();
    ++stats_.pops;
    --live_;
    return do_pop();
  }

  /// Time of the next live event.  Precondition: !empty().
  VT_PURE SimTime next_time() {
    purge_cancelled();
    return do_peek().t;
  }

  /// Lazily removes the pending event with sequence number `seq`.  The
  /// caller must pass a seq that is actually pending and not yet cancelled
  /// (the tombstone is trusted, not verified).  Compacts the backing store
  /// when tombstones outnumber live events (see header comment).
  VT_PURE void cancel(std::uint64_t seq) {
    cancelled_.insert(seq);
    ++stats_.cancels;
    --live_;
    maybe_compact();
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

 protected:
  virtual void do_push(const ScheduledEvent& ev) = 0;
  virtual ScheduledEvent do_pop() = 0;
  /// May mutate internal bands (the ladder materializes its bottom band);
  /// the returned reference is valid until the next queue operation.
  virtual const ScheduledEvent& do_peek() = 0;

 private:
  void purge_cancelled() {
    while (!cancelled_.empty()) {
      const auto it = cancelled_.find(do_peek().seq);
      if (it == cancelled_.end()) break;
      cancelled_.erase(it);
      do_pop();
    }
  }

  /// Physical entries = live_ + tombstones: the cancel contract (pending,
  /// not yet cancelled) makes every tombstone account for exactly one
  /// stored event, so a full drain-filter-rebuild is exact.
  void maybe_compact() {
    static constexpr std::size_t kCompactMinTombstones = 64;
    if (cancelled_.size() < kCompactMinTombstones) return;
    if (cancelled_.size() <= live_) return;
    const std::size_t phys = live_ + cancelled_.size();
    compact_scratch_.clear();
    compact_scratch_.reserve(live_);
    for (std::size_t i = 0; i < phys; ++i) {
      ScheduledEvent ev = do_pop();
      if (cancelled_.erase(ev.seq) == 0) compact_scratch_.push_back(ev);
    }
    cancelled_.clear();
    for (const ScheduledEvent& ev : compact_scratch_) do_push(ev);
    compact_scratch_.clear();
    ++compactions_;
  }

  std::size_t live_ = 0;
  std::set<std::uint64_t> cancelled_;
  std::vector<ScheduledEvent> compact_scratch_;
  std::uint64_t compactions_ = 0;
  EventQueueStats stats_;
};

enum class EventQueueKind { kLadder, kHeap };

/// Process-wide default used by Engine's default constructor.  Initialized
/// once from OPALSIM_EVENT_QUEUE (ladder | heap; unset = ladder); atomically
/// readable from sweep worker threads constructing engines concurrently.
EventQueueKind default_event_queue() noexcept;
void set_default_event_queue(EventQueueKind kind) noexcept;

std::unique_ptr<EventQueue> make_event_queue(EventQueueKind kind);

}  // namespace opalsim::sim
