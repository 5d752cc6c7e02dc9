// Discrete-event simulation engine.
//
// The Engine owns a time-ordered event queue of suspended coroutine handles.
// Simulation processes are spawned from Task<void> coroutines; they advance
// virtual time exclusively by awaiting engine primitives (delay, Event,
// Mailbox, Resource).  Exactly one coroutine runs at a time, so no
// synchronization is required, and ties in virtual time are broken by a
// monotone sequence number — runs are bit-for-bit deterministic.
//
// Hot-path machinery (see DESIGN.md, "DES core internals"):
//  - the event queue (sim/event_queue.hpp) is one binary heap over the
//    (t, seq) total order, held by value;
//  - per-spawn ProcessState blocks and every coroutine frame come from the
//    thread's FramePool slab arena (sim/pool.hpp), so steady-state spawning
//    and event dispatch perform no global-heap allocation.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/pool.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/domains.hpp"

namespace opalsim::sim {

class Engine;

namespace detail {

/// Shared completion state of a spawned process.  The first joiner parks in
/// the inline slot (a process is almost always joined at most once);
/// additional joiners spill into the vector.
struct ProcessState {
  bool done = false;
  bool exception_observed = false;
  std::exception_ptr exception;
  std::coroutine_handle<> joiner;
  std::vector<std::coroutine_handle<>> extra_joiners;
};

/// Eager root coroutine that drives a Task<void> and records completion.
/// The frame is pool-allocated (PooledFrame) like every Task frame.
struct RootCoro {
  struct promise_type : PooledFrame {
    std::shared_ptr<ProcessState> state;
    RootCoro get_return_object() noexcept {
      return RootCoro{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    std::suspend_always final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() noexcept {
      // The driver body already catches; this only fires if bookkeeping
      // itself throws, which we treat as fatal.
      std::terminate();
    }
  };
  std::coroutine_handle<promise_type> handle;
};

}  // namespace detail

/// Handle to a spawned process; copyable.  Await join() to block until the
/// process completes (rethrows the process's exception, if any).
class ProcessHandle {
 public:
  ProcessHandle() = default;

  bool valid() const noexcept { return static_cast<bool>(state_); }
  bool done() const noexcept { return state_ && state_->done; }

  // Owns the ProcessState shared_ptr so a joined process outlives its
  // handle; only awaited via co_await join(), never a temporary.
  // lint:allow(awaiter-trivial-dtor): owning awaiter by design (see above)
  struct JoinAwaiter {
    Engine* engine;
    std::shared_ptr<detail::ProcessState> state;
    bool await_ready() const noexcept { return state->done; }
    void await_suspend(std::coroutine_handle<> h) const {
      if (!state->joiner) {
        state->joiner = h;
      } else {
        state->extra_joiners.push_back(h);
      }
    }
    void await_resume() const {
      if (state->exception) {
        state->exception_observed = true;
        std::rethrow_exception(state->exception);
      }
    }
  };

  /// Awaitable: resumes when the process has finished.
  JoinAwaiter join() const;

 private:
  friend class Engine;
  ProcessHandle(Engine* e, std::shared_ptr<detail::ProcessState> s)
      : engine_(e), state_(std::move(s)) {}
  Engine* engine_ = nullptr;
  std::shared_ptr<detail::ProcessState> state_;
};

/// The engine's hot-path counters (the engine.* metrics ParallelOpal writes).
struct EngineCounters {
  std::uint64_t events_processed = 0;
  EventQueueStats queue;
  FramePool::Stats frame_pool;  ///< the engine thread's pool counters
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current virtual time in seconds.
  VT_PURE SimTime now() const noexcept { return now_; }

  /// Spawns a process from a coroutine; the process starts when run() (or the
  /// current resume cycle) reaches its start event, scheduled at now().
  VT_PURE ProcessHandle spawn(Task<void> task);

  /// Awaitable that resumes the caller `dt` seconds of virtual time later.
  struct DelayAwaiter {
    Engine* engine;
    SimTime wake_at = 0.0;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      engine->schedule(wake_at, h);
    }
    void await_resume() const noexcept {}
  };
  static_assert(std::is_trivially_destructible_v<DelayAwaiter>,
                "awaiters must stay trivially destructible (GCC 12 "
                "double-destruction of awaiter temporaries)");
  DelayAwaiter delay(SimTime dt) noexcept { return {this, now_ + dt}; }
  DelayAwaiter at(SimTime t) noexcept { return {this, t < now_ ? now_ : t}; }
  /// Yields: reschedules the caller at the current time, after already
  /// scheduled same-time events.
  DelayAwaiter yield() noexcept { return {this, now_}; }

  /// Runs until the event queue drains.  Rethrows the first exception that
  /// escaped any spawned process (after the queue drains or immediately if
  /// no joiner will observe it — policy: rethrow after drain).
  VT_PURE void run();

  /// Runs until the queue drains or virtual time would exceed `t_end`.
  /// Events scheduled later than t_end remain pending.
  VT_PURE void run_until(SimTime t_end);

  /// Number of events processed since construction (for tests/diagnostics).
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Hot-path counters: events, queue ops, frame-pool hit rate.
  EngineCounters counters() const {
    EngineCounters c;
    c.events_processed = processed_;
    c.queue = queue_.stats();
    c.frame_pool = FramePool::local_stats();
    return c;
  }

  /// Schedules a raw coroutine handle at time t (used by primitives).
  VT_PURE void schedule(SimTime t, std::coroutine_handle<> h);
  /// Schedules at the current time (after already-queued same-time events).
  VT_PURE void schedule_now(std::coroutine_handle<> h) { schedule(now_, h); }

  /// Sequence number the next schedule() call will consume.  Primitives that
  /// may later cancel their own event (recv_timeout's armed timer) record
  /// this before scheduling.
  VT_PURE std::uint64_t next_event_seq() const noexcept { return next_seq_; }
  /// Cancels a pending scheduled event by its sequence number (must be
  /// pending and not yet cancelled — see EventQueue::cancel's contract).
  VT_PURE void cancel_scheduled(std::uint64_t seq) { queue_.cancel(seq); }
  /// Live (pending, uncancelled) events — the checkpoint quiescence test:
  /// a run boundary is quiescent iff this is zero.
  std::size_t pending_events() const noexcept { return queue_.size(); }

  // -- checkpoint/restart ----------------------------------------------------
  // A resume warps a fresh engine's clock before anything is spawned, drains
  // the rebuilt task graph, then swaps in the golden run's accounting.

  struct Snapshot {
    SimTime now = 0.0;
    std::uint64_t next_seq = 0;
    std::uint64_t events_processed = 0;
    EventQueueStats queue;
  };
  Snapshot snapshot() const {
    return {now_, next_seq_, processed_, queue_.stats()};
  }

  /// Warps a fresh engine's clock.  Throws util::FatalError("ckpt"),
  /// changing nothing, unless `t` is finite and >= 0.
  void restore_clock(SimTime t);
  /// Restores a drained engine's accounting.  Throws util::FatalError("ckpt"),
  /// changing nothing, unless no event is pending: each push took the next
  /// sequence number and was popped (one processed event) or cancelled.
  void restore(const Snapshot& s);

 private:
  struct Root {
    detail::RootCoro coro;
    std::shared_ptr<detail::ProcessState> state;
  };

  /// Pops the next live event, advances the clock and resumes it.
  VT_PURE void dispatch_next();
  void rethrow_pending_failure();

  /// Audit hooks for one event pop (time monotonicity + run isolation).
  void audit_pop(SimTime t);

  /// Run scope this engine was created in (see audit::RunScope); checked on
  /// every schedule/resume when the auditor is enabled.
  std::uint64_t audit_run_tag_ = audit::current_run();
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  EventQueue queue_;
  std::vector<Root> roots_;
};

inline ProcessHandle::JoinAwaiter ProcessHandle::join() const {
  return JoinAwaiter{engine_, state_};
}

}  // namespace opalsim::sim
