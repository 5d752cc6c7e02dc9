#include "sim/engine.hpp"

#include <cmath>
#include <string>

#include "obs/trace.hpp"
#include "util/domains.hpp"
#include "util/fatal.hpp"

namespace opalsim::sim {

namespace {

// Driver coroutine: awaits the user task, records completion/exception in the
// shared state, and wakes joiners through the engine queue.
detail::RootCoro drive(Engine* engine, Task<void> task,
                       std::shared_ptr<detail::ProcessState> state) {
  try {
    co_await std::move(task);
  } catch (...) {
    state->exception = std::current_exception();
  }
  state->done = true;
  if (obs::enabled()) {
    obs::instant(obs::Cat::kEngine, "exit", engine->now(), -1);
  }
  if (state->joiner) {
    engine->schedule_now(state->joiner);
    state->joiner = nullptr;
  }
  for (auto h : state->extra_joiners) engine->schedule_now(h);
  state->extra_joiners.clear();
}

}  // namespace

Engine::~Engine() {
  // Destroy any still-suspended root frames.  Frames parked inside primitive
  // wait lists are reachable only from those primitives, which by contract
  // outlive the engine's run and are not used afterwards; destroying the
  // roots unwinds nested Task frames via Task's destructor.
  for (auto& r : roots_) {
    if (r.coro.handle) r.coro.handle.destroy();
  }
}

VT_PURE ProcessHandle Engine::spawn(Task<void> task) {
  // allocate_shared over the thread pool: state + control block are one
  // pooled allocation, reused across spawns via the free list.
  auto state = std::allocate_shared<detail::ProcessState>(
      PoolAllocator<detail::ProcessState>{});
  detail::RootCoro root = drive(this, std::move(task), state);
  root.handle.promise().state = state;
  if (obs::enabled()) {
    obs::instant(obs::Cat::kEngine, "spawn", now_, -1);
  }
  schedule(now_, root.handle);
  roots_.push_back(Root{root, state});
  return ProcessHandle(this, std::move(state));
}

VT_PURE void Engine::schedule(SimTime t, std::coroutine_handle<> h) {
  if (audit::enabled()) {
    audit::check_run(audit_run_tag_, now_);
    if (t < now_) {
      audit::fail(audit::Invariant::kTimeMonotonic,
                  "event scheduled at t=" + std::to_string(t) +
                      " in the virtual past of now=" + std::to_string(now_),
                  now_);
    }
  }
  if (obs::enabled()) {
    obs::instant(obs::Cat::kEngine, "schedule", now_, -1,
                 {"t", t}, {"eseq", static_cast<double>(next_seq_)});
  }
  queue_.push(ScheduledEvent{t, next_seq_++, h});
}

void Engine::audit_pop(SimTime t) {
  audit::check_run(audit_run_tag_, now_);
  // The queue pops in (t, seq) order, so the clock can only move backwards
  // if an event was force-scheduled in the past (caught above) or the
  // ordering itself broke — either way the accounting is invalid.
  if (t < now_) {
    audit::fail(audit::Invariant::kTimeMonotonic,
                "event popped at t=" + std::to_string(t) +
                    " behind the engine clock now=" + std::to_string(now_),
                now_);
  }
}

VT_PURE void Engine::dispatch_next() {
  ScheduledEvent ev = queue_.pop();
  if (audit::enabled()) audit_pop(ev.t);
  now_ = ev.t;
  ++processed_;
  if (obs::enabled()) {
    obs::instant(obs::Cat::kEngine, "pop", ev.t, -1,
                 {"eseq", static_cast<double>(ev.seq)});
  }
  ev.handle.resume();
}

VT_PURE void Engine::run() {
  while (!queue_.empty()) dispatch_next();
  rethrow_pending_failure();
}

VT_PURE void Engine::run_until(SimTime t_end) {
  while (!queue_.empty() && queue_.next_time() <= t_end) dispatch_next();
  if (now_ < t_end) now_ = t_end;
  rethrow_pending_failure();
}

void Engine::rethrow_pending_failure() {
  for (auto& r : roots_) {
    if (r.state->done && r.state->exception && !r.state->exception_observed) {
      r.state->exception_observed = true;  // rethrow once
      std::rethrow_exception(r.state->exception);
    }
  }
}

void Engine::restore_clock(SimTime t) {
  if (!(std::isfinite(t) && t >= 0.0)) {
    util::fatal("ckpt", "restore: clock " + std::to_string(t) +
                            " is not finite and >= 0");
  }
  now_ = t;
}

void Engine::restore(const Snapshot& s) {
  const EventQueueStats& q = s.queue;
  if (s.next_seq != q.pushes || s.events_processed != q.pops ||
      q.pops > q.pushes || q.cancels != q.pushes - q.pops ||
      q.peak_size > q.pushes) {
    util::fatal("ckpt", "restore: the event counters do not describe a "
                        "quiescent engine", now_);
  }
  next_seq_ = s.next_seq;
  processed_ = s.events_processed;
  queue_.restore_stats(q);
}

}  // namespace opalsim::sim
