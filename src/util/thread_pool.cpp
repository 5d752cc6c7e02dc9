#include "util/thread_pool.hpp"

#include <algorithm>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/env.hpp"
#include "util/fatal.hpp"
#include "util/host_timer.hpp"

namespace opalsim::util {

namespace {

/// Set while a thread is executing indices of a dispatch_indexed call —
/// both workers and the dispatching caller — or helping an assisted call.
/// parallel_for_indexed and run_assisted read it to degrade nested fan-out
/// to an inline loop.
thread_local bool t_in_dispatch = false;

/// How long a worker polls for the next job before it sleeps on the
/// condition variable.
constexpr double kPollBeforeSleepS = 50e-6;

/// How long an assisted caller waits, once main has returned, for its
/// helpers to leave before it counts one as late.  A running helper leaves
/// within one chunk's math (~10 µs for the nonbonded kernel); a late one
/// has most likely lost its CPU to another thread, and the caller then
/// sleeps until it is scheduled again, which on a host with more runnable
/// threads than CPUs costs milliseconds a call.  So a late call starts or
/// quadruples a back-off (8, 32, 128, ... up to kMaxAssistBackoff calls)
/// during which main runs alone, and each call without a late helper
/// shrinks it by a quarter: under sustained contention it keeps growing,
/// and on a host with spare CPUs, where a late helper comes about once in
/// thousands of calls, it costs little.
constexpr double kLateAfterS = 50e-6;
constexpr unsigned kMinAssistBackoff = 8;
constexpr unsigned kMaxAssistBackoff = 4096;

/// Spins until done() or `seconds` have passed; returns done().  The clock
/// is read once every 64 pause steps.
template <typename Done>
bool poll_for(double seconds, Done done) {
  const HostTimer timer;
  for (;;) {
    for (int k = 0; k < 64; ++k) {
      if (done()) return true;
      cpu_relax();
    }
    if (timer.seconds() >= seconds) return done();
  }
}

/// Pool threads run whole simulations, each allocating and freeing pair
/// domains and lists of up to tens of MB.  glibc raises its mmap threshold
/// (to at most 32 MiB) when such a mapped block is freed and its trim
/// threshold to twice that, so an arena gives memory back only when that
/// much lies free at its top: a sweep kept every thread's largest run
/// resident.  Fixing the mmap threshold at that 32 MiB keeps run-sized
/// blocks in the arenas, where the next run reuses their pages without
/// faulting them in again, and fixing the trim threshold at 8 MiB returns
/// any larger free top.  DESIGN.md, "Parallel sweep runner", has the
/// measurements behind the two values.  Process-wide, so done once.
void fix_malloc_thresholds() {
#if defined(__GLIBC__)
  static const bool fixed = [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 8 << 20);
    return true;
  }();
  (void)fixed;
#endif
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads)
    : blocks_(static_cast<std::size_t>(std::max(1u, threads)) + 1) {
  fix_malloc_thresholds();
  threads = std::max(1u, threads);
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    ScopedLock lk(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::dispatch_indexed(std::size_t count,
                                  void (*fn)(void*, std::size_t), void* ctx) {
  if (count == 0 || fn == nullptr) return;
  // One dispatch owns the block cursors at a time; concurrent dispatchers
  // (pools shared across threads) line up here, not on the hot path.
  ScopedLock dispatch_lk(dispatch_mutex_);
  IndexedJob job;
  job.fn = fn;
  job.ctx = ctx;
  job.count = count;
  const auto nb = static_cast<unsigned>(blocks_.size());
  {
    ScopedLock lk(mutex_);
    job.seq = ++dispatch_seq_;
    // Contiguous even split of [0, count) over workers + caller.  The
    // writes (including the non-atomic `end`) are published to workers by
    // the mutex: they read `active_` under it before touching any block.
    for (unsigned b = 0; b < nb; ++b) {
      blocks_[b].next.store(count * b / nb, std::memory_order_relaxed);
      blocks_[b].end = count * (b + 1) / nb;
    }
    active_ = &job;
    published_seq_.store(job.seq, std::memory_order_relaxed);
  }
  cv_.notify_all();
  // The caller is a participant too: it takes the last block (workers take
  // their own index), so a dispatch on a busy pool still makes progress.
  run_blocks(job, nb - 1);
  {
    ScopedLock lk(mutex_);
    done_cv_.wait(mutex_, [&] {
      mutex_.assert_held();
      return job.completed.load(std::memory_order_acquire) == count &&
             job.participants == 0;
    });
    // No worker can still touch `job` (participants deregister under the
    // mutex before the wait above returns), so the stack frame may die.
    active_ = nullptr;
  }
  stat_dispatches_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::run_blocks(IndexedJob& job, unsigned my_block) {
  t_in_dispatch = true;
  const auto nb = static_cast<unsigned>(blocks_.size());
  std::uint64_t chunks = 0;
  std::uint64_t steals = 0;
  // Own block first, then sweep the others as steal victims.  One index
  // per grab: every caller's index is a whole run or a block of rows, so
  // the fetch_add is noise, and a late steal can never walk off with
  // several of the heavy indices at a block's end.
  for (unsigned v = 0; v < nb; ++v) {
    Block& blk = blocks_[(my_block + v) % nb];
    for (;;) {
      const std::size_t i = blk.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= blk.end) break;
      ++chunks;
      if (v != 0) ++steals;
      job.fn(job.ctx, i);
      const std::size_t done =
          job.completed.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (done == job.count) {
        // Lock before notifying: the dispatcher checks the predicate under
        // mutex_, so an unlocked notify could land between its check and
        // its sleep and be lost.
        ScopedLock lk(mutex_);
        done_cv_.notify_all();
      }
    }
  }
  t_in_dispatch = false;
  stat_chunks_.fetch_add(chunks, std::memory_order_relaxed);
  stat_steals_.fetch_add(steals, std::memory_order_relaxed);
}

void ThreadPool::run_assisted(unsigned helpers, void (*help)(void*),
                              void (*main)(void*), void* ctx) {
  helpers = std::min(helpers, size());
  // try_lock, not lock: a caller that finds the pool busy runs alone rather
  // than queueing behind another thread's job.  Never tried inside a
  // dispatch, whose caller already holds it.
  if (helpers == 0 || in_dispatch()) {
    main(ctx);
    return;
  }
  if (!dispatch_mutex_.try_lock()) {
    main(ctx);
    return;
  }
  if (assist_skip_ > 0) {
    --assist_skip_;
    dispatch_mutex_.unlock();
    main(ctx);
    return;
  }
  AssistJob job;
  job.help = help;
  job.ctx = ctx;
  job.open = helpers;
  {
    ScopedLock lk(mutex_);
    job.seq = ++dispatch_seq_;
    assist_ = &job;
    published_seq_.store(job.seq, std::memory_order_relaxed);
  }
  for (unsigned h = 0; h < helpers; ++h) cv_.notify_one();
  stat_assists_.fetch_add(1, std::memory_order_relaxed);
  main(ctx);
  {
    ScopedLock lk(mutex_);
    job.open = 0;  // a worker that has not woken yet stays out
  }
  const bool late = !poll_for(kLateAfterS, [&] {
    return job.participants.load(std::memory_order_acquire) == 0;
  });
  {
    ScopedLock lk(mutex_);
    done_cv_.wait(mutex_, [&] {
      mutex_.assert_held();
      return job.participants.load(std::memory_order_relaxed) == 0;
    });
    assist_ = nullptr;
  }
  if (late) {
    assist_backoff_ = std::clamp(4 * assist_backoff_, kMinAssistBackoff,
                                 kMaxAssistBackoff);
    assist_skip_ = assist_backoff_;
  } else {
    assist_backoff_ -= assist_backoff_ / 4;
  }
  dispatch_mutex_.unlock();
}

void ThreadPool::worker_loop(unsigned worker_index) {
  std::uint64_t last_seen = 0;  // newest dispatch or assisted call served
  for (;;) {
    // Poll a while before sleeping: a single run issues its pipelined
    // kernel calls back to back, and waking a sleeping helper for each
    // would cost a good part of what a short call gains.
    poll_for(kPollBeforeSleepS, [&] {
      return published_seq_.load(std::memory_order_relaxed) != last_seen;
    });
    IndexedJob* ij = nullptr;
    AssistJob* aj = nullptr;
    {
      ScopedLock lk(mutex_);
      const auto new_job = [&] {
        mutex_.assert_held();
        return active_ != nullptr && active_->seq != last_seen;
      };
      const auto open_assist = [&] {
        mutex_.assert_held();
        return assist_ != nullptr && assist_->seq != last_seen &&
               assist_->open > 0;
      };
      cv_.wait(mutex_, [&] {
        mutex_.assert_held();
        return stop_ || new_job() || open_assist();
      });
      // Register as a participant under the mutex: the caller only
      // reclaims the job's stack frame once participants drops to zero.
      if (new_job()) {
        ij = active_;
        last_seen = ij->seq;
        ++ij->participants;
      } else if (open_assist()) {
        aj = assist_;
        last_seen = aj->seq;
        --aj->open;
        aj->participants.fetch_add(1, std::memory_order_relaxed);
      } else {
        return;  // stop_
      }
    }
    if (aj != nullptr) {
      t_in_dispatch = true;
      aj->help(aj->ctx);
      t_in_dispatch = false;
      ScopedLock lk(mutex_);
      if (aj->participants.fetch_sub(1, std::memory_order_release) == 1) {
        done_cv_.notify_all();
      }
      continue;
    }
    run_blocks(*ij, worker_index);
    ScopedLock lk(mutex_);
    if (--ij->participants == 0 &&
        ij->completed.load(std::memory_order_acquire) == ij->count) {
      done_cv_.notify_all();
    }
  }
}

DispatchStats ThreadPool::dispatch_stats() const noexcept {
  return DispatchStats{
      stat_dispatches_.load(std::memory_order_relaxed),
      stat_chunks_.load(std::memory_order_relaxed),
      stat_steals_.load(std::memory_order_relaxed),
      stat_assists_.load(std::memory_order_relaxed),
  };
}

bool ThreadPool::in_dispatch() noexcept { return t_in_dispatch; }

unsigned ThreadPool::parse_threads(std::string_view text) {
  unsigned v = 0;
  bool ok = !text.empty();
  for (const char c : text) {
    if (c < '0' || c > '9' || v > kMaxThreads) {
      ok = false;
      break;
    }
    v = v * 10 + static_cast<unsigned>(c - '0');
  }
  if (!ok || v < 1 || v > kMaxThreads) {
    fatal("util", "OPALSIM_THREADS must be a whole number in [1, " +
                      std::to_string(kMaxThreads) + "], got \"" +
                      std::string(text) + "\"");
  }
  return v;
}

unsigned ThreadPool::default_threads() {
  if (const auto v = env_string("OPALSIM_THREADS")) return parse_threads(*v);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(default_threads());
  return pool;
}

}  // namespace opalsim::util
