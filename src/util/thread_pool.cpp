#include "util/thread_pool.hpp"

#include <algorithm>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/env.hpp"

namespace opalsim::util {

namespace {

/// Set while a thread is executing indices of a dispatch_indexed call —
/// both workers and the dispatching caller.  parallel_for_indexed reads it
/// to degrade nested fan-out to an inline loop.
thread_local bool t_in_dispatch = false;

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
  // ~8 chunks per participant: coarse enough that the cursor fetch_add is
  // noise, fine enough that stealing can even out skewed index costs.
  job.chunk = std::max<std::size_t>(
      1, count / (static_cast<std::size_t>(nb) * 8));
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
  // Own block first, then sweep the others as steal victims.
  for (unsigned v = 0; v < nb; ++v) {
    Block& blk = blocks_[(my_block + v) % nb];
    for (;;) {
      const std::size_t begin =
          blk.next.fetch_add(job.chunk, std::memory_order_relaxed);
      if (begin >= blk.end) break;
      const std::size_t end = std::min(begin + job.chunk, blk.end);
      ++chunks;
      if (v != 0) ++steals;
      for (std::size_t i = begin; i < end; ++i) job.fn(job.ctx, i);
      const std::size_t done =
          job.completed.fetch_add(end - begin, std::memory_order_acq_rel) +
          (end - begin);
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

void ThreadPool::worker_loop(unsigned worker_index) {
  std::uint64_t last_seen = 0;  // newest dispatch this worker served
  for (;;) {
    IndexedJob* ij = nullptr;
    {
      ScopedLock lk(mutex_);
      cv_.wait(mutex_, [&] {
        mutex_.assert_held();
        return stop_ || (active_ != nullptr && active_->seq != last_seen);
      });
      if (active_ == nullptr || active_->seq == last_seen) return;  // stop_
      // Register as a participant under the mutex: the dispatcher only
      // reclaims the job's stack frame once participants drops to zero.
      ij = active_;
      last_seen = ij->seq;
      ++ij->participants;
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
  };
}

bool ThreadPool::in_dispatch() noexcept { return t_in_dispatch; }

unsigned ThreadPool::default_threads() {
  if (env_string("OPALSIM_THREADS")) {
    const long v = env_long("OPALSIM_THREADS", 1);
    return v > 0 ? static_cast<unsigned>(v) : 1u;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace opalsim::util
