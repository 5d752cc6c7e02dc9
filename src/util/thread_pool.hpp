// A small fixed-size worker pool for fanning independent DES runs across
// hardware threads, and for lending helpers to one kernel call.
//
// Every simulation engine in this codebase is self-contained (its own
// sim::Engine, RNG and state), so whole runs parallelize trivially; what
// must NOT change is the output: parallel_for_indexed commits results by
// index, so a sweep's tables and CSVs are byte-identical to a serial run.
//
// run_assisted lends idle workers to one call on the calling thread (the
// nonbonded kernel's pipeline, opal/soa.cpp): the caller does the job and
// helpers take parts of it it has not reached yet, so the caller never
// waits on a helper to make progress.  ThreadPool::shared() is the
// process-wide pool those calls use, built at the first one.
//
// Index fan-out goes through dispatch_indexed: a work-stealing
// distribution instead of one queued closure per index.  Each participant
// (every worker plus the calling thread) owns a contiguous block of the
// index range and grabs one index at a time from it with a relaxed
// fetch_add; when its block runs dry it steals single indices from the
// other blocks.  Callers' indices are coarse (whole runs, blocks of rows),
// so one per grab costs nothing measurable and keeps a late steal from
// taking several heavy indices at once.  The hot path allocates nothing —
// the shared job descriptor lives on the dispatcher's stack and the
// per-participant state is a cursor latch cached in the worker loop.  See
// DESIGN.md, "Parallel sweep runner".
//
// Lock discipline (statically proven under clang -Wthread-safety):
//   mutex_          guards the stop flag, the active dispatch and assisted
//                   call pointers and their participant counts (an
//                   assisted call's count is also polled lock-free).
//   dispatch_mutex_ serializes dispatch_indexed and run_assisted callers
//                   (run_assisted only tries it) and guards the assisted
//                   calls' back-off; always acquired before mutex_ (never
//                   the other way around).
//   blocks_         is intentionally unguarded: the per-block cursor is an
//                   atomic, and the non-atomic `end` is published to
//                   workers by the mutex_ acquire they perform before
//                   reading `active_`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string_view>
#include <thread>
#include <vector>

#include "util/domains.hpp"
#include "util/run_tag.hpp"
#include "util/sync.hpp"

namespace opalsim::util {

/// One spin-wait step: the CPU's pause hint where it has one.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Cumulative counters of the indexed dispatch path (bench/metrics
/// introspection).  A chunk is one grab of one index, so `chunks` grows by
/// exactly `count` per dispatch; `steals` depends on scheduling and must
/// never feed anything that pins bytes.
struct DispatchStats {
  std::uint64_t dispatches = 0;  ///< dispatch_indexed fan-outs served
  std::uint64_t chunks = 0;      ///< index grabs (one index each)
  std::uint64_t steals = 0;      ///< grabs from another block
  std::uint64_t assists = 0;     ///< run_assisted calls offered helpers
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1; parallel_for_indexed short-circuits a
  /// 1-thread pool inline).  The first pool of a process fixes glibc's
  /// mmap and trim thresholds (32 and 8 MiB), so the arenas of threads
  /// that run whole simulations do not keep their largest run resident.
  explicit ThreadPool(unsigned threads = default_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn(ctx, i) for every i in [0, count) across all workers plus the
  /// calling thread, returning when every index has run.  `fn` must not
  /// throw (parallel_for_indexed wraps exceptions before getting here).
  /// Blocks concurrent dispatchers; do not call from inside a dispatch
  /// (parallel_for_indexed detects that and runs inline instead).
  HOST_ONLY void dispatch_indexed(std::size_t count,
                                  void (*fn)(void*, std::size_t), void* ctx)
      EXCLUDES(dispatch_mutex_, mutex_);

  /// Runs main(ctx) on the calling thread while up to `helpers` idle
  /// workers each run help(ctx) once beside it, and returns once main has
  /// returned and every helper that started has returned.  A helper that
  /// has not started by the time main returns never starts, so main must
  /// be able to finish the whole job alone; helpers only take the parts it
  /// has not reached.  Neither function may throw or use this pool.
  /// Inside a dispatch, while another thread holds the pool, or while the
  /// pool backs off after helpers that were late (a helper still inside
  /// 50 µs after main returned), main runs alone.
  HOST_ONLY void run_assisted(unsigned helpers, void (*help)(void*),
                              void (*main)(void*), void* ctx)
      EXCLUDES(dispatch_mutex_, mutex_);

  /// Counters across the pool's lifetime (totals over all dispatches).
  DispatchStats dispatch_stats() const noexcept;

  /// True while the current thread is running indices of a dispatch, or
  /// is a helper of an assisted call — nested fan-out must degrade to an
  /// inline loop, not deadlock.
  static bool in_dispatch() noexcept;

  /// Largest pool OPALSIM_THREADS may ask for.
  static constexpr unsigned kMaxThreads = 256;

  /// Parses an OPALSIM_THREADS value: a whole decimal number in
  /// [1, kMaxThreads] and nothing else (no sign, space or suffix).  Throws
  /// util::FatalError("util") naming the variable otherwise.
  HOST_ONLY static unsigned parse_threads(std::string_view text);

  /// Number of worker threads a pool gets by default: OPALSIM_THREADS when
  /// set (through parse_threads, so a malformed value throws), else the
  /// hardware concurrency.
  HOST_ONLY static unsigned default_threads();

  /// The process-wide pool of default_threads() workers that lends helpers
  /// to single kernel calls; built at the first call, so a malformed
  /// OPALSIM_THREADS throws there and no pool is built.
  HOST_ONLY static ThreadPool& shared();

 private:
  /// One dispatch in flight; lives on the dispatcher's stack.
  struct IndexedJob {
    void (*fn)(void*, std::size_t) = nullptr;
    void* ctx = nullptr;
    std::size_t count = 0;
    std::uint64_t seq = 0;                  ///< latch against re-entry
    std::atomic<std::size_t> completed{0};  ///< indices fully run
    int participants = 0;  ///< workers inside; guarded by the pool's mutex_
  };
  /// One assisted call in flight; lives on the caller's stack.  `open` is
  /// guarded by the pool's mutex_.
  struct AssistJob {
    void (*help)(void*) = nullptr;
    void* ctx = nullptr;
    std::uint64_t seq = 0;  ///< latch against re-entry
    unsigned open = 0;      ///< helper places not yet taken
    /// Helpers inside; changed under the mutex, also polled without it.
    std::atomic<int> participants{0};
  };
  /// Per-participant index block; `next` is the only contended word on the
  /// hot path, so each block gets its own cache line.
  struct alignas(64) Block {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  void worker_loop(unsigned worker_index) EXCLUDES(mutex_);
  void run_blocks(IndexedJob& job, unsigned my_block) EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar cv_;       ///< wakes workers (dispatch or stop)
  CondVar done_cv_;  ///< wakes the waiting dispatcher
  bool stop_ GUARDED_BY(mutex_) = false;
  IndexedJob* active_ GUARDED_BY(mutex_) = nullptr;  ///< current dispatch
  AssistJob* assist_ GUARDED_BY(mutex_) = nullptr;   ///< current assisted call
  std::uint64_t dispatch_seq_ GUARDED_BY(mutex_) = 0;
  /// dispatch_seq_ of the newest job, polled without the mutex by workers
  /// that have just finished one.
  std::atomic<std::uint64_t> published_seq_{0};
  std::vector<Block> blocks_;  ///< workers + 1 caller block; fixed size
  /// Serializes dispatch_indexed and run_assisted callers; acquired before
  /// mutex_.
  Mutex dispatch_mutex_ ACQUIRED_BEFORE(mutex_);
  /// Back-off after a late helper: assisted calls left to run main alone,
  /// and the length of the next back-off.
  unsigned assist_skip_ GUARDED_BY(dispatch_mutex_) = 0;
  unsigned assist_backoff_ GUARDED_BY(dispatch_mutex_) = 0;
  std::atomic<std::uint64_t> stat_dispatches_{0};
  std::atomic<std::uint64_t> stat_chunks_{0};
  std::atomic<std::uint64_t> stat_steals_{0};
  std::atomic<std::uint64_t> stat_assists_{0};
  std::vector<std::thread> workers_;
};

/// Runs fn(0) .. fn(count-1) across the pool and returns when all have
/// finished.  Callers preallocate a result slot per index and have fn(i)
/// write slot i: iteration results then commit in index order regardless
/// of scheduling.  With a pool of <= 1 thread the loop runs inline (same
/// order, zero overhead).  The first exception thrown by any fn is
/// rethrown here after all iterations finish.
template <typename Fn>
HOST_ONLY void parallel_for_indexed(ThreadPool& pool, std::size_t count,
                                    Fn&& fn) {
  if (count == 0) return;
  // Each index runs in its own RunTagScope (inline path included, so the
  // audit layer's run-isolation invariant holds identically whether a sweep
  // runs pooled or serial): a DES engine created inside fn(i) is tagged to
  // that index and must not be driven by any other index or the caller.
  // The tag is one relaxed fetch_add per index — the per-index setup the
  // dispatch cannot cache away without breaking run isolation.
  if (pool.size() <= 1 || count == 1 || ThreadPool::in_dispatch()) {
    for (std::size_t i = 0; i < count; ++i) {
      RunTagScope run_scope;
      fn(i);
    }
    return;
  }
  // The shared state is one stack frame; the dispatch itself allocates
  // nothing (no per-index closures, no queue traffic).
  struct Ctx {
    Fn& fn;
    Mutex m;
    std::exception_ptr first_error GUARDED_BY(m);
  };
  Ctx ctx{fn, {}, nullptr};
  pool.dispatch_indexed(
      count,
      [](void* c, std::size_t i) {
        Ctx& cx = *static_cast<Ctx*>(c);
        try {
          RunTagScope run_scope;
          cx.fn(i);
        } catch (...) {
          ScopedLock lk(cx.m);
          if (!cx.first_error) cx.first_error = std::current_exception();
        }
      },
      &ctx);
  // All workers are done and deregistered: first_error is quiescent, but
  // the analysis still wants the capability for the GUARDED_BY read.
  ScopedLock lk(ctx.m);
  if (ctx.first_error) std::rethrow_exception(ctx.first_error);
}

}  // namespace opalsim::util
