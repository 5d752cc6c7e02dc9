// Slab/free-list allocator for the DES hot path: coroutine frames (every
// Task<T> and engine root frame), per-spawn ProcessState blocks, and any
// other small allocation the engine makes per event.
//
// Design:
//  - One FramePool per thread (FramePool::local()).  The engine is strictly
//    single-threaded — a run and every coroutine frame it creates live on
//    one thread (sweep workers each run whole engines) — so the per-thread
//    pool is a per-engine-run arena with zero synchronization.
//  - Blocks are carved from 64 KiB slabs in 64-byte size classes; freed
//    blocks go on a per-class free list and are reused LIFO (warm cache).
//  - Every block is prefixed by a 16-byte header recording the owning pool
//    and size class, so deallocation routes to the right free list, and
//    oversized allocations (header pool = nullptr) fall back to the global
//    heap transparently.
//  - Slabs are released when the pool (thread) dies; blocks must therefore
//    be freed on the thread that allocated them.  That holds by the engine's
//    single-thread discipline; a debug assert in deallocate() catches
//    violations.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace opalsim::sim {

class FramePool {
 public:
  struct Stats {
    std::uint64_t reused = 0;       ///< served from a free list
    std::uint64_t carved = 0;       ///< served fresh from a slab
    std::uint64_t fallback = 0;     ///< oversize: global heap
    std::uint64_t freed = 0;        ///< pooled blocks returned
    std::uint64_t outstanding = 0;  ///< live pooled blocks
    std::uint64_t slab_bytes = 0;   ///< total slab memory reserved
    /// Fraction of pooled allocations served without touching a slab.
    double hit_rate() const noexcept {
      const double total = static_cast<double>(reused + carved);
      return total > 0.0 ? static_cast<double>(reused) / total : 0.0;
    }
  };

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool();

  /// The calling thread's pool (per-engine-run arena; see header comment).
  static FramePool& local();

  /// Allocates `n` bytes from the calling thread's pool (16-byte aligned).
  static void* allocate_raw(std::size_t n) { return local().allocate(n); }

  /// Frees a block from allocate_raw, routing via the block header.  Must
  /// run on the allocating thread for pooled blocks (debug-asserted).
  static void deallocate(void* p) noexcept;

  const Stats& stats() const noexcept { return stats_; }
  /// Snapshot of the calling thread's pool counters.
  static Stats local_stats() { return local().stats_; }

 private:
  /// Allocates from this pool instance (16-byte aligned).  Free with the
  /// static deallocate() — the header routes back here.
  void* allocate(std::size_t n);

  struct Header {
    FramePool* pool = nullptr;  ///< owner; nullptr = global-heap fallback
    std::uint32_t size_class = 0;
  };
  static constexpr std::size_t kHeaderBytes = 16;  // preserves 16B alignment
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 64;      // pooled up to 4 KiB
  static constexpr std::size_t kSlabBytes = std::size_t{64} * 1024;

  std::vector<void*> free_lists_[kClasses];
  std::vector<std::unique_ptr<unsigned char[]>> slabs_;
  std::size_t slab_used_ = kSlabBytes;  // forces a slab on first carve
  Stats stats_;
};

/// Mixin giving a coroutine promise_type pooled frame allocation.  The
/// compiler routes the whole frame (promise + locals + spilled state)
/// through these operators.
struct PooledFrame {
  static void* operator new(std::size_t n) {
    return FramePool::allocate_raw(n);
  }
  static void operator delete(void* p) noexcept { FramePool::deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    FramePool::deallocate(p);
  }
};

/// Minimal allocator adapter over the thread's FramePool — used to
/// allocate_shared the per-spawn ProcessState so control block and state
/// share one pooled allocation.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(runtime/explicit)
  T* allocate(std::size_t n) {
    return static_cast<T*>(FramePool::allocate_raw(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { FramePool::deallocate(p); }
  friend bool operator==(const PoolAllocator&, const PoolAllocator&) noexcept {
    return true;
  }
};

}  // namespace opalsim::sim
