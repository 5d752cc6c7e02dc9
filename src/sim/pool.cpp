#include "sim/pool.hpp"

#include <new>

namespace opalsim::sim {

FramePool::~FramePool() {
  // Slabs are released wholesale.  Outstanding pooled blocks at this point
  // would dangle on their next free — the single-thread discipline makes
  // this unreachable in correct code (every frame is destroyed before its
  // run's thread exits); assert so a violation fails loudly in debug.
  assert(stats_.outstanding == 0 &&
         "FramePool destroyed with live coroutine frames");
}

FramePool& FramePool::local() {
  static thread_local FramePool pool;
  return pool;
}

void* FramePool::allocate(std::size_t n) {
  const std::size_t total = n + kHeaderBytes;
  if (total > kClasses * kGranule) {
    ++stats_.fallback;
    auto* raw = static_cast<unsigned char*>(::operator new(total));
    auto* h = new (raw) Header;
    h->pool = nullptr;
    return raw + kHeaderBytes;
  }
  const std::size_t cls = (total + kGranule - 1) / kGranule - 1;
  const std::size_t block = (cls + 1) * kGranule;
  unsigned char* raw;
  if (!free_lists_[cls].empty()) {
    raw = static_cast<unsigned char*>(free_lists_[cls].back());
    free_lists_[cls].pop_back();
    ++stats_.reused;
  } else {
    if (slab_used_ + block > kSlabBytes) {
      slabs_.push_back(std::make_unique<unsigned char[]>(kSlabBytes));
      slab_used_ = 0;
      stats_.slab_bytes += kSlabBytes;
    }
    raw = slabs_.back().get() + slab_used_;
    slab_used_ += block;
    ++stats_.carved;
  }
  auto* h = new (raw) Header;
  h->pool = this;
  h->size_class = static_cast<std::uint32_t>(cls);
  ++stats_.outstanding;
  return raw + kHeaderBytes;
}

void FramePool::deallocate(void* p) noexcept {
  if (p == nullptr) return;
  auto* raw = static_cast<unsigned char*>(p) - kHeaderBytes;
  const Header* h = reinterpret_cast<const Header*>(raw);
  FramePool* pool = h->pool;
  if (pool == nullptr) {
    ::operator delete(raw);
    return;
  }
  assert(pool == &FramePool::local() &&
         "pooled block freed on a thread other than its allocating one");
  pool->free_lists_[h->size_class].push_back(raw);
  ++pool->stats_.freed;
  --pool->stats_.outstanding;
}

}  // namespace opalsim::sim
