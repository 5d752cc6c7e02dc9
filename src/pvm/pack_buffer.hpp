// Typed pack/unpack message buffer — the analogue of PVM's pvm_pk*/pvm_upk*
// routines (XDR encoding).  Values are appended in order and must be
// unpacked in the same order and with the same types; a type tag per item is
// stored and checked so marshalling mismatches fail loudly instead of
// silently corrupting a simulation.
//
// Every unpack path is bounds-checked against the actual buffer contents:
// a truncated or corrupted buffer throws a typed UnpackError instead of
// reading past the end, which is what lets the fault-injection layer flip
// arbitrary bytes on the wire and still keep the receiver memory-safe.
//
// Storage (see DESIGN.md, "DES core internals"):
//  - Small buffers (control messages: a few ints/handles) live entirely in a
//    64-byte inline array — no heap allocation at all.
//  - Larger bodies promote to a ref-counted immutable heap block.  Copying a
//    PackBuffer then shares that one allocation: a send, every mailbox hop,
//    and an N-way broadcast fan-out all alias the same bytes.  Only the read
//    cursor is per-copy.
//  - Mutation (pack_*, append, corrupt_byte) is copy-on-write: a holder with
//    sole ownership writes in place, a sharer clones first.  Receivers that
//    only unpack never trigger a copy.
//
// Thread ownership: a PackBuffer belongs to the DES run (sweep index) that
// created it and is never touched from two host threads — each engine and
// all its messages live on one thread, enforced by the run-isolation audit
// (util/run_tag.hpp).  The shared heap block's refcount is std::shared_ptr's
// (atomic), so the COW use_count()==1 check is sound under that contract:
// within the owning thread the count cannot change concurrently.  Do not
// hand a PackBuffer to another thread; the lock-free COW would become a
// data race.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace opalsim::pvm {

/// Thrown when a buffer cannot be unpacked as requested: read past the end,
/// truncated item, type-tag mismatch, or a length field exceeding the data
/// actually present (all of which corruption or truncation can produce).
class UnpackError : public std::runtime_error {
 public:
  explicit UnpackError(const std::string& what) : std::runtime_error(what) {}
};

class PackBuffer {
 public:
  PackBuffer() = default;

  // Copies share the heap block (refcount bump, no byte copy); only the
  // inline array and cursor/size bookkeeping are copied.  Mutators below
  // clone on demand, so sharers can never observe each other's writes.
  PackBuffer(const PackBuffer&) = default;
  PackBuffer& operator=(const PackBuffer&) = default;
  PackBuffer(PackBuffer&&) noexcept = default;
  PackBuffer& operator=(PackBuffer&&) noexcept = default;

  // -- packing -------------------------------------------------------------
  void pack_i32(std::int32_t v) { put(Tag::I32, &v, sizeof v); }
  void pack_u64(std::uint64_t v) { put(Tag::U64, &v, sizeof v); }
  void pack_f64(double v) { put(Tag::F64, &v, sizeof v); }
  void pack_string(const std::string& s) {
    pack_u64(s.size());
    put_raw(Tag::Str, s.data(), s.size());
  }
  void pack_f64_array(std::span<const double> xs) {
    pack_u64(xs.size());
    put_raw(Tag::F64Arr, xs.data(), xs.size() * sizeof(double));
  }
  void pack_u32_array(std::span<const std::uint32_t> xs) {
    pack_u64(xs.size());
    put_raw(Tag::U32Arr, xs.data(), xs.size() * sizeof(std::uint32_t));
  }

  // -- unpacking (in packing order) ----------------------------------------
  std::int32_t unpack_i32() {
    std::int32_t v;
    get(Tag::I32, &v, sizeof v);
    return v;
  }
  std::uint64_t unpack_u64() {
    std::uint64_t v;
    get(Tag::U64, &v, sizeof v);
    return v;
  }
  double unpack_f64() {
    double v;
    get(Tag::F64, &v, sizeof v);
    return v;
  }
  std::string unpack_string() {
    const std::uint64_t n = checked_count(unpack_u64(), 1, "string");
    std::string s(n, '\0');
    get_raw(Tag::Str, s.data(), n);
    return s;
  }
  std::vector<double> unpack_f64_array() {
    const std::uint64_t n =
        checked_count(unpack_u64(), sizeof(double), "f64 array");
    std::vector<double> xs(n);
    get_raw(Tag::F64Arr, xs.data(), n * sizeof(double));
    return xs;
  }
  std::vector<std::uint32_t> unpack_u32_array() {
    const std::uint64_t n =
        checked_count(unpack_u64(), sizeof(std::uint32_t), "u32 array");
    std::vector<std::uint32_t> xs(n);
    get_raw(Tag::U32Arr, xs.data(), n * sizeof(std::uint32_t));
    return xs;
  }

  /// Appends all of `other`'s items after this buffer's items (used by the
  /// RPC layer to wrap a handler's reply in a call envelope).  Appending a
  /// heap-backed buffer onto an empty one adopts its block — zero-copy.
  void append(const PackBuffer& other) {
    if (this == &other) {
      // Self-append: stage the bytes first — inserting a vector's own range
      // into itself invalidates the source on reallocation.
      const std::vector<std::uint8_t> tmp(data(), data() + size());
      auto& dst = writable(tmp.size());
      dst.insert(dst.end(), tmp.begin(), tmp.end());
    } else if (size() == 0 && other.heap_) {
      heap_ = other.heap_;
      inline_size_ = 0;
    } else if (other.size() > 0) {
      // If `other` shares this buffer's block, writable() clones ours while
      // other.heap_ keeps the source alive — the pointer stays valid.
      auto& dst = writable(other.size());
      const std::uint8_t* src = other.data();
      dst.insert(dst.end(), src, src + other.size());
    }
    payload_bytes_ += other.payload_bytes_;
  }

  /// Wire size in bytes (payload; tags are bookkeeping, not charged).
  std::size_t byte_size() const noexcept { return payload_bytes_; }
  /// Encoded size including type tags (what checksum/corruption act on).
  std::size_t raw_size() const noexcept { return size(); }
  /// True when every packed item has been unpacked.
  bool fully_consumed() const noexcept { return cursor_ == size(); }
  /// Rewinds the read cursor (e.g. to re-read a received buffer).
  void rewind() noexcept { cursor_ = 0; }

  /// True while the contents still fit the inline small-buffer storage.
  bool is_inline() const noexcept { return heap_ == nullptr; }
  /// True when this buffer and `other` alias the same heap block.
  bool shares_storage(const PackBuffer& other) const noexcept {
    return heap_ != nullptr && heap_ == other.heap_;
  }
  /// A copy guaranteed to own its bytes (breaks any sharing).
  PackBuffer deep_copy() const {
    PackBuffer b(*this);
    if (b.heap_) b.heap_ = std::make_shared<std::vector<std::uint8_t>>(*heap_);
    return b;
  }

  /// Word-parallel FNV-style hash over the encoded bytes — the payload
  /// checksum stamped on messages at send and re-checked at delivery when
  /// fault injection is active.
  ///
  /// Full 8-byte words feed four independent lanes (32-byte stride, then
  /// any remaining whole words into lanes 0, 1, 2 in turn), so the four
  /// multiply chains overlap instead of one chain per byte.  The lanes
  /// fold into one state in fixed order, then the tail bytes and the byte
  /// count are hashed into it.  Every step is `h = (h ^ x) * P` with odd P:
  /// a bijection in h for fixed x and in x for fixed h.  A change confined
  /// to one word or one tail byte therefore changes its lane (or the
  /// folded state) and every later step carries the difference through,
  /// so any single-byte corruption (`corrupt_byte`) is always detected.
  /// Words are loaded in host byte order; the value is only ever compared
  /// with another checksum taken on the same host.  The lanes are four
  /// named locals, not an array: GCC -O2 then keeps them in registers (an
  /// array-and-loop form measured 2.5x slower per byte).
  std::uint64_t checksum() const noexcept {
    constexpr std::uint64_t kBasis = 14695981039346656037ULL;
    // One FNV-1a step (64-bit prime) on a word or a byte.
    const auto step = [](std::uint64_t h, std::uint64_t x) {
      return (h ^ x) * 1099511628211ULL;
    };
    const std::uint8_t* p = data();
    const std::size_t n = size();
    std::uint64_t l0 = kBasis, l1 = kBasis ^ 0x9e3779b97f4a7c15ULL,
                  l2 = kBasis ^ 0xbf58476d1ce4e5b9ULL,
                  l3 = kBasis ^ 0x94d049bb133111ebULL;
    std::size_t i = 0;
    for (; n - i >= 32; i += 32) {
      l0 = step(l0, load_word(p + i));
      l1 = step(l1, load_word(p + i + 8));
      l2 = step(l2, load_word(p + i + 16));
      l3 = step(l3, load_word(p + i + 24));
    }
    if (n - i >= 8) {
      l0 = step(l0, load_word(p + i));
      i += 8;
    }
    if (n - i >= 8) {
      l1 = step(l1, load_word(p + i));
      i += 8;
    }
    if (n - i >= 8) {
      l2 = step(l2, load_word(p + i));
      i += 8;
    }
    std::uint64_t h = kBasis;
    for (const std::uint64_t l : {l0, l1, l2, l3}) h = step(h, l);
    for (; i < n; ++i) h = step(h, p[i]);
    return step(h, n);
  }

  /// Encoded bytes (tags included) — what a checkpoint image stores for an
  /// undelivered mailbox item.
  std::span<const std::uint8_t> raw_bytes() const noexcept {
    return {data(), size()};
  }

  /// Rebuilds a buffer from encoded bytes + the original payload byte count
  /// (checkpoint resume).  The read cursor starts at 0: only unread items
  /// are ever checkpointed, so a restored buffer is unread by construction.
  static PackBuffer from_raw(std::span<const std::uint8_t> bytes,
                             std::size_t payload_bytes) {
    PackBuffer b;
    if (bytes.size() <= kInlineCapacity) {
      // Empty span: data() may be null, and memcpy(p, nullptr, 0) is UB.
      if (!bytes.empty())
        std::memcpy(b.inline_buf_.data(), bytes.data(), bytes.size());
      b.inline_size_ = bytes.size();
    } else {
      b.heap_ = std::make_shared<std::vector<std::uint8_t>>(bytes.begin(),
                                                            bytes.end());
    }
    b.payload_bytes_ = payload_bytes;
    return b;
  }

  /// Fault injection: inverts one encoded byte (type tags included, so
  /// corruption can also surface as an UnpackError downstream).  No-op on an
  /// empty buffer.  Copy-on-write: never visible through sharing copies.
  void corrupt_byte(std::size_t position) {
    if (size() == 0) return;
    const std::size_t at = position % size();
    if (heap_) {
      writable(0)[at] ^= 0xff;
    } else {
      inline_buf_[at] ^= 0xff;
    }
  }

 private:
  enum class Tag : std::uint8_t { I32, U64, F64, Str, F64Arr, U32Arr };

  static constexpr std::size_t kInlineCapacity = 64;

  static std::uint64_t load_word(const std::uint8_t* p) noexcept {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
  }

  const std::uint8_t* data() const noexcept {
    return heap_ ? heap_->data() : inline_buf_.data();
  }
  std::size_t size() const noexcept {
    return heap_ ? heap_->size() : inline_size_;
  }

  /// Uniquely-owned heap storage ready for `extra` appended bytes: promotes
  /// inline contents, clones a shared block (COW).
  std::vector<std::uint8_t>& writable(std::size_t extra) {
    if (!heap_) {
      heap_ = std::make_shared<std::vector<std::uint8_t>>();
      heap_->reserve(inline_size_ + extra);
      heap_->assign(inline_buf_.data(), inline_buf_.data() + inline_size_);
      inline_size_ = 0;
    } else if (heap_.use_count() > 1) {
      heap_ = std::make_shared<std::vector<std::uint8_t>>(*heap_);
    }
    return *heap_;
  }

  /// Validates a decoded element count against the bytes actually present
  /// before any allocation, so a corrupted length field cannot trigger a
  /// huge allocation or an overflowing size computation.
  std::uint64_t checked_count(std::uint64_t n, std::size_t elem_size,
                              const char* what) const {
    const std::size_t remaining = size() - cursor_;
    if (n > remaining / elem_size)
      throw UnpackError(std::string("PackBuffer: ") + what +
                        " length exceeds buffer");
    return n;
  }

  void put(Tag tag, const void* p, std::size_t n) { put_raw(tag, p, n); }

  void put_raw(Tag tag, const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    if (!heap_ && inline_size_ + 1 + n <= kInlineCapacity) {
      inline_buf_[inline_size_++] = static_cast<std::uint8_t>(tag);
      // An empty array packs as a bare tag; its source pointer may be null.
      if (n > 0) std::memcpy(inline_buf_.data() + inline_size_, bytes, n);
      inline_size_ += n;
    } else {
      auto& dst = writable(1 + n);
      dst.push_back(static_cast<std::uint8_t>(tag));
      dst.insert(dst.end(), bytes, bytes + n);
    }
    payload_bytes_ += n;
  }

  void get(Tag tag, void* p, std::size_t n) { get_raw(tag, p, n); }

  void get_raw(Tag tag, void* p, std::size_t n) {
    if (cursor_ >= size()) throw UnpackError("PackBuffer: unpack past end");
    const std::uint8_t* bytes = data();
    const Tag actual = static_cast<Tag>(bytes[cursor_]);
    if (actual != tag) throw UnpackError("PackBuffer: type mismatch on unpack");
    ++cursor_;
    // Overflow-safe: `cursor_ + n > size` would wrap for huge n (a decoded
    // length from a corrupted buffer), silently passing the check and
    // reading out of bounds.  Compare against the remaining bytes instead.
    if (n > size() - cursor_) throw UnpackError("PackBuffer: truncated item");
    // An empty array unpacks into a vector whose data() may be null.
    if (n > 0) std::memcpy(p, bytes + cursor_, n);
    cursor_ += n;
  }

  std::array<std::uint8_t, kInlineCapacity> inline_buf_{};
  std::size_t inline_size_ = 0;
  std::shared_ptr<std::vector<std::uint8_t>> heap_;
  std::size_t payload_bytes_ = 0;
  std::size_t cursor_ = 0;
};

}  // namespace opalsim::pvm
