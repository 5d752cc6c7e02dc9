// Little-endian binary encode/decode helpers for checkpoint images.
//
// The wire format is explicit and host-independent: fixed-width integers are
// written byte by byte in little-endian order, doubles as the IEEE-754 bit
// pattern of their uint64 image.  BinReader bounds-checks every read, and
// every length prefix goes through get_count, which refuses a count the
// remaining bytes cannot hold; both throw DecodeError, so a truncated or
// corrupted image fails loudly (the checkpoint loader turns that into a
// fall-back to the previous-good image) and never allocates on a forged
// count.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace opalsim::util {

/// Thrown by BinReader on any structurally invalid input (read past end,
/// absurd length prefix).
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class BinWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_bytes(std::span<const std::uint8_t> b) {
    put_u64(b.size());
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }
  void put_string(const std::string& s) {
    put_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  void put_f64_vec(const std::vector<double>& xs) {
    put_u64(xs.size());
    for (const double x : xs) put_f64(x);
  }

  void reserve(std::size_t n) { bytes_.reserve(n); }
  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class BinReader {
 public:
  explicit BinReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t get_u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  bool get_bool() { return get_u8() != 0; }
  /// Reads a u64 length prefix and refuses it, before the caller allocates
  /// anything, when the bytes left cannot hold that many elements of at
  /// least `min_elem_bytes` (>= 1) each — so a corrupted count can trigger
  /// neither a huge allocation nor an overflowing size computation.
  std::uint64_t get_count(std::size_t min_elem_bytes) {
    const std::uint64_t n = get_u64();
    if (n > (bytes_.size() - pos_) / min_elem_bytes) {
      throw DecodeError("BinReader: length prefix exceeds buffer");
    }
    return n;
  }

  bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const {
    if (n > bytes_.size() - pos_) {
      throw DecodeError("BinReader: read past end of buffer");
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace opalsim::util
