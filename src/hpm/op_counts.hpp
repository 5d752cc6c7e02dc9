// Floating-point operation accounting — the substrate standing in for the
// Cray /dev/hpm counter device and the corresponding monitors on the T3E and
// Pentium platforms (paper §3.2).
//
// Kernels report *architecture-neutral* operation mixes (OpCounts).  Each
// platform translates a mix into "counted flops" through its
// IntrinsicCostTable: the paper's Table 1 shows that the very same kernel
// counts 811.71 MFlop on the T3E, 497.55 on the J90 and 327.40 on a Pentium,
// because compilers expand sqrt/exp intrinsics and vectorizing
// transformations differently.
#pragma once

#include <cstdint>
#include <string>

#include "util/domains.hpp"

namespace opalsim::hpm {

/// Architecture-neutral floating-point operation mix.
struct OpCounts {
  std::uint64_t add = 0;   ///< additions/subtractions
  std::uint64_t mul = 0;   ///< multiplications
  std::uint64_t div = 0;   ///< divisions
  std::uint64_t sqrt = 0;  ///< square roots
  std::uint64_t exp = 0;   ///< exp/log/pow/trig intrinsic calls
  std::uint64_t cmp = 0;   ///< floating-point compares

  OpCounts& operator+=(const OpCounts& o) noexcept;
  friend OpCounts operator+(OpCounts a, const OpCounts& b) noexcept {
    a += b;
    return a;
  }
  /// Scales every class by `k` (e.g. per-pair mix times number of pairs).
  friend OpCounts operator*(OpCounts a, std::uint64_t k) noexcept;
  friend OpCounts operator*(std::uint64_t k, OpCounts a) noexcept {
    return a * k;
  }
  bool operator==(const OpCounts&) const = default;

  /// Total operations ignoring weights (for sanity checks).
  std::uint64_t total() const noexcept {
    return add + mul + div + sqrt + exp + cmp;
  }
};

/// How a platform's compiler/intrinsics expand each operation class into
/// counted machine flops (paper §3.2: "the number of floating point
/// operations required to compute exactly the same application results
/// differs significantly").
struct IntrinsicCostTable {
  double add = 1.0;
  double mul = 1.0;
  double div = 1.0;   ///< e.g. iterative reciprocal on Cray
  double sqrt = 1.0;  ///< Newton iterations vs hardware sqrt
  double exp = 1.0;   ///< polynomial expansion length
  double cmp = 0.0;   ///< compares usually don't count as flops
  /// Extra factor for vectorizing transformations (speculative lanes,
  /// masked ops counted as executed).
  double vector_overhead = 1.0;

  /// Flops this platform's monitor reports for the mix.
  VT_PURE double counted_flops(const OpCounts& ops) const noexcept;
};

/// The canonical work measure used to convert operation mixes to time: the
/// reference platform's (Cray J90) counting, as in Table 1's "adjusted
/// computation rate" = J90-counted MFlop / node time.
const IntrinsicCostTable& canonical_cost_table() noexcept;

/// Per-task hardware counter (the /dev/hpm analogue).  Accumulates the
/// operation mix and busy cycles charged by the CPU model.
class HpmCounter {
 public:
  /// Everything the counter accumulates: its checkpoint record.
  struct Snapshot {
    OpCounts ops;
    double busy_seconds = 0.0;
    double cycles = 0.0;
  };

  void charge(const OpCounts& ops, double busy_seconds,
              double clock_hz) noexcept {
    state_.ops += ops;
    state_.busy_seconds += busy_seconds;
    state_.cycles += busy_seconds * clock_hz;
  }
  void reset() noexcept { *this = HpmCounter{}; }
  Snapshot snapshot() const noexcept { return state_; }
  /// Overwrites the accumulated state (resume only; Machine::restore checks
  /// the record first).
  void restore(const Snapshot& s) noexcept { state_ = s; }

  const OpCounts& ops() const noexcept { return state_.ops; }
  double busy_seconds() const noexcept { return state_.busy_seconds; }
  double cycles() const noexcept { return state_.cycles; }

  /// Counted MFlop as this platform's monitor would report them.
  VT_PURE double counted_mflop(const IntrinsicCostTable& table) const noexcept {
    return table.counted_flops(state_.ops) * 1e-6;
  }
  /// Computation rate in MFlop/s per the platform's own counting; 0 when no
  /// time was charged.
  double mflops(const IntrinsicCostTable& table) const noexcept {
    return state_.busy_seconds > 0.0
               ? counted_mflop(table) / state_.busy_seconds
               : 0.0;
  }

 private:
  Snapshot state_;
};

/// Pretty string like "add=12 mul=30 sqrt=2" for diagnostics.
std::string to_string(const OpCounts& ops);

}  // namespace opalsim::hpm
