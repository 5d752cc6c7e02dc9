// Structure-of-arrays mirror of the mass centers for the nonbonded hot
// path.
//
// The AoS MassCenter layout costs one 64-byte line per center touched even
// though the kernel needs only position, charge and the two LJ
// coefficients; mirroring those six fields into contiguous arrays roughly
// halves the memory traffic of the pair loop.  nonbonded_batch runs the
// per-pair arithmetic in a lane-blocked form (copy a block of 32 pair
// indices into lane arrays, evaluate the math loop under `#pragma omp
// simd`, then commit energies and gradients strictly in pair order) so the
// autovectorizer emits packed code.  The commit keeps g[i] in registers
// while consecutive pairs share i (a row) and stores it when the row ends;
// since a pair never names its own center twice, no g[j] update of the row
// touches g[i], so every addition still happens in the same order on the
// same values.  A block whose 32 pairs all lie in one row is a row block:
// only j is copied, row i's position, kC*q_i and LJ row are loaded once,
// and the commit tests for a row change once.  When the complex has few LJ
// types (T·T <= n centers; the
// synthetic complexes have two), the two LJ combination sqrts are read from
// a per-type-pair table instead of computed per pair.  Every lane computes
// expression-for-expression the arithmetic of the per-pair AoS kernel
// (nonbonded_pair, kept as the oracle in tests/opal/nonbonded_oracle.hpp)
// on the same values — each table entry is that same
// correctly rounded expression on the same operands, IEEE
// add/sub/mul/div/sqrt are correctly rounded, and the tree is built with
// -ffp-contract=off — so energies and gradients are bit-identical to the
// AoS kernel no matter the ISA; only host wall time changes.
//
// A span of at least 4 chunks of 2,048 pairs, called outside any pool
// dispatch, is pipelined across a thread pool: helpers run the index and
// math passes of chunks ahead into a ring of 8 result slots while the
// calling thread commits chunk after chunk in pair order, carrying the
// row accumulator across chunks.  Each block is the inline driver's block
// and the commit is the same commit, so the bits do not depend on the
// pool size; the calling thread computes any block no helper has
// finished, so progress never waits on a helper.  Sweep runs (inside a
// dispatch) and small spans stay on the inline 32-lane block loop.  See
// DESIGN.md, "Host execution engine".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "opal/complex.hpp"
#include "opal/pairs.hpp"
#include "opal/vec3.hpp"
#include "util/thread_pool.hpp"

namespace opalsim::opal {

struct CentersSoA {
  std::vector<double> x, y, z, charge, c12, c6;
  /// LJ pair table, built by refresh_params when the centers fall into T
  /// LJ types (grouped by the bit patterns of (c12, c6)) with T·T <= n:
  /// lj_ntypes is T, lj_type[c] is center c's type, and
  /// lj_c12/lj_c6[a*T + b] hold sqrt(c12_a*c12_b) and sqrt(c6_a*c6_b).
  /// Empty (and lj_ntypes 0) otherwise, in which case the kernel combines
  /// the per-center columns per pair.
  std::vector<std::uint32_t> lj_type;
  std::vector<double> lj_c12, lj_c6;
  std::uint32_t lj_ntypes = 0;

  std::size_t size() const noexcept { return x.size(); }

  /// Mirrors the per-run-constant fields (charge, LJ coefficients) and
  /// builds the LJ pair table when it fits.  Call once per run — params
  /// never change after construction, so refreshing them per step is pure
  /// waste on the hot path.
  void refresh_params(const MolecularComplex& mc);
  /// Mirrors the positions; call once per step after integration moved
  /// them.  Debug builds assert that refresh_params ran first and still
  /// matches `mc` (catches both a missing param mirror and a stale one).
  void refresh_positions(const MolecularComplex& mc);
  void refresh(const MolecularComplex& mc) {
    refresh_params(mc);
    refresh_positions(mc);
  }
};

/// Evaluates the nonbonded term over `pairs` in order, accumulating into
/// the scalars and `grad` exactly as the per-pair AoS loop would.  Every
/// pair names two distinct centers (i != j).  A large span is pipelined on
/// util::ThreadPool::shared(), built at the first such call (sized by
/// OPALSIM_THREADS; a malformed value throws util::FatalError there).
void nonbonded_batch(const CentersSoA& soa, std::span<const PairIdx> pairs,
                     double& evdw, double& ecoul, std::span<Vec3> grad);

/// The same, pipelined on `pool` instead when the span is large enough;
/// a pool of one thread, or a call inside a dispatch, runs inline.  Same
/// bits as the overload above for every pool.
void nonbonded_batch(const CentersSoA& soa, std::span<const PairIdx> pairs,
                     double& evdw, double& ecoul, std::span<Vec3> grad,
                     util::ThreadPool& pool);

}  // namespace opalsim::opal
