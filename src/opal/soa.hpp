// Structure-of-arrays mirror of the mass centers for the nonbonded hot
// path.
//
// The AoS MassCenter layout costs one 64-byte line per center touched even
// though the kernel needs only position, charge and the two LJ
// coefficients; mirroring those six fields into contiguous arrays roughly
// halves the memory traffic of the pair loop.  nonbonded_batch additionally
// runs the per-pair arithmetic in a lane-blocked form (gather a block of
// pairs into contiguous lane arrays, evaluate the math loop under
// `#pragma omp simd`, then commit energies and gradients strictly in pair
// order) so the autovectorizer emits packed AVX code.  Every lane computes
// expression-for-expression the arithmetic of nonbonded_pair
// (forcefield.hpp) on the same values — IEEE add/sub/mul/div/sqrt are
// correctly rounded, and the tree is built with -ffp-contract=off — so
// energies and gradients are bit-identical to the AoS kernel no matter the
// ISA; only host wall time changes.  See DESIGN.md, "Host execution
// engine".
#pragma once

#include <span>
#include <vector>

#include "opal/complex.hpp"
#include "opal/forcefield.hpp"
#include "opal/pairs.hpp"
#include "opal/vec3.hpp"

namespace opalsim::opal {

struct CentersSoA {
  std::vector<double> x, y, z, charge, c12, c6;

  std::size_t size() const noexcept { return x.size(); }

  /// Mirrors the per-run-constant fields (charge, LJ coefficients).  Call
  /// once per run — params never change after construction, so refreshing
  /// them per step is pure waste on the hot path.
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

/// SoA twin of nonbonded_pair: same operations in the same order on the
/// same values, loading from the mirrored arrays.
inline void nonbonded_soa_pair(const CentersSoA& s, std::uint32_t i,
                               std::uint32_t j, double& evdw, double& ecoul,
                               Vec3* grad) {
  const Vec3 d{s.x[i] - s.x[j], s.y[i] - s.y[j], s.z[i] - s.z[j]};
  const double r2 = d.norm2();
  const double inv_r2 = 1.0 / r2;
  const double inv_r = std::sqrt(inv_r2);
  const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
  const double c12 = std::sqrt(s.c12[i] * s.c12[j]);
  const double c6 = std::sqrt(s.c6[i] * s.c6[j]);
  const double lj = (c12 * inv_r6 - c6) * inv_r6;
  const double qq = kCoulombConstant * s.charge[i] * s.charge[j];
  const double coul = qq * inv_r;
  evdw += lj;
  ecoul += coul;
  const double dvdr_over_r =
      (-12.0 * c12 * inv_r6 + 6.0 * c6) * inv_r6 * inv_r2 -
      coul * inv_r2;
  const Vec3 g = d * dvdr_over_r;
  grad[i] += g;
  grad[j] -= g;
}

/// Evaluates the nonbonded term over `pairs` in order, accumulating into
/// the scalars and `grad` exactly as the per-pair AoS loop would.
void nonbonded_batch(const CentersSoA& soa, std::span<const PairIdx> pairs,
                     double& evdw, double& ecoul, std::span<Vec3> grad);

}  // namespace opalsim::opal
