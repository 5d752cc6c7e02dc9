// Test oracle: the per-pair AoS nonbonded kernel.  Production code runs
// nonbonded_batch (opal/soa.hpp) over a CentersSoA; the tests hold it to
// this straight-line loop bit for bit (test_soa, test_forcefield,
// test_serial).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "opal/complex.hpp"
#include "opal/forcefield.hpp"
#include "opal/vec3.hpp"

namespace opalsim::opal {

/// Evaluates the nonbonded pair term (van der Waals + Coulomb) between mass
/// centers i and j, accumulating the energies and the gradient of V
/// (dV/dr, NOT force) into `grad`.  LJ coefficients combine geometrically.
inline void nonbonded_pair(const MolecularComplex& mc, std::uint32_t i,
                           std::uint32_t j, double& evdw, double& ecoul,
                           std::span<Vec3> grad) {
  const MassCenter& a = mc.centers[i];
  const MassCenter& b = mc.centers[j];
  const Vec3 d = a.position - b.position;
  const double r2 = d.norm2();
  const double inv_r2 = 1.0 / r2;
  const double inv_r = std::sqrt(inv_r2);
  const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
  const double c12 = std::sqrt(a.c12 * b.c12);
  const double c6 = std::sqrt(a.c6 * b.c6);
  const double lj = (c12 * inv_r6 - c6) * inv_r6;
  const double qq = kCoulombConstant * a.charge * b.charge;
  const double coul = qq * inv_r;
  evdw += lj;
  ecoul += coul;
  // dV/dr scalar over r: (-12 c12 r^-13 + 6 c6 r^-7 - qq r^-2) / r
  const double dvdr_over_r =
      (-12.0 * c12 * inv_r6 + 6.0 * c6) * inv_r6 * inv_r2 -
      coul * inv_r2;
  const Vec3 g = d * dvdr_over_r;
  grad[i] += g;
  grad[j] -= g;
}

}  // namespace opalsim::opal
