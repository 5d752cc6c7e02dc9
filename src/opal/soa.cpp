#include "opal/soa.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace opalsim::opal {

void CentersSoA::refresh_params(const MolecularComplex& mc) {
  const std::size_t n = mc.n();
  charge.resize(n);
  c12.resize(n);
  c6.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const MassCenter& c = mc.centers[i];
    charge[i] = c.charge;
    c12[i] = c.c12;
    c6[i] = c.c6;
  }
}

void CentersSoA::refresh_positions(const MolecularComplex& mc) {
  const std::size_t n = mc.n();
  // Params are run-constant and mirrored once per run; positions are the
  // only per-step refresh.  A stale (or missing) param mirror would evaluate
  // the force field against the wrong charges/LJ coefficients, so debug
  // builds verify the contract here.
  assert(charge.size() == n && c12.size() == n && c6.size() == n &&
         "CentersSoA: refresh_params must run before refresh_positions");
#ifndef NDEBUG
  for (std::size_t i = 0; i < n; ++i) {
    const MassCenter& c = mc.centers[i];
    assert(charge[i] == c.charge && c12[i] == c.c12 && c6[i] == c.c6 &&
           "CentersSoA: params stale — refresh_params out of date");
  }
#endif
  x.resize(n);
  y.resize(n);
  z.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3& r = mc.centers[i].position;
    x[i] = r.x;
    y[i] = r.y;
    z[i] = r.z;
  }
}

namespace {

/// Lane-block width.  32 lanes keeps the whole block (two u32 index arrays
/// plus five result arrays, ~1.5 KiB) L1-resident while giving the
/// vectorizer long full-width runs; measured best among 8..128 on the
/// bench complex.
constexpr std::size_t kLaneBlock = 32;

/// Per-block lane state: pair indices in, per-lane results out.  Operand
/// gathering happens *inside* the SIMD loop (indexed loads from the SoA
/// arrays) — a separate scalar gather pass into lane arrays measured
/// slower than the plain per-pair loop, because every vector load of a
/// freshly scalar-written lane array stalls on store-forwarding.
struct alignas(64) PairBlock {
  std::uint32_t pi[kLaneBlock], pj[kLaneBlock];
  double lj[kLaneBlock], coul[kLaneBlock];
  double gx[kLaneBlock], gy[kLaneBlock], gz[kLaneBlock];
};

/// Evaluates the nonbonded arithmetic for `m` independent lanes.  Each lane
/// is the exact expression sequence of nonbonded_pair / nonbonded_soa_pair:
/// no reductions, no reassociation — the only freedom the vectorizer gets
/// is packing independent lanes, which cannot change any lane's bits (IEEE
/// add/sub/mul/div/sqrt are correctly rounded, and -ffp-contract=off keeps
/// FMA contraction out at every -march level).
void nonbonded_math_block(PairBlock& b, std::size_t m, const double* x,
                          const double* y, const double* z, const double* q,
                          const double* c12v, const double* c6v) {
#pragma omp simd
  for (std::size_t k = 0; k < m; ++k) {
    const std::uint32_t i = b.pi[k];
    const std::uint32_t j = b.pj[k];
    const double dx = x[i] - x[j];
    const double dy = y[i] - y[j];
    const double dz = z[i] - z[j];
    const double r2 = dx * dx + dy * dy + dz * dz;
    const double inv_r2 = 1.0 / r2;
    const double inv_r = std::sqrt(inv_r2);
    const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
    const double c12 = std::sqrt(c12v[i] * c12v[j]);
    const double c6 = std::sqrt(c6v[i] * c6v[j]);
    b.lj[k] = (c12 * inv_r6 - c6) * inv_r6;
    // kC*qi*qj associates left-to-right in the scalar kernel; keep it.
    const double coul = kCoulombConstant * q[i] * q[j] * inv_r;
    b.coul[k] = coul;
    const double dvdr_over_r =
        (-12.0 * c12 * inv_r6 + 6.0 * c6) * inv_r6 * inv_r2 - coul * inv_r2;
    b.gx[k] = dx * dvdr_over_r;
    b.gy[k] = dy * dvdr_over_r;
    b.gz[k] = dz * dvdr_over_r;
  }
}

}  // namespace

void nonbonded_batch(const CentersSoA& soa, std::span<const PairIdx> pairs,
                     double& evdw, double& ecoul, std::span<Vec3> grad) {
  // Lane-blocked evaluation in three passes per block:
  //   index   — copy the block's pair indices into lane arrays;
  //   math    — the SIMD loop above, lanes fully independent, operands
  //             gathered by indexed loads inside the loop;
  //   commit  — energies and gradients accumulated strictly in pair order.
  // The commit order is the whole ballgame: grad[i] += g / grad[j] -= g
  // touch overlapping centers across pairs, and the energy sums are FP
  // accumulations, so replaying them in the original sequence is what keeps
  // the batch bit-identical to the per-pair AoS loop.
  double vdw = evdw, coul = ecoul;
  Vec3* g = grad.data();
  const double* sx = soa.x.data();
  const double* sy = soa.y.data();
  const double* sz = soa.z.data();
  const double* sq = soa.charge.data();
  const double* s12 = soa.c12.data();
  const double* s6 = soa.c6.data();
  PairBlock b;
  const std::size_t npairs = pairs.size();
  for (std::size_t t = 0; t < npairs; t += kLaneBlock) {
    const std::size_t m = std::min(kLaneBlock, npairs - t);
    for (std::size_t k = 0; k < m; ++k) {
      b.pi[k] = pairs[t + k].i;
      b.pj[k] = pairs[t + k].j;
    }
    if (m == kLaneBlock) {
      // Constant trip count: the vector body needs no scalar epilogue,
      // which measures a few percent faster than the variable-m call.
      nonbonded_math_block(b, kLaneBlock, sx, sy, sz, sq, s12, s6);
    } else {
      nonbonded_math_block(b, m, sx, sy, sz, sq, s12, s6);
    }
    for (std::size_t k = 0; k < m; ++k) {
      vdw += b.lj[k];
      coul += b.coul[k];
      const std::uint32_t i = b.pi[k];
      const std::uint32_t j = b.pj[k];
      g[i].x += b.gx[k];
      g[i].y += b.gy[k];
      g[i].z += b.gz[k];
      g[j].x -= b.gx[k];
      g[j].y -= b.gy[k];
      g[j].z -= b.gz[k];
    }
  }
  evdw = vdw;
  ecoul = coul;
}

}  // namespace opalsim::opal
