#include "opal/soa.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <type_traits>

#include "opal/forcefield.hpp"

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

  // LJ types: centers whose (c12, c6) have the same bit patterns (bits, not
  // ==, so -0.0 and +0.0, and NaNs, stay apart and every table entry is
  // computed from the exact operands the per-pair expression would use).
  // The table is built only while T·T <= n, so it never outgrows one
  // per-center column; beyond that the kernel combines per pair.
  lj_type.clear();
  lj_c12.clear();
  lj_c6.clear();
  lj_ntypes = 0;
  std::vector<std::uint32_t> type(n);
  std::vector<double> rep12, rep6;  // one representative per type
  for (std::size_t c = 0; c < n; ++c) {
    const auto b12 = std::bit_cast<std::uint64_t>(c12[c]);
    const auto b6 = std::bit_cast<std::uint64_t>(c6[c]);
    std::size_t t = 0;
    while (t < rep12.size() &&
           (std::bit_cast<std::uint64_t>(rep12[t]) != b12 ||
            std::bit_cast<std::uint64_t>(rep6[t]) != b6)) {
      ++t;
    }
    if (t == rep12.size()) {
      if ((t + 1) * (t + 1) > n) return;
      rep12.push_back(c12[c]);
      rep6.push_back(c6[c]);
    }
    type[c] = static_cast<std::uint32_t>(t);
  }
  const std::size_t nt = rep12.size();
  lj_c12.resize(nt * nt);
  lj_c6.resize(nt * nt);
  for (std::size_t a = 0; a < nt; ++a) {
    for (std::size_t b = 0; b < nt; ++b) {
      lj_c12[a * nt + b] = std::sqrt(rep12[a] * rep12[b]);
      lj_c6[a * nt + b] = std::sqrt(rep6[a] * rep6[b]);
    }
  }
  lj_type = std::move(type);
  lj_ntypes = static_cast<std::uint32_t>(nt);
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
/// vectorizer long full-width runs.  Measured on large_nocut: 64 lanes tie
/// with 32, 128 lanes cost +3–4% wall.
constexpr std::size_t kLaneBlock = 32;

/// Per-block lane state: pair indices in, per-lane results out.  Operand
/// gathering happens *inside* the SIMD loop (indexed loads from the SoA
/// arrays) — a separate scalar gather pass into lane arrays measured
/// slower than the plain per-pair loop, because every vector load of a
/// freshly scalar-written lane array stalls on store-forwarding.  The pair
/// indices, though, are copied by a separate index pass: reading PairIdx
/// inside the SIMD loop instead measured +28–35% wall on large_nocut.  In
/// a row block only pi[0] is set: every lane's i is that one center.
struct alignas(64) PairBlock {
  std::uint32_t pi[kLaneBlock], pj[kLaneBlock];
  double lj[kLaneBlock], coul[kLaneBlock];
  double gx[kLaneBlock], gy[kLaneBlock], gz[kLaneBlock];
};

/// Evaluates the nonbonded arithmetic for `m` independent lanes.  Each lane
/// is the exact expression sequence of the AoS oracle nonbonded_pair
/// (tests/opal/nonbonded_oracle.hpp): no reductions, no
/// reassociation — the only freedom the vectorizer gets is packing
/// independent lanes, which cannot change any lane's bits (IEEE
/// add/sub/mul/div/sqrt are correctly rounded, and -ffp-contract=off keeps
/// FMA contraction out at every -march level).  With kTable the two LJ
/// combinations are loaded from the type-pair table, whose entries are the
/// same expressions on the same operands.  With kRow every lane shares
/// i = pi[0], whose operands are loaded once: x/y/z[i], kC*q[i] (the left
/// step of the left-to-right kC*q_i*q_j, so the same bits) and the table
/// row of type[i].
template <bool kTable, bool kRow>
void nonbonded_math_block(PairBlock& b, std::size_t m, const CentersSoA& s) {
  const double* x = s.x.data();
  const double* y = s.y.data();
  const double* z = s.z.data();
  const double* q = s.charge.data();
  const double* c12v = s.c12.data();
  const double* c6v = s.c6.data();
  const std::uint32_t* type = s.lj_type.data();
  const double* t12 = s.lj_c12.data();
  const double* t6 = s.lj_c6.data();
  const std::uint32_t nt = s.lj_ntypes;  // T·T <= n, so type pairs fit u32
  double xr = 0.0, yr = 0.0, zr = 0.0, kqr = 0.0, c12r = 0.0, c6r = 0.0;
  if constexpr (kRow) {
    const std::uint32_t i = b.pi[0];
    xr = x[i];
    yr = y[i];
    zr = z[i];
    kqr = kCoulombConstant * q[i];
    if constexpr (kTable) {
      t12 += type[i] * nt;
      t6 += type[i] * nt;
    } else {
      c12r = c12v[i];
      c6r = c6v[i];
    }
  }
#pragma omp simd
  for (std::size_t k = 0; k < m; ++k) {
    const std::uint32_t i = kRow ? 0 : b.pi[k];
    const std::uint32_t j = b.pj[k];
    const double dx = (kRow ? xr : x[i]) - x[j];
    const double dy = (kRow ? yr : y[i]) - y[j];
    const double dz = (kRow ? zr : z[i]) - z[j];
    const double r2 = dx * dx + dy * dy + dz * dz;
    const double inv_r2 = 1.0 / r2;
    const double inv_r = std::sqrt(inv_r2);
    const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
    double c12 = 0.0, c6 = 0.0;
    if constexpr (kTable) {
      const std::uint32_t ab = kRow ? type[j] : type[i] * nt + type[j];
      c12 = t12[ab];
      c6 = t6[ab];
    } else {
      c12 = std::sqrt((kRow ? c12r : c12v[i]) * c12v[j]);
      c6 = std::sqrt((kRow ? c6r : c6v[i]) * c6v[j]);
    }
    b.lj[k] = (c12 * inv_r6 - c6) * inv_r6;
    // kC*qi*qj associates left-to-right in the scalar kernel; keep it.
    const double coul = (kRow ? kqr : kCoulombConstant * q[i]) * q[j] * inv_r;
    b.coul[k] = coul;
    const double dvdr_over_r =
        (-12.0 * c12 * inv_r6 + 6.0 * c6) * inv_r6 * inv_r2 - coul * inv_r2;
    b.gx[k] = dx * dvdr_over_r;
    b.gy[k] = dy * dvdr_over_r;
    b.gz[k] = dz * dvdr_over_r;
  }
}

/// True when all kLaneBlock pairs from `p` share one i.  The end test
/// settles most mixed blocks with one compare; the full test is branch-free
/// and vectorizes.
bool one_row(const PairIdx* p) noexcept {
  const std::uint32_t i = p[0].i;
  if (p[kLaneBlock - 1].i != i) return false;
  bool same = true;
  for (std::size_t k = 1; k + 1 < kLaneBlock; ++k) same &= p[k].i == i;
  return same;
}

// Lane-blocked evaluation in three passes per block:
//   index   — copy the block's pair indices into lane arrays;
//   math    — the SIMD loop above, lanes fully independent, operands
//             gathered by indexed loads inside the loop;
//   commit  — energies and gradients accumulated strictly in pair order.
// The commit order is the whole ballgame: grad[i] += g / grad[j] -= g
// touch overlapping centers across pairs, and the energy sums are FP
// accumulations, so replaying them in the original sequence is what keeps
// the batch bit-identical to the per-pair AoS loop.  The row's grad[i]
// lives in three registers while consecutive pairs share i, and is stored
// when i changes and after the last pair: the same additions in the same
// order, minus the store-to-load chain through memory.  No grad[j] -= g of
// the row can touch it, since every pair has j != i.  A row that re-opens
// later (a domain after a failover adoption) reloads the stored g[i].
//
// A full block whose pairs all lie in one row is a *row block*: its index
// pass copies only j, the math loads row i's operands once, and the commit
// tests for a row change once instead of per pair.  On the hashed p = 7
// domain of large_nocut (rows of ~450 pairs) nearly every block is one; on
// 10 A active lists (rows of ~12 pairs) few are, and those blocks run the
// per-pair form.  Walking the span row by row with blocks cut at each row
// end measured 1.25x slower there: a partial block and three mispredicted
// loop exits per row.
template <bool kTable>
void nonbonded_rows(const CentersSoA& soa, std::span<const PairIdx> pairs,
                    double& evdw, double& ecoul, Vec3* g) {
  const std::size_t npairs = pairs.size();
  if (npairs == 0) return;
  double vdw = evdw, coul = ecoul;
  std::uint32_t row = pairs[0].i;
  double ax = g[row].x, ay = g[row].y, az = g[row].z;
  const auto open_row = [&](std::uint32_t i) {
    g[row] = Vec3{ax, ay, az};
    row = i;
    ax = g[row].x;
    ay = g[row].y;
    az = g[row].z;
  };
  PairBlock b;
  const auto commit = [&](std::size_t m, auto row_block) {
    for (std::size_t k = 0; k < m; ++k) {
      vdw += b.lj[k];
      coul += b.coul[k];
      if constexpr (!decltype(row_block)::value) {
        if (b.pi[k] != row) open_row(b.pi[k]);
      }
      ax += b.gx[k];
      ay += b.gy[k];
      az += b.gz[k];
      Vec3& gj = g[b.pj[k]];
      gj.x -= b.gx[k];
      gj.y -= b.gy[k];
      gj.z -= b.gz[k];
    }
  };
  for (std::size_t t = 0; t < npairs; t += kLaneBlock) {
    const std::size_t m = std::min(kLaneBlock, npairs - t);
    const PairIdx* p = pairs.data() + t;
    if (m == kLaneBlock && one_row(p)) {
      b.pi[0] = p[0].i;
      for (std::size_t k = 0; k < kLaneBlock; ++k) b.pj[k] = p[k].j;
      nonbonded_math_block<kTable, true>(b, kLaneBlock, soa);
      if (b.pi[0] != row) open_row(b.pi[0]);
      commit(kLaneBlock, std::true_type{});
      continue;
    }
    for (std::size_t k = 0; k < m; ++k) {
      b.pi[k] = p[k].i;
      b.pj[k] = p[k].j;
    }
    if (m == kLaneBlock) {
      // Constant trip count: the vector body needs no scalar epilogue,
      // which measures a few percent faster than the variable-m call.
      nonbonded_math_block<kTable, false>(b, kLaneBlock, soa);
    } else {
      nonbonded_math_block<kTable, false>(b, m, soa);
    }
    commit(m, std::false_type{});
  }
  g[row] = Vec3{ax, ay, az};
  evdw = vdw;
  ecoul = coul;
}

}  // namespace

void nonbonded_batch(const CentersSoA& soa, std::span<const PairIdx> pairs,
                     double& evdw, double& ecoul, std::span<Vec3> grad) {
  // The table path is chosen by the input (few LJ types), not by a knob;
  // both paths produce the same bits.
  if (soa.lj_type.empty()) {
    nonbonded_rows<false>(soa, pairs, evdw, ecoul, grad.data());
  } else {
    nonbonded_rows<true>(soa, pairs, evdw, ecoul, grad.data());
  }
}

}  // namespace opalsim::opal
