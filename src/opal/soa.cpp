#include "opal/soa.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <memory>
#include <thread>

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

/// The index and math passes of the `m` pairs at `p` (m <= kLaneBlock)
/// into `b`; returns whether the block is a row block.  A full block whose
/// pairs all lie in one row copies only j, and the math loads row i's
/// operands once.
template <bool kTable>
bool compute_block(PairBlock& b, const PairIdx* p, std::size_t m,
                   const CentersSoA& soa) {
  if (m == kLaneBlock && one_row(p)) {
    b.pi[0] = p[0].i;
    for (std::size_t k = 0; k < kLaneBlock; ++k) b.pj[k] = p[k].j;
    nonbonded_math_block<kTable, true>(b, kLaneBlock, soa);
    return true;
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
  return false;
}

// The commit pass: energies and gradients accumulated strictly in pair
// order.  The commit order is the whole ballgame: grad[i] += g /
// grad[j] -= g touch overlapping centers across pairs, and the energy sums
// are FP accumulations, so replaying them in the original sequence is what
// keeps the batch bit-identical to the per-pair AoS loop.  The row's
// grad[i] lives in three registers while consecutive pairs share i, and is
// stored when i changes and after the last pair: the same additions in the
// same order, minus the store-to-load chain through memory.  No
// grad[j] -= g of the row can touch it, since every pair has j != i.  A
// row that re-opens later (a domain after a failover adoption) reloads the
// stored g[i].  A row block tests for a row change once, before its pairs.
//
// The running state lives in the Committer between blocks and in locals
// within one, so the sums and the row stay in registers across the g[j]
// stores however the drivers are inlined.
class Committer {
 public:
  Committer(double evdw, double ecoul, std::uint32_t row, Vec3* g) noexcept
      : g_(g), vdw_(evdw), coul_(ecoul), row_(row), a_(g[row]) {}

  void commit(const PairBlock& b, std::size_t m, bool row_block) noexcept {
    if (row_block) {
      if (b.pi[0] != row_) {
        g_[row_] = a_;
        row_ = b.pi[0];
        a_ = g_[row_];
      }
      add<true>(b, kLaneBlock);
    } else {
      add<false>(b, m);
    }
  }

  /// Stores the open row and hands back the two energy sums.
  void finish(double& evdw, double& ecoul) noexcept {
    g_[row_] = a_;
    evdw = vdw_;
    ecoul = coul_;
  }

 private:
  template <bool kRowBlock>
  void add(const PairBlock& b, std::size_t m) noexcept {
    Vec3* g = g_;
    double vdw = vdw_, coul = coul_;
    std::uint32_t row = row_;
    double ax = a_.x, ay = a_.y, az = a_.z;
    for (std::size_t k = 0; k < m; ++k) {
      vdw += b.lj[k];
      coul += b.coul[k];
      if constexpr (!kRowBlock) {
        if (b.pi[k] != row) {
          g[row] = Vec3{ax, ay, az};
          row = b.pi[k];
          ax = g[row].x;
          ay = g[row].y;
          az = g[row].z;
        }
      }
      ax += b.gx[k];
      ay += b.gy[k];
      az += b.gz[k];
      Vec3& gj = g[b.pj[k]];
      gj.x -= b.gx[k];
      gj.y -= b.gy[k];
      gj.z -= b.gz[k];
    }
    vdw_ = vdw;
    coul_ = coul;
    row_ = row;
    a_ = Vec3{ax, ay, az};
  }

  Vec3* g_;
  double vdw_, coul_;
  std::uint32_t row_;
  Vec3 a_;  ///< the open row's g[row_]
};

/// The inline driver: the span in lane blocks, each computed and committed
/// before the next.  On the hashed p = 7 domain of large_nocut (rows of
/// ~450 pairs) nearly every block is a row block; on 10 A active lists
/// (rows of ~12 pairs) few are, and those blocks run the per-pair form.
/// Walking the span row by row with blocks cut at each row end measured
/// 1.25x slower there: a partial block and three mispredicted loop exits
/// per row.
template <bool kTable>
void commit_inline(const CentersSoA& soa, const PairIdx* p, std::size_t n,
                   Committer& c) {
  PairBlock b;
  for (std::size_t t = 0; t < n; t += kLaneBlock) {
    const std::size_t m = std::min(kLaneBlock, n - t);
    c.commit(b, m, compute_block<kTable>(b, p + t, m, soa));
  }
}

template <bool kTable>
void nonbonded_rows(const CentersSoA& soa, std::span<const PairIdx> pairs,
                    double& evdw, double& ecoul, Vec3* g) {
  if (pairs.empty()) return;
  Committer c(evdw, ecoul, pairs[0].i, g);
  commit_inline<kTable>(soa, pairs.data(), pairs.size(), c);
  c.finish(evdw, ecoul);
}

void nonbonded_inline(const CentersSoA& soa, std::span<const PairIdx> pairs,
                      double& evdw, double& ecoul, Vec3* g) {
  // The table path is chosen by the input (few LJ types), not by a knob;
  // both paths, and both drivers, produce the same bits.
  if (soa.lj_type.empty()) {
    nonbonded_rows<false>(soa, pairs, evdw, ecoul, g);
  } else {
    nonbonded_rows<true>(soa, pairs, evdw, ecoul, g);
  }
}

// The pipelined driver.  A span of at least kMinChunks chunks, called
// outside any dispatch on a pool of more than one thread, is cut into
// chunks of kChunkBlocks lane blocks.  Helpers claim chunks in order from
// one cursor and run their index and math passes into a ring of
// kRingSlots result slots; the calling thread is the one committer and
// applies chunk after chunk in pair order, so every FP operation and every
// accumulation order is the inline driver's and the bits are the same for
// any number of helpers.  Progress never depends on a helper: a chunk no
// helper has claimed when the committer reaches it is claimed and run
// inline by the committer, and a block a helper has not finished yet is
// computed by the committer itself (the helper's copy is then dropped).
// Helpers claim only chunks whose slot the committer has passed, one
// writer at a time holds a slot, and a helper that gets a slot after the
// committer passed its chunk writes nothing, so a late writer can never
// overwrite a newer chunk.  See DESIGN.md, "SoA nonbonded batch".
constexpr std::size_t kChunkBlocks = 64;  ///< 2,048 pairs, ~96 KiB a slot
constexpr std::size_t kChunkPairs = kChunkBlocks * kLaneBlock;
constexpr std::size_t kRingSlots = 8;
constexpr std::size_t kMinChunks = 4;
/// How far ahead of its commit the committer prefetches slot blocks.
constexpr std::size_t kPrefetchBlocks = 4;
/// The committer sets the pace; helpers past the ones that keep its ring
/// full only spin.
constexpr unsigned kMaxHelpers = 2;

struct RingSlot {
  PairBlock blocks[kChunkBlocks];
  bool row[kChunkBlocks];
  /// One past the newest block written, counted in blocks from the span's
  /// start: block k of chunk c is in the slot once done > c*kChunkBlocks+k.
  alignas(64) std::atomic<std::size_t> done{0};
  /// Held by the one helper writing the slot.
  std::atomic<bool> busy{false};
};

/// One ring per committing thread, allocated at its first pipelined call.
thread_local std::unique_ptr<RingSlot[]> t_ring;

struct Pipeline {
  const CentersSoA& soa;
  const PairIdx* pairs;
  std::size_t npairs;
  std::size_t nchunks;
  RingSlot* ring;
  double* evdw;
  double* ecoul;
  Vec3* g;
  alignas(64) std::atomic<std::size_t> next_claim{0};   ///< chunks claimed
  alignas(64) std::atomic<std::size_t> next_commit{0};  ///< chunks committed
};

/// Asks for a block a helper wrote into its own core's cache to be moved
/// to this core's L2.  A committer that only reads the slots otherwise
/// waits on each cross-core line in turn.
void prefetch(const PairBlock& b) noexcept {
  const auto* bytes = reinterpret_cast<const char*>(&b);
  for (std::size_t o = 0; o < sizeof(PairBlock); o += 64) {
    __builtin_prefetch(bytes + o, 0, 2);
  }
}

/// Spin-wait step: a pause, then a yield once the wait is long.
void backoff(unsigned& spins) noexcept {
  if (++spins < 64) {
    util::cpu_relax();
  } else {
    std::this_thread::yield();
  }
}

template <bool kTable>
void help_chunks(void* ctx) {
  auto& pl = *static_cast<Pipeline*>(ctx);
  for (;;) {
    unsigned spins = 0;
    std::size_t ch = pl.next_claim.load(std::memory_order_relaxed);
    for (;;) {
      if (ch >= pl.nchunks) return;
      if (ch >= pl.next_commit.load(std::memory_order_acquire) + kRingSlots) {
        backoff(spins);  // the ring is full: wait for the committer
        ch = pl.next_claim.load(std::memory_order_relaxed);
      } else if (pl.next_claim.compare_exchange_weak(
                     ch, ch + 1, std::memory_order_relaxed)) {
        break;
      }
    }
    RingSlot& s = pl.ring[ch % kRingSlots];
    while (s.busy.exchange(true, std::memory_order_acquire)) backoff(spins);
    if (pl.next_commit.load(std::memory_order_acquire) <= ch) {
      const std::size_t first = ch * kChunkPairs;
      const std::size_t n = std::min(kChunkPairs, pl.npairs - first);
      for (std::size_t k = 0; k * kLaneBlock < n; ++k) {
        const std::size_t t = k * kLaneBlock;
        s.row[k] = compute_block<kTable>(
            s.blocks[k], pl.pairs + first + t, std::min(kLaneBlock, n - t),
            pl.soa);
        s.done.store(ch * kChunkBlocks + k + 1, std::memory_order_release);
      }
    }
    s.busy.store(false, std::memory_order_release);
  }
}

template <bool kTable>
void commit_chunks(void* ctx) {
  auto& pl = *static_cast<Pipeline*>(ctx);
  Committer c(*pl.evdw, *pl.ecoul, pl.pairs[0].i, pl.g);
  PairBlock b;
  for (std::size_t ch = 0; ch < pl.nchunks; ++ch) {
    const std::size_t first = ch * kChunkPairs;
    const std::size_t n = std::min(kChunkPairs, pl.npairs - first);
    const PairIdx* p = pl.pairs + first;
    RingSlot& s = pl.ring[ch % kRingSlots];
    std::size_t unclaimed = ch;
    if (pl.next_claim.load(std::memory_order_relaxed) == ch &&
        pl.next_claim.compare_exchange_strong(unclaimed, ch + 1,
                                              std::memory_order_relaxed)) {
      commit_inline<kTable>(pl.soa, p, n, c);
    } else {
      const std::size_t base = ch * kChunkBlocks;
      for (std::size_t k = 0; k * kLaneBlock < n;) {
        const std::size_t done = s.done.load(std::memory_order_acquire);
        const std::size_t ready = done > base ? done - base : 0;
        if (ready > k) {
          for (; k < ready; ++k) {
            if (k + kPrefetchBlocks < ready) {
              prefetch(s.blocks[k + kPrefetchBlocks]);
            }
            const std::size_t t = k * kLaneBlock;
            c.commit(s.blocks[k], std::min(kLaneBlock, n - t), s.row[k]);
          }
        } else {
          const std::size_t t = k * kLaneBlock;
          const std::size_t m = std::min(kLaneBlock, n - t);
          c.commit(b, m, compute_block<kTable>(b, p + t, m, pl.soa));
          ++k;
        }
      }
    }
    // Release: a helper that sees the store may overwrite what was read.
    pl.next_commit.store(ch + 1, std::memory_order_release);
  }
  c.finish(*pl.evdw, *pl.ecoul);
}

template <bool kTable>
void nonbonded_pipelined(const CentersSoA& soa,
                         std::span<const PairIdx> pairs, double& evdw,
                         double& ecoul, Vec3* g, util::ThreadPool& pool) {
  if (!t_ring) t_ring.reset(new RingSlot[kRingSlots]);
  for (std::size_t k = 0; k < kRingSlots; ++k) {
    t_ring[k].done.store(0, std::memory_order_relaxed);
  }
  Pipeline pl{soa,
                      pairs.data(),
                      pairs.size(),
                      (pairs.size() + kChunkPairs - 1) / kChunkPairs,
                      t_ring.get(),
                      &evdw,
                      &ecoul,
                      g};
  pool.run_assisted(kMaxHelpers, help_chunks<kTable>, commit_chunks<kTable>,
                    &pl);
}

/// True when a span of `n` pairs would take the pipelined driver on a pool
/// of more than one thread.
bool pipelines(std::size_t n) noexcept {
  return n >= kMinChunks * kChunkPairs && !util::ThreadPool::in_dispatch();
}

}  // namespace

void nonbonded_batch(const CentersSoA& soa, std::span<const PairIdx> pairs,
                     double& evdw, double& ecoul, std::span<Vec3> grad,
                     util::ThreadPool& pool) {
  if (pool.size() <= 1 || !pipelines(pairs.size())) {
    nonbonded_inline(soa, pairs, evdw, ecoul, grad.data());
  } else if (soa.lj_type.empty()) {
    nonbonded_pipelined<false>(soa, pairs, evdw, ecoul, grad.data(), pool);
  } else {
    nonbonded_pipelined<true>(soa, pairs, evdw, ecoul, grad.data(), pool);
  }
}

void nonbonded_batch(const CentersSoA& soa, std::span<const PairIdx> pairs,
                     double& evdw, double& ecoul, std::span<Vec3> grad) {
  // The process-wide pool is built only once a span is large enough to
  // use it, so set-up and small runs never start its threads.
  if (pipelines(pairs.size())) {
    nonbonded_batch(soa, pairs, evdw, ecoul, grad,
                    util::ThreadPool::shared());
  } else {
    nonbonded_inline(soa, pairs, evdw, ecoul, grad.data());
  }
}

}  // namespace opalsim::opal
