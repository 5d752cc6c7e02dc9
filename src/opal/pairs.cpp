#include "opal/pairs.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "opal/forcefield.hpp"
#include "util/fastmod.hpp"
#include "util/fatal.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace opalsim::opal {

namespace {

/// Verlet-list skin as a fraction of the cut-off.  Larger skins pad the
/// candidate list (more distance checks per update) but survive more
/// motion before a rebuild; 0.3 balances the two for the step sizes the
/// integrator takes.
constexpr double kVerletSkinFactor = 0.3;

/// Stack stage, in pairs, of the list filter and the subset rebuild.
constexpr std::size_t kStage = 2048;

}  // namespace

std::string to_string(DistributionStrategy s) {
  switch (s) {
    case DistributionStrategy::PseudoRandomHistorical:
      return "pseudo-random (historical)";
    case DistributionStrategy::PseudoRandomUniform:
      return "pseudo-random (uniform)";
    case DistributionStrategy::RowCyclic:
      return "row-cyclic";
    case DistributionStrategy::Folded:
      return "folded rows";
    case DistributionStrategy::EvenMultiplierBug:
      return "even-multiplier bug";
  }
  return "?";
}

namespace {

// -- owners: each strategy's formula, once ----------------------------------
//
// An owner functor is built once per (strategy, n, p, seed) and maps pair
// number k = (i, j) in lex order to its server.  No formula reads j.

/// The two hashed strategies: splitmix64 of k ^ seed, reduced mod p.
struct HashedOwner {
  std::uint64_t seed;
  util::FastMod mod;
  /// Parity correlation of the historical generator: when p is even, one
  /// in eight pairs headed for an odd-ranked server lands on its
  /// even-ranked neighbour instead (~12% systematic imbalance).
  bool parity_bias;
  std::uint32_t operator()(std::uint64_t k, std::uint32_t) const noexcept {
    const std::uint64_t h = util::splitmix64_hash(k ^ seed);
    const std::uint32_t server = mod(h);
    return parity_bias && ((h >> 32) & 7u) == 0 ? server & ~1u : server;
  }
};

/// Row i goes to server i mod p (loop-invariant within a row).
struct RowCyclicOwner {
  std::uint32_t p;
  std::uint32_t operator()(std::uint64_t, std::uint32_t i) const noexcept {
    return i % p;
  }
};

/// Rows i and n-2-i share a server: row min(i, n-2-i) mod p.
struct FoldedOwner {
  std::uint32_t n, p;
  std::uint32_t operator()(std::uint64_t, std::uint32_t i) const noexcept {
    const std::uint32_t row = i <= n - 2 - i ? i : n - 2 - i;
    return row % p;
  }
};

/// gcd(multiplier, p) = 2 for even p: odd-ranked servers get nothing.
struct EvenMultiplierOwner {
  util::FastMod mod;
  std::uint32_t operator()(std::uint64_t k, std::uint32_t) const noexcept {
    return mod(k * 2654435762ull);
  }
};

/// Calls `f(owner)` with the strategy's owner functor, so the pair loops
/// are compiled once per strategy with the formula inlined.
template <class F>
void with_owner(DistributionStrategy strategy, std::uint32_t n,
                std::uint32_t p, std::uint64_t seed, F&& f) {
  switch (strategy) {
    case DistributionStrategy::PseudoRandomHistorical:
      return f(HashedOwner{seed, util::FastMod(p), p % 2 == 0});
    case DistributionStrategy::PseudoRandomUniform:
      return f(HashedOwner{seed, util::FastMod(p), false});
    case DistributionStrategy::RowCyclic:
      return f(RowCyclicOwner{p});
    case DistributionStrategy::Folded:
      return f(FoldedOwner{n, p});
    case DistributionStrategy::EvenMultiplierBug:
      return f(EvenMultiplierOwner{util::FastMod(p)});
  }
}

/// Every pair's owner at p = 1.
struct SoleOwner {
  std::uint32_t operator()(std::uint64_t, std::uint32_t) const noexcept {
    return 0;
  }
};

/// Pairs below which the shared-pool build_domains runs inline as one
/// block.  Such a build takes a few ms serially, about what a participant
/// that loses its CPU mid-block stalls a pooled one on a busy host, so
/// pooling it would gain little and add that variance.
constexpr std::uint64_t kPooledPairs = std::uint64_t{1} << 20;

/// Row blocks per pool participant, so a participant that loses its CPU
/// mid-build holds up one block while the others steal the rest.
constexpr std::size_t kBlocksPerParticipant = 4;

/// Bound on blocks x servers, the entries of the cursor table (2 MiB).
constexpr std::uint64_t kMaxCursors = std::uint64_t{1} << 18;

/// Pair number of (i, i + 1), the first pair of row i: i·n − i(i+1)/2.
std::uint64_t row_start(std::uint64_t i, std::uint64_t n) noexcept {
  return i * (n - 1) - i * (i - 1) / 2;
}

/// The first row that starts at pair number k or later (n - 1, one past
/// the last row, when k is the size of the triangle).
std::uint32_t row_at(std::uint64_t k, std::uint32_t n) noexcept {
  // Row i starts at i(2n − 1 − i)/2: invert that in double, then settle
  // the guess exactly.
  const double b = 2.0 * n - 1.0;
  const double disc = b * b - 8.0 * static_cast<double>(k);
  const double guess = 0.5 * (b - std::sqrt(std::max(0.0, disc)));
  auto i = static_cast<std::uint32_t>(
      std::clamp(guess, 0.0, static_cast<double>(n - 1)));
  while (i > 0 && row_start(i - 1, n) >= k) --i;
  while (i < n - 1 && row_start(i, n) < k) ++i;
  return i;
}

/// Pass 1 over rows [r0, r1): counts[s] += the block's pairs owned by s.
template <class Owner>
void count_block(const Owner& owner, std::uint32_t n, std::uint32_t r0,
                 std::uint32_t r1, std::uint64_t* counts) {
  std::uint64_t k = row_start(r0, n);
  for (std::uint32_t i = r0; i < r1; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j, ++k) ++counts[owner(k, i)];
  }
}

/// Pass 2 over rows [r0, r1): writes each pair at its server's cursor.
template <class Owner>
void fill_block(const Owner& owner, std::uint32_t n, std::uint32_t r0,
                std::uint32_t r1, PairIdx* const* dst,
                std::uint64_t* cursor) {
  std::uint64_t k = row_start(r0, n);
  for (std::uint32_t i = r0; i < r1; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j, ++k) {
      const std::uint32_t s = owner(k, i);
      dst[s][cursor[s]++] = PairIdx{i, j};
    }
  }
}

/// Both passes over `blocks` row blocks of near-equal pair counts, on
/// `pool` when there is more than one block.  Block b's cursor for server
/// s starts where blocks 0 .. b-1 leave off, so every domain comes out in
/// lex order whatever block runs where.  The second pass evaluates every
/// owner again rather than reading a per-pair memo, whose freshly touched
/// bytes cost more to fault in than the owner costs to recompute.
template <class Owner>
std::vector<std::vector<PairIdx>> build_blocked(const Owner& owner,
                                                std::uint32_t n,
                                                std::uint32_t p,
                                                util::ThreadPool* pool,
                                                std::size_t blocks) {
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::vector<std::uint32_t> rows(blocks + 1);
  for (std::size_t b = 0; b <= blocks; ++b) {  // floor(total·b / blocks)
    rows[b] = row_at(total / blocks * b + total % blocks * b / blocks, n);
  }
  const auto each_block = [&](auto&& f) {
    if (blocks == 1) {
      f(std::size_t{0});
    } else {
      util::parallel_for_indexed(*pool, blocks, f);
    }
  };
  std::vector<std::uint64_t> cursor(blocks * p, 0);
  std::vector<std::vector<PairIdx>> domains(p);
  if (p == 1) {  // a block's cursor is its first pair number
    for (std::size_t b = 0; b < blocks; ++b) cursor[b] = row_start(rows[b], n);
    domains[0].resize(total);
  } else {
    each_block([&](std::size_t b) {
      count_block(owner, n, rows[b], rows[b + 1], &cursor[b * p]);
    });
    // Exclusive prefix sums over the blocks turn counts into cursors.  The
    // resize writes nothing (PairIdx's default constructor is empty).
    for (std::uint32_t s = 0; s < p; ++s) {
      std::uint64_t at = 0;
      for (std::size_t b = 0; b < blocks; ++b) {
        at += std::exchange(cursor[b * p + s], at);
      }
      domains[s].resize(at);
    }
  }
  std::vector<PairIdx*> dst(p);
  for (std::uint32_t s = 0; s < p; ++s) dst[s] = domains[s].data();
  each_block([&](std::size_t b) {
    fill_block(owner, n, rows[b], rows[b + 1], dst.data(), &cursor[b * p]);
  });
  return domains;
}

void check_build_args(std::uint32_t n, int p) {
  if (p <= 0) throw util::ConfigError("opal", "build_domains: p must be > 0");
  if (n < 2) {
    throw util::ConfigError("opal", "build_domains: need >= 2 centers");
  }
}

std::vector<std::vector<PairIdx>> build(std::uint32_t n, int p,
                                        DistributionStrategy strategy,
                                        std::uint64_t seed,
                                        util::ThreadPool* pool) {
  const auto servers = static_cast<std::uint32_t>(p);
  std::size_t blocks = 1;
  if (pool != nullptr && pool->size() > 1 &&
      !util::ThreadPool::in_dispatch()) {
    blocks = static_cast<std::size_t>(std::min<std::uint64_t>(
        kBlocksPerParticipant * (pool->size() + 1),
        std::max<std::uint64_t>(1, kMaxCursors / servers)));
  }
  if (servers == 1) {  // every strategy's owner is 0
    return build_blocked(SoleOwner{}, n, servers, pool, blocks);
  }
  std::vector<std::vector<PairIdx>> domains;
  with_owner(strategy, n, servers, seed, [&](const auto& owner) {
    domains = build_blocked(owner, n, servers, pool, blocks);
  });
  return domains;
}

}  // namespace

std::vector<std::vector<PairIdx>> build_domains(std::uint32_t n, int p,
                                                DistributionStrategy strategy,
                                                std::uint64_t seed) {
  check_build_args(n, p);
  // The shared pool is built only once a triangle is large enough to use
  // it, so small runs never start its threads.
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const bool pooled =
      total >= kPooledPairs && !util::ThreadPool::in_dispatch();
  return build(n, p, strategy, seed,
               pooled ? &util::ThreadPool::shared() : nullptr);
}

std::vector<std::vector<PairIdx>> build_domains(std::uint32_t n, int p,
                                                DistributionStrategy strategy,
                                                std::uint64_t seed,
                                                util::ThreadPool& pool) {
  check_build_args(n, p);
  return build(n, p, strategy, seed, &pool);
}

std::uint64_t ServerDomain::update(const MolecularComplex& mc, double cutoff,
                                   PairUpdatePath path) {
  return update_on(mc, cutoff, path, nullptr);
}

std::uint64_t ServerDomain::update(const MolecularComplex& mc, double cutoff,
                                   PairUpdatePath path,
                                   util::ThreadPool& pool) {
  return update_on(mc, cutoff, path, &pool);
}

std::uint64_t ServerDomain::update_on(const MolecularComplex& mc,
                                      double cutoff, PairUpdatePath path,
                                      util::ThreadPool* pool) {
  if (cutoff <= 0.0) {
    materialized_ = false;
    active_.clear();
    active_.shrink_to_fit();
    return domain_.size();
  }
  materialized_ = true;
  ++stats_.updates;
  const double c2 = cutoff * cutoff;
  if (path == PairUpdatePath::Brute) {
    active_.clear();
    for (const PairIdx& pr : domain_) {
      if (within_cutoff(mc, pr.i, pr.j, c2)) active_.push_back(pr);
    }
  } else {
    update_list(mc, c2, cutoff, pool);
    ++stats_.cell_updates;
  }
  return domain_.size();
}

bool ServerDomain::verlet_fresh(double cutoff, double skin) const noexcept {
  const std::size_t n = sx_.size();
  if (!verlet_ready_ || verlet_cutoff_ != cutoff || rx_.size() != n) {
    return false;
  }
  const double half_skin2 = (0.5 * skin) * (0.5 * skin);
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = sx_[i] - rx_[i];
    const double dy = sy_[i] - ry_[i];
    const double dz = sz_[i] - rz_[i];
    // Negated so a non-finite displacement counts as moved.
    if (!(dx * dx + dy * dy + dz * dz <= half_skin2)) return false;
  }
  return true;
}

bool pairs_in_range(std::span<const PairIdx> pairs, std::uint32_t n) noexcept {
  return std::all_of(pairs.begin(), pairs.end(), [n](const PairIdx& pr) {
    return pr.i < pr.j && pr.j < n;
  });
}

void ServerDomain::restore(const Snapshot& s, std::uint32_t n) {
  // Both host paths emit the active list in domain order: match it greedily.
  std::size_t matched = 0;
  for (const PairIdx& pr : s.domain) {
    if (matched < s.active.size() && pr == s.active[matched]) ++matched;
  }
  if (!pairs_in_range(s.domain, n) || matched != s.active.size()) {
    util::fatal("ckpt", "restore: a pair is not i < j < " + std::to_string(n) +
                            " or the active list is not drawn from the "
                            "domain in order");
  }
  *this = ServerDomain(s.domain);  // counters zero, caches cold
  active_ = s.active;
  materialized_ = s.materialized;
}

void ServerDomain::update_list(const MolecularComplex& mc, double c2,
                               double cutoff, util::ThreadPool* pool) {
  const auto n = static_cast<std::uint32_t>(mc.n());
  sx_.resize(n);
  sy_.resize(n);
  sz_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Vec3& r = mc.centers[i].position;
    sx_[i] = r.x;
    sy_[i] = r.y;
    sz_[i] = r.z;
  }

  // The list holds every pair within cutoff + skin at the reference
  // positions and is rebuilt only when some center has moved more than
  // skin/2 since then.  While it is valid, every pair now within the
  // cut-off is on it, so exactly re-filtering it against the current
  // positions yields the brute-force active list bit for bit, in the same
  // order, at O(list) instead of O(domain) cost per update.
  const double skin = kVerletSkinFactor * cutoff;
  const double padded2 = (cutoff + skin) * (cutoff + skin);
  if (!verlet_fresh(cutoff, skin)) {
    rebuild_subset(padded2, c2, pool);  // emits active_ on the way
    ++stats_.verlet_rebuilds;
    rx_ = sx_;
    ry_ = sy_;
    rz_ = sz_;
    verlet_cutoff_ = cutoff;
    verlet_ready_ = true;
    return;
  }
  filter_list(c2, pool);
}

struct ServerDomain::ListPart {
  std::vector<PairIdx> active;
  std::vector<std::uint16_t> items;
  std::vector<VerletRun> runs;
};

std::vector<ServerDomain::ListPart>& ServerDomain::thread_parts(
    std::size_t blocks) {
  thread_local std::vector<ListPart> parts;
  if (parts.size() < blocks) parts.resize(blocks);
  return parts;
}

namespace {

/// Listed pairs from which the shared-pool update filters in blocks.  On
/// two workers and the caller a filter of ~29 k items times the same
/// pooled as inline (~46 µs) and one of ~52 k items 0.68× (DESIGN.md,
/// "Verlet-list pair updates").
constexpr std::size_t kPooledFilterItems = std::size_t{1} << 15;

/// Domain pairs from which the shared-pool update rebuilds in blocks: a
/// rebuild of ~26 k pairs times 1.08× pooled, one of ~57 k pairs 0.63×.
/// Both thresholds keep a 10%-scale run's lists (at most ~28 k pairs)
/// inline.
constexpr std::size_t kPooledRebuildPairs = std::size_t{1} << 16;

/// How many blocks a list pass over `units` runs in, and on which pool.
/// A null `pool` means the shared pool from `threshold` units up.  Inside
/// a dispatch, on a pool of one thread or below the threshold, one block
/// runs inline.
struct Fanout {
  util::ThreadPool* pool = nullptr;
  std::size_t blocks = 1;
};
Fanout fanout(util::ThreadPool* pool, std::size_t units,
              std::size_t threshold) {
  if (util::ThreadPool::in_dispatch()) return {};
  if (pool == nullptr) {
    if (units < threshold) return {};
    pool = &util::ThreadPool::shared();
  }
  if (pool->size() <= 1) return {};
  return {pool, std::min<std::size_t>(
                    kBlocksPerParticipant * (pool->size() + 1), units)};
}

}  // namespace

void ServerDomain::filter_list(double c2, util::ThreadPool* pool) {
  const Fanout f = fanout(pool, vitems_.size(), kPooledFilterItems);
  active_.clear();
  if (f.blocks <= 1) {
    filter_runs(0, vruns_.size(), c2, active_);
    return;
  }
  // Block b takes the runs from the first one that begins at or past item
  // floor(b·items / blocks): near-equal item counts, whole runs each.
  std::vector<std::size_t> cut(f.blocks + 1, vruns_.size());
  cut[0] = 0;
  for (std::size_t b = 1; b < f.blocks; ++b) {
    const std::size_t item = vitems_.size() * b / f.blocks;
    const auto first = std::partition_point(
        vruns_.begin(), vruns_.end(),
        [item](const VerletRun& r) { return r.begin < item; });
    cut[b] = static_cast<std::size_t>(first - vruns_.begin());
  }
  std::vector<ListPart>& parts = thread_parts(f.blocks);
  util::parallel_for_indexed(*f.pool, f.blocks, [&](std::size_t b) {
    parts[b].active.clear();
    filter_runs(cut[b], cut[b + 1], c2, parts[b].active);
  });
  // Join the parts in block order, each participant copying whole parts.
  // The resize writes nothing (PairIdx's default constructor is empty) and
  // sizes the list exactly, never past what staged appends would leave.
  std::vector<std::size_t> at(f.blocks + 1, 0);
  for (std::size_t b = 0; b < f.blocks; ++b) {
    at[b + 1] = at[b] + parts[b].active.size();
  }
  active_.resize(at[f.blocks]);
  util::parallel_for_indexed(*f.pool, f.blocks, [&](std::size_t b) {
    std::copy(parts[b].active.begin(), parts[b].active.end(),
              active_.begin() + static_cast<std::ptrdiff_t>(at[b]));
  });
}

void ServerDomain::filter_runs(std::size_t r0, std::size_t r1, double c2,
                               std::vector<PairIdx>& out) const {
  // The same squared-distance expression within_cutoff evaluates, in domain
  // order, loading x_i once per run.  The writes are branchless (store
  // every candidate, advance only on accept: at the ~40% accept rate a
  // branch mispredicts constantly) into a stage flushed when under half is
  // free.
  PairIdx stage[kStage];
  std::size_t cnt = 0;
  for (std::size_t r = r0; r < r1; ++r) {
    const VerletRun run = vruns_[r];
    const std::size_t end =
        r + 1 < vruns_.size() ? vruns_[r + 1].begin : vitems_.size();
    const double xi = sx_[run.i], yi = sy_[run.i], zi = sz_[run.i];
    for (std::size_t t = run.begin; t < end;) {
      if (cnt > kStage / 2) {
        out.insert(out.end(), stage, stage + cnt);
        cnt = 0;
      }
      for (const std::size_t stop = std::min(end, t + kStage - cnt); t < stop;
           ++t) {
        const std::uint32_t j = run.j_base + vitems_[t];
        const double dx = xi - sx_[j];
        const double dy = yi - sy_[j];
        const double dz = zi - sz_[j];
        stage[cnt] = PairIdx{run.i, j};
        cnt += dx * dx + dy * dy + dz * dz <= c2 ? 1 : 0;
      }
    }
  }
  out.insert(out.end(), stage, stage + cnt);
}

void ServerDomain::rebuild_subset(double padded2, double c2,
                                  util::ThreadPool* pool) {
  vitems_.clear();
  vruns_.clear();
  vruns_.reserve(sx_.size());  // a sorted domain opens one run per row
  active_.clear();
  const std::size_t size = domain_.size();
  const Fanout f = fanout(pool, size, kPooledRebuildPairs);
  if (f.blocks <= 1) {
    rebuild_block(0, size, padded2, c2, vitems_, vruns_, active_);
    return;
  }
  // Block b starts at the first row change at or past pair
  // floor(b·size / blocks): the serial sweep opens a run there, so each
  // block's runs are the serial sweep's.  A row longer than a block leaves
  // the blocks it spans empty.
  std::vector<std::size_t> cut(f.blocks + 1, size);
  cut[0] = 0;
  for (std::size_t b = 1; b < f.blocks; ++b) {
    std::size_t t = std::max(size * b / f.blocks, cut[b - 1]);
    while (t > 0 && t < size && domain_[t].i == domain_[t - 1].i) ++t;
    cut[b] = t;
  }
  std::vector<ListPart>& parts = thread_parts(f.blocks);
  util::parallel_for_indexed(*f.pool, f.blocks, [&](std::size_t b) {
    ListPart& part = parts[b];
    part.items.clear();
    part.runs.clear();
    part.active.clear();
    rebuild_block(cut[b], cut[b + 1], padded2, c2, part.items, part.runs,
                  part.active);
  });
  // Join the parts in block order, each participant copying whole parts:
  // block b's items, runs and pairs go where blocks 0 .. b-1 leave off.
  struct Offsets {
    std::size_t items = 0, runs = 0, active = 0;
  };
  std::vector<Offsets> at(f.blocks + 1);
  for (std::size_t b = 0; b < f.blocks; ++b) {
    at[b + 1] = {at[b].items + parts[b].items.size(),
                 at[b].runs + parts[b].runs.size(),
                 at[b].active + parts[b].active.size()};
  }
  vitems_.resize(at[f.blocks].items);
  vruns_.resize(at[f.blocks].runs);
  active_.resize(at[f.blocks].active);
  util::parallel_for_indexed(*f.pool, f.blocks, [&](std::size_t b) {
    const ListPart& part = parts[b];
    const auto base = static_cast<std::uint32_t>(at[b].items);
    std::copy(part.items.begin(), part.items.end(),
              vitems_.begin() + static_cast<std::ptrdiff_t>(at[b].items));
    std::transform(part.runs.begin(), part.runs.end(),
                   vruns_.begin() + static_cast<std::ptrdiff_t>(at[b].runs),
                   [base](VerletRun r) {
                     r.begin += base;
                     return r;
                   });
    std::copy(part.active.begin(), part.active.end(),
              active_.begin() + static_cast<std::ptrdiff_t>(at[b].active));
  });
}

void ServerDomain::rebuild_block(std::size_t t0, std::size_t t1,
                                 double padded2, double c2,
                                 std::vector<std::uint16_t>& items,
                                 std::vector<VerletRun>& runs,
                                 std::vector<PairIdx>& active) const {
  if (t0 == t1) return;
  // Branchless like the filter (both tests hit 20–50% of the domain): runs
  // open at listed and unlisted pairs alike, so only the run test branches,
  // and a chunk of kStage domain pairs cannot overflow a stage.  The open
  // run and row i's coordinates live in locals; the run is stored when the
  // next one opens, unless it was left empty, and the domain's last run
  // always is.  A run opens where the row changes or j - j_base would pass
  // 65,535 (a j below the base wraps past it too, as in an adopted
  // segment).
  std::uint32_t ri = domain_[t0].i, rj = domain_[t0].j;
  auto rbegin = static_cast<std::uint32_t>(items.size());
  double xi = sx_[ri], yi = sy_[ri], zi = sz_[ri];
  std::uint16_t listed[kStage];
  PairIdx stage[kStage];
  for (std::size_t c0 = t0; c0 < t1; c0 += kStage) {
    const std::size_t c1 = std::min(t1, c0 + kStage);
    const auto base = static_cast<std::uint32_t>(items.size());
    std::uint32_t nl = 0, na = 0;
    for (std::size_t t = c0; t < c1; ++t) {
      const PairIdx pr = domain_[t];
      if (pr.i != ri || pr.j - rj > 0xFFFFu) {
        if (rbegin != base + nl) runs.push_back({ri, rj, rbegin});
        ri = pr.i;
        rj = pr.j;
        rbegin = base + nl;
        xi = sx_[ri];
        yi = sy_[ri];
        zi = sz_[ri];
      }
      const double dx = xi - sx_[pr.j];
      const double dy = yi - sy_[pr.j];
      const double dz = zi - sz_[pr.j];
      const double d2 = dx * dx + dy * dy + dz * dz;
      listed[nl] = static_cast<std::uint16_t>(pr.j - rj);
      nl += d2 <= padded2 ? 1 : 0;
      stage[na] = pr;
      na += d2 <= c2 ? 1 : 0;
    }
    items.insert(items.end(), listed, listed + nl);
    active.insert(active.end(), stage, stage + na);
  }
  if (t1 == domain_.size() || rbegin != items.size()) {
    runs.push_back({ri, rj, rbegin});
  }
}

}  // namespace opalsim::opal
