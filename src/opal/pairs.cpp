#include "opal/pairs.hpp"

#include <algorithm>
#include <stdexcept>

#include "opal/forcefield.hpp"
#include "util/fastmod.hpp"
#include "util/fatal.hpp"
#include "util/rng.hpp"

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

}  // namespace

std::vector<std::vector<PairIdx>> build_domains(std::uint32_t n, int p,
                                                DistributionStrategy strategy,
                                                std::uint64_t seed) {
  if (p <= 0) throw std::invalid_argument("build_domains: p must be > 0");
  if (n < 2) throw std::invalid_argument("build_domains: need >= 2 centers");
  std::vector<std::vector<PairIdx>> domains(p);
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  if (p == 1) {  // every strategy's owner is 0
    domains[0].reserve(total);
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j) domains[0].push_back({i, j});
    }
    return domains;
  }
  // Two exact passes over the triangle: count each server's pairs, then
  // evaluate every owner again and write into domains sized exactly.  An
  // owner memo would save the second evaluation but cost 2 bytes per pair
  // of freshly touched memory (39.5 MB on the large complex), which is
  // slower to fault in than the owner is to recompute.
  with_owner(strategy, n, static_cast<std::uint32_t>(p), seed,
             [&](const auto& owner) {
               std::vector<std::uint64_t> counts(p, 0);
               std::uint64_t k = 0;
               for (std::uint32_t i = 0; i + 1 < n; ++i) {
                 for (std::uint32_t j = i + 1; j < n; ++j, ++k) {
                   ++counts[owner(k, i)];
                 }
               }
               for (int s = 0; s < p; ++s) domains[s].reserve(counts[s]);
               k = 0;
               for (std::uint32_t i = 0; i + 1 < n; ++i) {
                 for (std::uint32_t j = i + 1; j < n; ++j, ++k) {
                   domains[owner(k, i)].push_back(PairIdx{i, j});
                 }
               }
             });
  return domains;
}

std::uint64_t ServerDomain::update(const MolecularComplex& mc, double cutoff,
                                   PairUpdatePath path) {
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
    update_list(mc, c2, cutoff);
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

std::uint16_t ServerDomain::run_offset(std::uint32_t i, std::uint32_t j,
                                       std::uint32_t count) {
  if (vruns_.empty() || vruns_.back().i != i ||
      j - vruns_.back().j_base > 0xFFFFu) {  // j below the base wraps too
    if (vruns_.empty() || vruns_.back().begin != count) vruns_.emplace_back();
    vruns_.back() = VerletRun{i, j, count};  // replaces a run left empty
  }
  return static_cast<std::uint16_t>(j - vruns_.back().j_base);
}

void ServerDomain::update_list(const MolecularComplex& mc, double c2,
                               double cutoff) {
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
    rebuild_subset(padded2, c2);  // emits active_ on the way
    ++stats_.verlet_rebuilds;
    rx_ = sx_;
    ry_ = sy_;
    rz_ = sz_;
    verlet_cutoff_ = cutoff;
    verlet_ready_ = true;
    return;
  }

  // Exact filter of the padded list against the *current* positions: the
  // same squared-distance expression within_cutoff evaluates, in domain
  // order, loading x_i once per run.  The writes are branchless (store every
  // candidate, advance only on accept: at the ~40% accept rate a branch
  // mispredicts constantly) into a stage flushed when under half is free.
  active_.clear();
  PairIdx stage[kStage];
  std::size_t cnt = 0;
  for (std::size_t r = 0; r < vruns_.size(); ++r) {
    const VerletRun run = vruns_[r];
    const std::size_t end =
        r + 1 < vruns_.size() ? vruns_[r + 1].begin : vitems_.size();
    const double xi = sx_[run.i], yi = sy_[run.i], zi = sz_[run.i];
    for (std::size_t t = run.begin; t < end;) {
      if (cnt > kStage / 2) {
        active_.insert(active_.end(), stage, stage + cnt);
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
  active_.insert(active_.end(), stage, stage + cnt);
}

void ServerDomain::rebuild_subset(double padded2, double c2) {
  vitems_.clear();
  vruns_.clear();
  vruns_.reserve(sx_.size());  // a sorted domain opens one run per row
  active_.clear();
  // Branchless like the filter (both tests hit 20–50% of the domain): runs
  // open at listed and unlisted pairs alike, so only the row test branches,
  // and a chunk of kStage domain pairs cannot overflow a stage.
  std::uint16_t listed[kStage];
  PairIdx stage[kStage];
  for (std::size_t t0 = 0; t0 < domain_.size(); t0 += kStage) {
    const std::size_t t1 = std::min(domain_.size(), t0 + kStage);
    const auto base = static_cast<std::uint32_t>(vitems_.size());
    std::uint32_t nl = 0, na = 0;
    for (std::size_t t = t0; t < t1; ++t) {
      const PairIdx pr = domain_[t];
      const double dx = sx_[pr.i] - sx_[pr.j];
      const double dy = sy_[pr.i] - sy_[pr.j];
      const double dz = sz_[pr.i] - sz_[pr.j];
      const double d2 = dx * dx + dy * dy + dz * dz;
      listed[nl] = run_offset(pr.i, pr.j, base + nl);
      nl += d2 <= padded2 ? 1 : 0;
      stage[na] = pr;
      na += d2 <= c2 ? 1 : 0;
    }
    vitems_.insert(vitems_.end(), listed, listed + nl);
    active_.insert(active_.end(), stage, stage + na);
  }
}

}  // namespace opalsim::opal
