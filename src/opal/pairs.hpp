// Pair distribution and cut-off pair lists.
//
// The replicated-data parallelization assigns every unordered pair (i,j) of
// mass centers to exactly one server (paper §2.1: "each server selects a
// distinct subset of the atom pairs").  The assignment is static for a run;
// the *active* list on each server is rebuilt in the update phase by
// distance-checking the assigned pairs against the cut-off.
//
// The production update keeps a skin-padded Verlet list over the static
// domain (DESIGN.md, "Verlet-list pair updates"): one sweep of the domain
// builds it, every domain alike (the serial full triangle, a p > 1 subset,
// a post-failover domain), and each update exact-filters it against the
// current positions until some center has moved more than half the skin.
// The brute-force sweep over the assigned pairs (the paper's algorithm,
// O(n^2/p) distance checks) stays as the in-process oracle.  Both produce
// the identical active list (same pairs, same order); only host wall time
// differs.  Virtual-time accounting is unchanged: update() always reports
// domain_size() pairs checked, the paper's O(n^2) model.
//
// Both halves of a list update, the filter and the rebuild sweep, are cut
// into blocks that the host pool's participants run side by side: the
// filter at run boundaries, the rebuild where the domain's row changes,
// where the serial sweep opens a run anyway.  Blocks stage their output on
// the calling thread's scratch and are joined in block order, so the list
// and the active list are those of the inline sweep, bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "opal/complex.hpp"

namespace opalsim::util {
class ThreadPool;
}  // namespace opalsim::util

namespace opalsim::opal {

struct PairIdx {
  std::uint32_t i, j;
  /// Leaves i and j unset, so sizing a vector of pairs writes nothing: the
  /// thread that fills a page of a domain is the one that faults it in.
  PairIdx() noexcept {}
  constexpr PairIdx(std::uint32_t row, std::uint32_t col) noexcept
      : i(row), j(col) {}
  friend bool operator==(const PairIdx&, const PairIdx&) = default;
};

/// How pairs are distributed among servers.
enum class DistributionStrategy {
  /// Opal's historical pseudo-random distribution.  Reproduces the paper's
  /// anomaly ("load balancing problem for runs with an even number of
  /// processors"): the historical generator's parity correlation gives
  /// even-ranked servers ~12% excess work when p is even.  See DESIGN.md.
  PseudoRandomHistorical,
  /// Unbiased hash distribution (the fix; balanced for every p).
  PseudoRandomUniform,
  /// Row i of the pair triangle goes to server i mod p.
  RowCyclic,
  /// Rows i and n-2-i bundled (each bundle has exactly n pairs; balanced).
  Folded,
  /// Multiplicative hash with an even constant: for even p only even-ranked
  /// servers ever receive pairs (the catastrophic version of the bug,
  /// exercised by bench_ablation_distribution).
  EvenMultiplierBug,
};

std::string to_string(DistributionStrategy s);

/// Host path used by ServerDomain::update to rebuild the active list.
/// Auto is the production path: the Verlet list, for every domain and any
/// cut-off.  Brute is the O(n^2/p) sweep, the in-process oracle that tests
/// and bench_host_speed compare the list against.
enum class PairUpdatePath { Auto, Brute };

/// Host-path counters for one ServerDomain (bench/metrics introspection;
/// not serialized — checkpointed runs omit the derived metrics keys).
struct PairUpdateStats {
  std::uint64_t updates = 0;          ///< update() calls with a cut-off
  std::uint64_t cell_updates = 0;     ///< of which the Verlet list served
  std::uint64_t verlet_rebuilds = 0;  ///< rebuilds of the Verlet list
};

/// Builds each server's static domain: every pair (i, j), i < j < n, goes
/// to the one server the strategy names, and each domain lists its pairs in
/// lex order.  Deterministic in (n, p, strategy, seed).  Two passes over
/// row blocks of the triangle (count, then fill domains sized exactly) with
/// no per-pair memo; at p = 1 the single domain is the triangle itself.  A
/// triangle of 2^20 pairs or more is built on util::ThreadPool::shared(),
/// built at the first such call; a smaller one, or a call inside a
/// dispatch, runs inline.
/// Throws util::ConfigError("opal") unless p > 0 and n >= 2.
std::vector<std::vector<PairIdx>> build_domains(std::uint32_t n, int p,
                                                DistributionStrategy strategy,
                                                std::uint64_t seed);

/// The same, with both passes spread over `pool` at any size; a pool of one
/// thread, or a call inside a dispatch, runs inline.  Same domains as the
/// overload above for every pool.
std::vector<std::vector<PairIdx>> build_domains(std::uint32_t n, int p,
                                                DistributionStrategy strategy,
                                                std::uint64_t seed,
                                                util::ThreadPool& pool);

/// True when every pair is (i, j) with i < j < n.
bool pairs_in_range(std::span<const PairIdx> pairs, std::uint32_t n) noexcept;

/// A server's share of the pair work: the static domain plus the active
/// cut-off list rebuilt by update().
class ServerDomain {
 public:
  ServerDomain() = default;
  explicit ServerDomain(std::vector<PairIdx> domain)
      : domain_(std::move(domain)) {}

  /// Rebuilds the active list: pairs within `cutoff` (Angstrom); a
  /// non-positive cutoff means no cut-off (all pairs active, list not
  /// materialized).  Returns the number of pairs checked for virtual-time
  /// accounting (== domain size; the model charges the full sweep
  /// regardless of the host path).  A list filter of 2^15 listed pairs or
  /// more, or a rebuild over a domain of 2^16 pairs or more, runs in
  /// blocks on util::ThreadPool::shared(), built at the first such call; a
  /// smaller one, or a call inside a dispatch, runs inline.
  std::uint64_t update(const MolecularComplex& mc, double cutoff,
                       PairUpdatePath path = PairUpdatePath::Auto);

  /// The same, with the list's filter and rebuild spread over `pool` at
  /// any size; a pool of one thread, or a call inside a dispatch, runs
  /// inline.  Same lists as the overload above for every pool.
  std::uint64_t update(const MolecularComplex& mc, double cutoff,
                       PairUpdatePath path, util::ThreadPool& pool);

  /// Pairs the energy evaluation must process.
  std::span<const PairIdx> active() const noexcept {
    return materialized_ ? std::span<const PairIdx>(active_)
                         : std::span<const PairIdx>(domain_);
  }

  /// Failover: takes ownership of `extra` pairs (a dead server's share).
  /// The active list is stale until the next update(); callers force an
  /// update round after adoption.  Pairs must stay unique across the
  /// domain (guaranteed by the disjoint distribution).
  void adopt(std::span<const PairIdx> extra) {
    domain_.insert(domain_.end(), extra.begin(), extra.end());
    verlet_ready_ = false;
  }

  /// Replaces the domain, as SD and FD do at every list update.  The active
  /// list is stale until the next update(); the counters carry over.
  void reassign(std::vector<PairIdx> domain) {
    domain_ = std::move(domain);
    verlet_ready_ = false;
  }

  std::size_t domain_size() const noexcept { return domain_.size(); }
  std::size_t active_size() const noexcept {
    return materialized_ ? active_.size() : domain_.size();
  }
  /// Bytes of list storage (paper's space model: 2*4 bytes per pair).
  std::size_t list_bytes() const noexcept {
    return active_size() * sizeof(PairIdx);
  }
  /// Cumulative host-path counters since construction/restore.
  const PairUpdateStats& stats() const noexcept { return stats_; }

  const std::vector<PairIdx>& domain() const noexcept { return domain_; }

  /// Shape of the Verlet list as last built: listed pairs and runs
  /// (introspection for tests; zero before the first list-served update).
  std::size_t verlet_items() const noexcept { return vitems_.size(); }
  std::size_t verlet_runs() const noexcept { return vruns_.size(); }

  // -- checkpoint/restart ----------------------------------------------------
  // The record holds only the result state: static domain, active list and
  // materialization flag.  The Verlet list is a lazy cache rebuilt on
  // demand, and both host paths produce the identical active list, so a
  // resumed server replays the golden run's lists exactly.

  struct Snapshot {
    std::vector<PairIdx> domain;
    std::vector<PairIdx> active;
    bool materialized = false;
  };
  Snapshot snapshot() const { return {domain_, active_, materialized_}; }
  /// Restores the record with cold caches and zero counters.  Throws
  /// util::FatalError("ckpt"), changing nothing, unless every pair has
  /// i < j < n and the active list is drawn from the domain in order.
  void restore(const Snapshot& s, std::uint32_t n);

 private:
  // Verlet (skin-padded) list: every domain pair that lay within
  // cutoff + skin at the reference positions rx_/ry_/rz_, in domain order.
  // One shape for every domain (DESIGN.md, "Verlet-list pair updates"): run
  // r holds the pairs (i, j_base + vitems_[t]) for t from its begin to the
  // next run's, and a run ends where the row changes or an offset would
  // pass 65,535.
  struct VerletRun {
    std::uint32_t i, j_base, begin;
  };
  /// One block's output in a pooled update (pairs.cpp).
  struct ListPart;
  /// The calling thread's parts, at least `blocks` of them: one scratch
  /// per thread, shared by every domain that thread updates.
  static std::vector<ListPart>& thread_parts(std::size_t blocks);

  /// `pool` null: the shared pool past the size thresholds.
  std::uint64_t update_on(const MolecularComplex& mc, double cutoff,
                          PairUpdatePath path, util::ThreadPool* pool);
  void update_list(const MolecularComplex& mc, double c2, double cutoff,
                   util::ThreadPool* pool);
  /// Does the Verlet list built for `cutoff` still cover every pair within
  /// it?  True while no center of the current positions sx_/sy_/sz_ has
  /// moved more than skin/2 from its reference position.
  bool verlet_fresh(double cutoff, double skin) const noexcept;
  /// Exact filter of the list against the current positions.
  void filter_list(double c2, util::ThreadPool* pool);
  /// Appends to `out` the pairs of runs [r0, r1) within the cut-off.
  void filter_runs(std::size_t r0, std::size_t r1, double c2,
                   std::vector<PairIdx>& out) const;
  /// Rebuilds the list by one sweep of domain_, emitting the active list
  /// for the current positions on the way.
  void rebuild_subset(double padded2, double c2, util::ThreadPool* pool);
  /// Sweeps domain_[t0, t1), which starts a row, appending its listed
  /// offsets, its runs (begins counted from the items' size on entry) and
  /// its active pairs.  The last run is kept when it holds items or the
  /// block ends the domain.
  void rebuild_block(std::size_t t0, std::size_t t1, double padded2,
                     double c2, std::vector<std::uint16_t>& items,
                     std::vector<VerletRun>& runs,
                     std::vector<PairIdx>& active) const;

  std::vector<PairIdx> domain_;
  std::vector<PairIdx> active_;
  bool materialized_ = false;
  PairUpdateStats stats_;

  // Per-update scratch, reused across calls.
  std::vector<double> sx_, sy_, sz_;

  bool verlet_ready_ = false;
  double verlet_cutoff_ = -1.0;
  std::vector<VerletRun> vruns_;
  std::vector<std::uint16_t> vitems_;
  std::vector<double> rx_, ry_, rz_;
};

}  // namespace opalsim::opal
