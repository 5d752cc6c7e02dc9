// Pair distribution and cut-off pair lists.
//
// The replicated-data parallelization assigns every unordered pair (i,j) of
// mass centers to exactly one server (paper §2.1: "each server selects a
// distinct subset of the atom pairs").  The assignment is static for a run;
// the *active* list on each server is rebuilt in the update phase by
// distance-checking the assigned pairs against the cut-off.
//
// Two host execution paths rebuild the active list (DESIGN.md, "Host
// execution engine"): the brute-force sweep over the assigned pairs (the
// paper's algorithm, O(n^2/p) distance checks) and a skin-padded Verlet
// list over the static domain that is exact-filtered per update and
// rebuilt only when some center has moved more than half the skin.  Both
// produce the identical active list (same pairs, same order); only host
// wall time differs.  Virtual-time accounting is unchanged: update() always
// reports domain_size() pairs checked, the paper's O(n^2) model.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "opal/cells.hpp"
#include "opal/complex.hpp"

namespace opalsim::opal {

struct PairIdx {
  std::uint32_t i, j;
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
/// Auto picks the Verlet list when the crossover model says it pays off
/// (cut-off set, enough centers/pairs, box wide enough for the padded
/// cut-off to prune); Brute and CellList force a path (CellList still falls
/// back when the full-triangle grid degenerates, e.g. the cut-off exceeds
/// the bounding box).  Brute is the in-process oracle the tests compare
/// against.
enum class PairUpdatePath { Auto, Brute, CellList };

/// Auto-path crossover: minimum center count before the Verlet list is
/// considered.  Default from the bench_host_speed crossover sweep
/// (DESIGN.md, "Host execution engine").
std::uint32_t cell_crossover_centers();
/// Overrides the crossover (tests steer the Auto heuristic in-process; 0
/// restores the default).
void set_cell_crossover_centers(std::uint32_t n);

/// Host-path counters for one ServerDomain (bench/metrics introspection;
/// not serialized — checkpointed runs omit the derived metrics keys).
struct PairUpdateStats {
  std::uint64_t updates = 0;          ///< update() calls with a cut-off
  std::uint64_t cell_updates = 0;     ///< of which the Verlet list served
  std::uint64_t verlet_rebuilds = 0;  ///< rebuilds of the Verlet list
};

/// Owner server of pair number `k` = (i,j) under the given strategy.
int pair_owner(DistributionStrategy strategy, std::uint64_t k,
               std::uint32_t i, std::uint32_t j, std::uint32_t n, int p,
               std::uint64_t seed);

/// Enumerates all n(n-1)/2 pairs once and builds each server's static
/// domain.  Deterministic in (n, p, strategy, seed).
std::vector<std::vector<PairIdx>> build_domains(std::uint32_t n, int p,
                                                DistributionStrategy strategy,
                                                std::uint64_t seed);

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
  /// regardless of the host path).
  std::uint64_t update(const MolecularComplex& mc, double cutoff,
                       PairUpdatePath path = PairUpdatePath::Auto);

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

  std::size_t domain_size() const noexcept { return domain_.size(); }
  std::size_t active_size() const noexcept {
    return materialized_ ? active_.size() : domain_.size();
  }
  /// Bytes of list storage (paper's space model: 2*4 bytes per pair).
  std::size_t list_bytes() const noexcept {
    return active_size() * sizeof(PairIdx);
  }
  /// True when the last update() was served by the Verlet list (bench and
  /// test introspection).
  bool last_update_used_cells() const noexcept { return used_cells_; }
  /// Cumulative host-path counters since construction/restore.
  const PairUpdateStats& stats() const noexcept { return stats_; }

  // -- checkpoint/restart (src/ckpt) ---------------------------------------
  // Only the result state is serialized: static domain, materialized active
  // list, materialization flag.  The grid and Verlet list are lazy caches
  // rebuilt on demand, and both host paths produce the identical active
  // list — so a resumed server replays the golden run's lists exactly.

  const std::vector<PairIdx>& domain() const noexcept { return domain_; }
  const std::vector<PairIdx>& active_list() const noexcept { return active_; }
  bool materialized() const noexcept { return materialized_; }

  /// Restores serialized list state; caches start cold (resume only).
  void restore(std::vector<PairIdx> domain, std::vector<PairIdx> active,
               bool materialized) {
    domain_ = std::move(domain);
    active_ = std::move(active);
    materialized_ = materialized;
    used_cells_ = false;
    stats_ = {};
    verlet_ready_ = false;
  }

 private:
  void update_brute(const MolecularComplex& mc, double c2);
  bool update_cells(const MolecularComplex& mc, double c2, double cutoff);
  /// Crossover model for the Auto path: does the Verlet list pay off here?
  bool cells_profitable(const MolecularComplex& mc, double cutoff) const;
  /// Does the Verlet list built for `cutoff` still cover every pair within
  /// it?  True while no center of the current positions sx_/sy_/sz_ has
  /// moved more than skin/2 from its reference position.
  bool verlet_fresh(double cutoff, double skin) const noexcept;
  /// Rebuilds the full-triangle rows through a grid with edge `padded`;
  /// false (list untouched) when the grid degenerates.
  bool rebuild_triangle(double padded);
  /// Rebuilds the domain-subset list by one sweep of domain_, emitting the
  /// active list for the current positions on the way.
  void rebuild_subset(double padded2, double c2);

  std::vector<PairIdx> domain_;
  std::vector<PairIdx> active_;
  bool materialized_ = false;
  bool used_cells_ = false;
  PairUpdateStats stats_;

  // Per-update scratch, reused across calls.
  CellGrid grid_;
  std::vector<double> sx_, sy_, sz_;
  std::vector<std::uint64_t> marks_;

  // Verlet (skin-padded) list: every pair that lay within cutoff + skin at
  // the reference positions rx_/ry_/rz_.  Valid while no center has moved
  // more than skin/2 from its reference — then exact distance-filtering
  // the list reproduces the brute-force active list bit for bit.  Two
  // shapes (DESIGN.md, "Host execution engine"):
  //  - full triangle in lex order (the serial engine's domain): CSR rows,
  //    vitems_[vstart_[i]..vstart_[i+1]) are the j's of row i, built
  //    through the cell grid;
  //  - any other domain (p > 1 servers, post-failover domains): vmask_ is
  //    a bitmask over domain_ positions, built by one brute sweep.  One
  //    bit per assigned pair, where PairIdx copies would cost 64 per
  //    listed pair (DESIGN.md, "Memory rule").
  bool verlet_ready_ = false;
  bool verlet_triangle_ = false;
  double verlet_cutoff_ = -1.0;
  std::vector<std::uint32_t> vstart_, vitems_;
  std::vector<std::uint64_t> vmask_;
  std::vector<double> rx_, ry_, rz_;
};

}  // namespace opalsim::opal
