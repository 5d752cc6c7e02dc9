// Parallelization alternatives (paper §2.1 "Parallelization Alternatives"):
//
//  - replicated-data (RD): the method Opal uses — every server holds all
//    coordinates; pairs are distributed pseudo-randomly (see parallel.hpp).
//  - space decomposition (SD): the box is cut into p slabs along x; each
//    server owns the mass centers in its slab and receives ghost centers
//    within the cut-off of its boundaries.  Communication volume per server
//    drops from O(n) to O(n/p + ghost) when a cut-off is active.
//  - force decomposition (FD, Plimpton & Hendrickson): the force matrix is
//    partitioned into an a x b block grid (a*b = p); server (u,v) receives
//    the coordinates of row band u and column band v — O(n/a + n/b) per
//    server, the classic sqrt(p) communication advantage.
//
// All three run on one client/server driver, ParallelOpal, selected by
// SimulationConfig::method; this file holds what is specific to SD and FD.
// All three produce identical physics (tested against SerialOpal); they
// differ in communication volume, balance, and update cost — the
// trade-offs bench_ablation_decomposition quantifies.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "opal/complex.hpp"
#include "opal/config.hpp"
#include "opal/pairs.hpp"
#include "pvm/pack_buffer.hpp"

namespace opalsim::opal {

std::string to_string(Method m);

/// Factorizes p into a grid a x b with a <= b and a as close to sqrt(p) as
/// possible (used by the FD method).
std::pair<int, int> fd_grid(int p);

/// Communication bytes shipped client->servers per nbint round for each
/// method (analytic; used by the ablation bench and tests).
double call_bytes_per_step(Method method, std::size_t n, int p,
                           double ghost_fraction = 1.0);

/// One SD or FD server's share until the next scheduled list update.
struct Assignment {
  std::vector<std::uint32_t> local;  ///< coordinate recipients, own first
  std::uint64_t own_count = 0;       ///< SD: split between own and ghost
  std::uint32_t rlo = 0, rhi = 0;    ///< FD: row band
  std::uint32_t clo = 0, chi = 0;    ///< FD: column band
};

/// SD: each of the p servers owns the centers in its slab along x (by
/// current position) and receives one-sided ghosts.
std::vector<Assignment> sd_assign(const MolecularComplex& mc, int p,
                                  double cutoff);

/// FD: server (u, v) of the fd_grid(p) grid gets row band u and column
/// band v of the n center indices.
std::vector<Assignment> fd_assign(std::uint32_t n, int p);

/// The coordinates of centers `idx`, flat.
std::vector<double> coords_for(const MolecularComplex& mc,
                               const std::vector<std::uint32_t>& idx);

/// Packs an SD or FD "update" request: the method's tag and header, the
/// local centers and their coordinates.
void pack_update(Method method, const Assignment& a,
                 const MolecularComplex& mc, pvm::PackBuffer& out);

/// Unpacks an "update" request up to its coordinates, which follow: fills
/// `local` and returns the server's candidate pairs (i < j) — SD's own-own
/// and own-ghost pairs, FD's row-band x column-band block.
std::vector<PairIdx> unpack_candidates(pvm::PackBuffer& in,
                                       std::vector<std::uint32_t>& local);

}  // namespace opalsim::opal
