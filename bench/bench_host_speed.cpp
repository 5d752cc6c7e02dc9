// Host execution speed of the pair-list update (wall clock, not virtual
// time): the evidence for the Auto path choice in opal/pairs.cpp.
//
// Two measurements, each verified for result equivalence before timing is
// trusted:
//   1. list update — brute-force O(n^2/p) sweep vs the Verlet-list path over
//                    the medium molecule at p = 1 (the serial engine's full
//                    triangle, grid-built list) and p = 7 (the Fig. 1c
//                    cell's subset domains, sweep-built list); identical
//                    active lists on every server required, and the list
//                    path must actually be taken and win,
//   2. crossover   — a ladder of complex sizes timing both forced update
//                    paths and recording which one the Auto heuristic
//                    picks: the empirical basis for kDefaultCellCrossover
//                    (DESIGN.md, "Host execution engine").
//
// Exits non-zero when an active list differs between the paths, when the
// list path is not taken at bench scale or loses an update row, or when
// Auto picks a path that loses by more than the noise band at some
// crossover point.
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "opal/pairs.hpp"
#include "util/host_timer.hpp"

namespace {

using namespace opalsim;

int reps() {
  return static_cast<int>(util::env_long("OPALSIM_HOST_REPS", 5));
}

struct UpdateResult {
  double brute_s = 0.0;
  double cells_s = 0.0;    ///< steady state (Verlet list valid)
  double rebuild_s = 0.0;  ///< cold call: grid build + list construction
  std::size_t active_pairs_brute = 0;
  std::size_t active_pairs_cells = 0;
  bool cells_path_taken = false;
  bool agree = false;
  double speedup() const {
    return cells_s > 0.0 ? brute_s / cells_s : 0.0;
  }
};

/// Times the two update paths over all p servers' domains of the medium
/// molecule (the production distribution) and checks every server's active
/// lists match pair-for-pair, order included.  The list path is timed in
/// steady state — the Verlet list built on the first call stays valid while
/// centers move less than half the skin, which is what every step of a real
/// run pays; the cold rebuild cost is reported separately.
UpdateResult measure_update(const opal::MolecularComplex& mc, double cutoff,
                            int p, int r) {
  auto domains =
      opal::build_domains(static_cast<std::uint32_t>(mc.n()), p,
                          opal::DistributionStrategy::PseudoRandomHistorical,
                          1);
  std::vector<opal::ServerDomain> servers;
  for (auto& d : domains) servers.emplace_back(std::move(d));
  const auto update_all = [&](opal::PairUpdatePath path) {
    for (opal::ServerDomain& dom : servers) dom.update(mc, cutoff, path);
  };
  UpdateResult res;

  util::HostTimer t;
  for (int k = 0; k < r; ++k) update_all(opal::PairUpdatePath::Brute);
  res.brute_s = t.seconds() / r;
  std::vector<std::vector<opal::PairIdx>> brute;
  for (const opal::ServerDomain& dom : servers) {
    brute.emplace_back(dom.active().begin(), dom.active().end());
    res.active_pairs_brute += brute.back().size();
  }

  t.reset();
  update_all(opal::PairUpdatePath::CellList);
  res.rebuild_s = t.seconds();
  t.reset();
  for (int k = 0; k < r; ++k) update_all(opal::PairUpdatePath::CellList);
  res.cells_s = t.seconds() / r;
  res.cells_path_taken = true;
  res.agree = true;
  for (std::size_t s = 0; s < servers.size(); ++s) {
    const opal::ServerDomain& dom = servers[s];
    res.cells_path_taken = res.cells_path_taken && dom.last_update_used_cells();
    res.active_pairs_cells += dom.active_size();
    res.agree = res.agree && dom.active_size() == brute[s].size() &&
                std::equal(brute[s].begin(), brute[s].end(),
                           dom.active().begin());
  }
  return res;
}

struct CrossoverPoint {
  std::size_t n = 0;
  double brute_s = 0.0;
  double cells_s = 0.0;  ///< steady state, path forced
  bool auto_cells = false;  ///< what the Auto heuristic picked
  bool model_ok = false;    ///< Auto matched the faster path (or noise band)
  bool agree = false;       ///< active lists identical at this size
  double speedup() const {
    return cells_s > 0.0 ? brute_s / cells_s : 0.0;
  }
};

/// Sweeps a ladder of complex sizes across the brute/cell-list crossover.
/// Sizes are absolute, not OPALSIM_SCALE-scaled: the crossover is a property
/// of n (at the synthetic complex's density and the production cut-off), and
/// this sweep is what calibrates kDefaultCellCrossover.  Each point times
/// both forced paths (steady state, best of 3 trials against host noise)
/// and then asks the Auto heuristic on a fresh domain which path it picks.
/// model_ok means Auto chose the measured-faster path, or the two paths are
/// inside the 25% noise band where either choice costs nothing.
std::vector<CrossoverPoint> measure_crossover(double cutoff, int r) {
  std::vector<CrossoverPoint> points;
  for (const std::size_t n :
       {64, 128, 256, 384, 512, 768, 1024, 1536, 2048}) {
    opal::SyntheticSpec spec;
    spec.name = "xover";
    spec.n_solute = n / 3;
    spec.n_water = n - n / 3;
    const auto mc = opal::make_synthetic_complex(spec);
    const auto un = static_cast<std::uint32_t>(mc.n());
    const std::size_t npairs = static_cast<std::size_t>(un) * (un - 1) / 2;
    // Small points finish in microseconds; repeat until each trial is long
    // enough for the timer, and take the best of 3 trials.
    const int inner = std::max<int>(
        r, static_cast<int>(2'000'000 / std::max<std::size_t>(1, npairs)));

    CrossoverPoint pt;
    pt.n = mc.n();
    auto time_path = [&](opal::ServerDomain& dom, opal::PairUpdatePath path) {
      dom.update(mc, cutoff, path);  // warm (grid + Verlet list built)
      double best = std::numeric_limits<double>::max();
      for (int trial = 0; trial < 3; ++trial) {
        util::HostTimer t;
        for (int k = 0; k < inner; ++k) dom.update(mc, cutoff, path);
        best = std::min(best, t.seconds() / inner);
      }
      return best;
    };

    auto domains = opal::build_domains(
        un, 1, opal::DistributionStrategy::RowCyclic, 1);
    opal::ServerDomain dom(std::move(domains[0]));
    pt.brute_s = time_path(dom, opal::PairUpdatePath::Brute);
    const std::vector<opal::PairIdx> brute(dom.active().begin(),
                                           dom.active().end());
    pt.cells_s = time_path(dom, opal::PairUpdatePath::CellList);
    pt.agree = brute.size() == dom.active_size() &&
               std::equal(brute.begin(), brute.end(), dom.active().begin());
    dom.update(mc, cutoff, opal::PairUpdatePath::Auto);
    pt.auto_cells = dom.last_update_used_cells();
    const bool cells_faster = pt.cells_s < pt.brute_s;
    pt.model_ok = pt.auto_cells == cells_faster ||
                  (pt.speedup() > 0.8 && pt.speedup() < 1.25);
    points.push_back(pt);
  }
  return points;
}

}  // namespace

int main() {
  bench::banner("Host execution speed — pair-list update and its crossover",
                "host wall clock; virtual-time results are path-invariant");

  const auto mc = bench::medium_complex();
  const double cutoff = 10.0;
  const int r = reps();
  std::cout << "molecule: n = " << mc.n() << ", cutoff = " << cutoff
            << " A, reps = " << r << "\n\n";

  const int server_counts[] = {1, 7};
  std::vector<UpdateResult> updates;
  for (const int p : server_counts) {
    updates.push_back(measure_update(mc, cutoff, p, r));
  }
  const std::vector<CrossoverPoint> xover = measure_crossover(cutoff, r);

  util::Table t({"comparison", "baseline [s]", "optimized [s]", "speedup",
                 "agree"});
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const UpdateResult& u = updates[k];
    t.row()
        .add("update p=" + std::to_string(server_counts[k]) +
             ": brute vs cell list")
        .add(u.brute_s, 6)
        .add(u.cells_s, 6)
        .add(u.speedup(), 2)
        .add(u.agree ? "yes" : "NO");
  }
  bench::emit(t, "host_speed");

  util::Table xt({"n", "brute [s]", "cell list [s]", "speedup", "auto path",
                  "model ok"});
  for (const CrossoverPoint& p : xover) {
    xt.row()
        .add(static_cast<unsigned long>(p.n))
        .add(p.brute_s, 7)
        .add(p.cells_s, 7)
        .add(p.speedup(), 2)
        .add(p.auto_cells ? "cells" : "brute")
        .add(p.model_ok ? "yes" : "NO");
  }
  bench::emit(xt, "host_crossover");

  bool ok = true;
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const UpdateResult& u = updates[k];
    const std::string row = "update p=" + std::to_string(server_counts[k]);
    std::cout << row << ": active pairs brute " << u.active_pairs_brute
              << ", cell list " << u.active_pairs_cells << " (cell path "
              << (u.cells_path_taken ? "taken" : "fell back to brute")
              << "; cold rebuild " << u.rebuild_s << " s, amortized over the "
              << "steps a Verlet list stays valid)\n";
    if (!u.agree) {
      std::cerr << "FAIL: " << row
                << ": cell-list active list differs from brute force\n";
      ok = false;
    }
    if (!u.cells_path_taken) {
      std::cerr << "FAIL: " << row
                << ": the cell path was not taken at bench scale\n";
      ok = false;
    }
    if (!(u.cells_s < u.brute_s)) {
      std::cerr << "FAIL: " << row
                << ": the list path is slower than brute force\n";
      ok = false;
    }
  }
  for (const CrossoverPoint& p : xover) {
    if (!p.agree) {
      std::cerr << "FAIL: crossover n=" << p.n
                << ": active lists differ between paths\n";
      ok = false;
    }
    if (!p.model_ok) {
      std::cerr << "FAIL: crossover n=" << p.n << ": Auto picked "
                << (p.auto_cells ? "cells" : "brute")
                << " but the other path wins by more than the noise band\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
