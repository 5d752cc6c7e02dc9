// Host execution speed of the pair-list update (wall clock, not virtual
// time): the evidence that the one production path, the Verlet list built
// by a sweep of the domain (opal/pairs.cpp), never loses to the brute-force
// oracle.
//
// Two measurements, each verified for result equivalence before timing is
// trusted:
//   1. list update — brute-force O(n^2/p) sweep vs the Verlet list over the
//                    medium molecule at p = 1 (the serial engine's full
//                    triangle) and p = 7 (the Fig. 1c cell's subset
//                    domains); identical active lists on every server
//                    required, and the list must win,
//   2. size ladder — the full triangle of complexes from 64 to 2,048
//                    centers at the production cut-off, timing both paths
//                    at each rung (DESIGN.md, "Verlet-list pair updates").
//
// Exits non-zero when an active list differs between the paths, when the
// list loses the p = 1 or p = 7 row, or when it is slower than brute force
// beyond the 25% noise band at some rung of the ladder.
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
  double list_s = 0.0;     ///< steady state (Verlet list valid)
  double rebuild_s = 0.0;  ///< cold call: list construction
  std::size_t active_pairs_brute = 0;
  std::size_t active_pairs_list = 0;
  bool agree = false;
  double speedup() const { return list_s > 0.0 ? brute_s / list_s : 0.0; }
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
  update_all(opal::PairUpdatePath::Auto);
  res.rebuild_s = t.seconds();
  t.reset();
  for (int k = 0; k < r; ++k) update_all(opal::PairUpdatePath::Auto);
  res.list_s = t.seconds() / r;
  res.agree = true;
  for (std::size_t s = 0; s < servers.size(); ++s) {
    const opal::ServerDomain& dom = servers[s];
    res.active_pairs_list += dom.active_size();
    res.agree = res.agree && dom.active_size() == brute[s].size() &&
                std::equal(brute[s].begin(), brute[s].end(),
                           dom.active().begin());
  }
  return res;
}

struct LadderPoint {
  std::size_t n = 0;
  double brute_s = 0.0;
  double list_s = 0.0;  ///< steady state
  bool agree = false;   ///< active lists identical at this size
  double speedup() const { return list_s > 0.0 ? brute_s / list_s : 0.0; }
};

/// Times both paths on the full triangle of a ladder of complex sizes.
/// Sizes are absolute, not OPALSIM_SCALE-scaled: where the list starts to
/// pay is a property of n (at the synthetic complex's density and the
/// production cut-off).  Each rung times both paths in steady state, best
/// of 3 trials against host noise.
std::vector<LadderPoint> measure_ladder(double cutoff, int r) {
  std::vector<LadderPoint> points;
  for (const std::size_t n :
       {64, 128, 256, 384, 512, 768, 1024, 1536, 2048}) {
    opal::SyntheticSpec spec;
    spec.name = "ladder";
    spec.n_solute = n / 3;
    spec.n_water = n - n / 3;
    const auto mc = opal::make_synthetic_complex(spec);
    const auto un = static_cast<std::uint32_t>(mc.n());
    const std::size_t npairs = static_cast<std::size_t>(un) * (un - 1) / 2;
    // Small points finish in microseconds; repeat until each trial is long
    // enough for the timer, and take the best of 3 trials.
    const int inner = std::max<int>(
        r, static_cast<int>(2'000'000 / std::max<std::size_t>(1, npairs)));

    LadderPoint pt;
    pt.n = mc.n();
    auto time_path = [&](opal::ServerDomain& dom, opal::PairUpdatePath path) {
      dom.update(mc, cutoff, path);  // warm (Verlet list built)
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
    pt.list_s = time_path(dom, opal::PairUpdatePath::Auto);
    pt.agree = brute.size() == dom.active_size() &&
               std::equal(brute.begin(), brute.end(), dom.active().begin());
    points.push_back(pt);
  }
  return points;
}

}  // namespace

int main() {
  bench::banner("Host execution speed — pair-list update over molecule sizes",
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
  const std::vector<LadderPoint> ladder = measure_ladder(cutoff, r);

  util::Table t({"comparison", "baseline [s]", "optimized [s]", "speedup",
                 "agree"});
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const UpdateResult& u = updates[k];
    t.row()
        .add("update p=" + std::to_string(server_counts[k]) +
             ": brute vs Verlet list")
        .add(u.brute_s, 6)
        .add(u.list_s, 6)
        .add(u.speedup(), 2)
        .add(u.agree ? "yes" : "NO");
  }
  bench::emit(t, "host_speed");

  util::Table xt({"n", "brute [s]", "Verlet list [s]", "speedup"});
  for (const LadderPoint& p : ladder) {
    xt.row()
        .add(static_cast<unsigned long>(p.n))
        .add(p.brute_s, 7)
        .add(p.list_s, 7)
        .add(p.speedup(), 2);
  }
  bench::emit(xt, "host_ladder");

  bool ok = true;
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const UpdateResult& u = updates[k];
    const std::string row = "update p=" + std::to_string(server_counts[k]);
    std::cout << row << ": active pairs brute " << u.active_pairs_brute
              << ", Verlet list " << u.active_pairs_list << " (cold rebuild "
              << u.rebuild_s << " s, amortized over the steps a Verlet list "
              << "stays valid)\n";
    if (!u.agree) {
      std::cerr << "FAIL: " << row
                << ": Verlet-list active list differs from brute force\n";
      ok = false;
    }
    if (!(u.list_s < u.brute_s)) {
      std::cerr << "FAIL: " << row
                << ": the list path is slower than brute force\n";
      ok = false;
    }
  }
  for (const LadderPoint& p : ladder) {
    if (!p.agree) {
      std::cerr << "FAIL: ladder n=" << p.n
                << ": active lists differ between paths\n";
      ok = false;
    }
    if (p.list_s > 1.25 * p.brute_s) {
      std::cerr << "FAIL: ladder n=" << p.n << ": the Verlet list is "
                << "slower than brute force beyond the 25% noise band\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
