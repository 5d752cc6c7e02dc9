// Host execution speed of the simulator itself (wall clock, not virtual
// time): the perf trajectory bench for the host execution engine.
//
// Three comparisons, each verified for result equivalence before timing is
// trusted:
//   1. list update  — brute-force O(n^2) sweep vs linked-cell path
//                     (identical active lists required),
//   2. nbint kernel — AoS nonbonded_pair loop vs SoA nonbonded_batch
//                     (bit-identical energies/gradients required),
//   3. sweep runner — independent DES runs serial vs util::ThreadPool
//                     (identical RunMetrics required).
// Plus the crossover sweep: a ladder of complex sizes timing both forced
// update paths and recording which one the Auto heuristic picks — the
// empirical basis for kDefaultCellCrossover (DESIGN.md, "Host execution
// engine").
//
// Emits a machine-readable BENCH_host.json (path: OPALSIM_BENCH_JSON, or
// ./BENCH_host.json) — including a MetricsRegistry snapshot of the host-path
// counters (cells.*, pool.*) — and exits non-zero when any equivalence
// check fails; tools/perf/check_bench_host.py gates the ratios in CI.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "mach/platforms_db.hpp"
#include "obs/metrics.hpp"
#include "opal/forcefield.hpp"
#include "opal/pairs.hpp"
#include "opal/parallel.hpp"
#include "opal/soa.hpp"
#include "util/host_timer.hpp"
#include "util/thread_pool.hpp"

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
  opal::PairUpdateStats stats;  ///< host-path counters after the runs
  double speedup() const {
    return cells_s > 0.0 ? brute_s / cells_s : 0.0;
  }
};

/// Times the two update paths over the p = 1 domain of the medium molecule
/// (the serial engine's heaviest phase) and checks the active lists match
/// pair-for-pair, order included.  The cell path is timed in steady state —
/// the Verlet list built on the first call stays valid while centers move
/// less than half the skin, which is what every step of a real run pays;
/// the cold rebuild cost is reported separately.
UpdateResult measure_update(const opal::MolecularComplex& mc, double cutoff,
                            int r) {
  auto domains = opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                                     opal::DistributionStrategy::RowCyclic, 1);
  opal::ServerDomain dom(std::move(domains[0]));
  UpdateResult res;

  util::HostTimer t;
  for (int k = 0; k < r; ++k) {
    dom.update(mc, cutoff, opal::PairUpdatePath::Brute);
  }
  res.brute_s = t.seconds() / r;
  const std::vector<opal::PairIdx> brute(dom.active().begin(),
                                         dom.active().end());
  res.active_pairs_brute = brute.size();

  t.reset();
  dom.update(mc, cutoff, opal::PairUpdatePath::CellList);
  res.rebuild_s = t.seconds();
  t.reset();
  for (int k = 0; k < r; ++k) {
    dom.update(mc, cutoff, opal::PairUpdatePath::CellList);
  }
  res.cells_s = t.seconds() / r;
  res.cells_path_taken = dom.last_update_used_cells();
  res.active_pairs_cells = dom.active_size();
  res.agree = res.active_pairs_cells == brute.size() &&
              std::equal(brute.begin(), brute.end(), dom.active().begin());
  res.stats = dom.stats();
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

struct KernelResult {
  double aos_s = 0.0;
  double soa_s = 0.0;
  bool agree = false;
  double speedup() const { return soa_s > 0.0 ? aos_s / soa_s : 0.0; }
};

/// Times the AoS pair loop against the SoA batch over the cut-off active
/// list and requires bit-identical energies and gradients.
KernelResult measure_kernel(const opal::MolecularComplex& mc, double cutoff,
                            int r) {
  auto domains = opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                                     opal::DistributionStrategy::RowCyclic, 1);
  opal::ServerDomain dom(std::move(domains[0]));
  dom.update(mc, cutoff);
  const auto pairs = dom.active();

  std::vector<opal::Vec3> grad_aos(mc.n()), grad_soa(mc.n());
  double evdw_aos = 0.0, ecoul_aos = 0.0;
  double evdw_soa = 0.0, ecoul_soa = 0.0;
  KernelResult res;

  util::HostTimer t;
  for (int k = 0; k < r; ++k) {
    evdw_aos = ecoul_aos = 0.0;
    std::fill(grad_aos.begin(), grad_aos.end(), opal::Vec3{});
    for (const opal::PairIdx& pr : pairs) {
      opal::nonbonded_pair(mc, pr.i, pr.j, evdw_aos, ecoul_aos, grad_aos);
    }
  }
  res.aos_s = t.seconds() / r;

  opal::CentersSoA soa;
  soa.refresh(mc);
  t.reset();
  for (int k = 0; k < r; ++k) {
    evdw_soa = ecoul_soa = 0.0;
    std::fill(grad_soa.begin(), grad_soa.end(), opal::Vec3{});
    opal::nonbonded_batch(soa, pairs, evdw_soa, ecoul_soa, grad_soa);
  }
  res.soa_s = t.seconds() / r;

  res.agree = evdw_aos == evdw_soa && ecoul_aos == ecoul_soa &&
              std::equal(grad_aos.begin(), grad_aos.end(), grad_soa.begin());
  return res;
}

struct SweepResult {
  double serial_s = 0.0;
  double pooled_s = 0.0;
  unsigned threads = 1;
  unsigned hardware_threads = 1;  ///< what this host can actually run
  util::DispatchStats stats;      ///< chunked-dispatch counters
  bool agree = false;
  double speedup() const {
    return pooled_s > 0.0 ? serial_s / pooled_s : 0.0;
  }
};

/// Fans independent DES runs (small molecule, p = 1..kRuns) across the pool
/// and checks the pooled results equal the serial ones field-for-field.
SweepResult measure_sweep() {
  constexpr int kRuns = 8;
  auto run_one = [](int idx) {
    opal::SimulationConfig cfg;
    cfg.steps = bench::steps();
    cfg.cutoff = 10.0;
    cfg.strategy = opal::DistributionStrategy::PseudoRandomUniform;
    opal::ParallelOpal run(mach::cray_j90(), bench::small_complex(),
                           1 + idx % 7, cfg);
    return run.run().metrics;
  };

  SweepResult res;
  res.hardware_threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<opal::RunMetrics> serial(kRuns), pooled(kRuns);

  util::HostTimer t;
  for (int i = 0; i < kRuns; ++i) serial[i] = run_one(i);
  res.serial_s = t.seconds();

  util::ThreadPool pool;
  res.threads = pool.size();
  t.reset();
  util::parallel_for_indexed(pool, kRuns,
                             [&](std::size_t i) {
                               pooled[i] = run_one(static_cast<int>(i));
                             });
  res.pooled_s = t.seconds();
  res.stats = pool.dispatch_stats();

  res.agree = true;
  for (int i = 0; i < kRuns; ++i) {
    if (serial[i].wall != pooled[i].wall ||
        serial[i].pairs_checked != pooled[i].pairs_checked ||
        serial[i].pairs_evaluated != pooled[i].pairs_evaluated ||
        serial[i].tot_par_comp() != pooled[i].tot_par_comp() ||
        serial[i].tot_comm() != pooled[i].tot_comm()) {
      res.agree = false;
    }
  }
  return res;
}

/// The host-path counters as a MetricsRegistry snapshot — the same
/// deterministic JSON shape ParallelOpal writes for OPALSIM_METRICS, here
/// fed from the bench's own measurements.  `pool.steal_count` is the one
/// scheduling-dependent value (it never feeds anything that pins bytes).
std::string metrics_snapshot(const UpdateResult& u, const SweepResult& s) {
  obs::MetricsRegistry reg;
  reg.add("cells.path_taken", u.stats.cell_updates);
  reg.add("cells.rebuilds", u.stats.verlet_rebuilds);
  reg.add("cells.updates", u.stats.updates);
  reg.add("pool.dispatch_chunks", s.stats.chunks);
  reg.add("pool.dispatches", s.stats.dispatches);
  reg.add("pool.steal_count", s.stats.steals);
  return reg.to_json();
}

void write_json(const UpdateResult& u,
                const std::vector<CrossoverPoint>& xover,
                const KernelResult& k, const SweepResult& s, std::size_t n) {
  const std::string path =
      util::env_string("OPALSIM_BENCH_JSON").value_or("BENCH_host.json");
  std::ofstream os(path);
  os << "{\n"
     << "  \"molecule_centers\": " << n << ",\n"
     << "  \"update\": {\n"
     << "    \"brute_s\": " << u.brute_s << ",\n"
     << "    \"cell_list_s\": " << u.cells_s << ",\n"
     << "    \"cell_list_rebuild_s\": " << u.rebuild_s << ",\n"
     << "    \"speedup\": " << u.speedup() << ",\n"
     << "    \"active_pairs_brute\": " << u.active_pairs_brute << ",\n"
     << "    \"active_pairs_cell_list\": " << u.active_pairs_cells << ",\n"
     << "    \"cell_path_taken\": " << (u.cells_path_taken ? "true" : "false")
     << ",\n"
     << "    \"agree\": " << (u.agree ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"crossover\": [\n";
  for (std::size_t i = 0; i < xover.size(); ++i) {
    const CrossoverPoint& p = xover[i];
    os << "    {\"n\": " << p.n << ", \"brute_s\": " << p.brute_s
       << ", \"cell_list_s\": " << p.cells_s
       << ", \"speedup\": " << p.speedup()
       << ", \"auto_cells\": " << (p.auto_cells ? "true" : "false")
       << ", \"model_ok\": " << (p.model_ok ? "true" : "false")
       << ", \"agree\": " << (p.agree ? "true" : "false") << "}"
       << (i + 1 < xover.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"nbint_kernel\": {\n"
     << "    \"aos_s\": " << k.aos_s << ",\n"
     << "    \"soa_s\": " << k.soa_s << ",\n"
     << "    \"speedup\": " << k.speedup() << ",\n"
     << "    \"agree\": " << (k.agree ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"sweep\": {\n"
     << "    \"serial_s\": " << s.serial_s << ",\n"
     << "    \"pooled_s\": " << s.pooled_s << ",\n"
     << "    \"threads\": " << s.threads << ",\n"
     << "    \"hardware_threads\": " << s.hardware_threads << ",\n"
     << "    \"dispatches\": " << s.stats.dispatches << ",\n"
     << "    \"dispatch_chunks\": " << s.stats.chunks << ",\n"
     << "    \"steals\": " << s.stats.steals << ",\n"
     << "    \"speedup\": " << s.speedup() << ",\n"
     << "    \"agree\": " << (s.agree ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"metrics\": " << metrics_snapshot(u, s) << "\n"
     << "}\n";
  std::cout << "[json] wrote " << path << "\n";
}

}  // namespace

int main() {
  bench::banner("Host execution speed — cell lists, SoA kernel, sweep pool",
                "host wall clock; virtual-time results are path-invariant");

  const auto mc = bench::medium_complex();
  const double cutoff = 10.0;
  const int r = reps();
  std::cout << "molecule: n = " << mc.n() << ", cutoff = " << cutoff
            << " A, reps = " << r << "\n\n";

  const UpdateResult u = measure_update(mc, cutoff, r);
  const std::vector<CrossoverPoint> xover = measure_crossover(cutoff, r);
  const KernelResult k = measure_kernel(mc, cutoff, r);
  const SweepResult s = measure_sweep();

  util::Table t({"comparison", "baseline [s]", "optimized [s]", "speedup",
                 "agree"});
  t.row()
      .add("update: brute vs cell list")
      .add(u.brute_s, 6)
      .add(u.cells_s, 6)
      .add(u.speedup(), 2)
      .add(u.agree ? "yes" : "NO");
  t.row()
      .add("nbint: AoS vs SoA batch")
      .add(k.aos_s, 6)
      .add(k.soa_s, 6)
      .add(k.speedup(), 2)
      .add(k.agree ? "yes" : "NO");
  t.row()
      .add("sweep: serial vs pool(" + std::to_string(s.threads) + ")")
      .add(s.serial_s, 3)
      .add(s.pooled_s, 3)
      .add(s.speedup(), 2)
      .add(s.agree ? "yes" : "NO");
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

  std::cout << "active pairs: brute " << u.active_pairs_brute
            << ", cell list " << u.active_pairs_cells << " (cell path "
            << (u.cells_path_taken ? "taken" : "fell back to brute")
            << "; cold rebuild " << u.rebuild_s << " s, amortized over the "
            << "steps a Verlet list stays valid)\n";
  std::cout << "sweep pool: " << s.threads << " threads ("
            << s.hardware_threads << " hardware), " << s.stats.dispatches
            << " dispatches, " << s.stats.chunks << " chunks, "
            << s.stats.steals << " steals\n";

  write_json(u, xover, k, s, mc.n());

  bool xover_agree = true;
  for (const CrossoverPoint& p : xover) xover_agree &= p.agree;
  if (!u.agree || !k.agree || !s.agree || !xover_agree) {
    std::cerr << "FAIL: optimized paths disagree with the reference\n";
    return 1;
  }
  return 0;
}
