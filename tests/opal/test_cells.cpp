// Verlet-list update path: the guarantee that ServerDomain::update produces
// the *identical* active list (same pairs, same order) on the list and on
// the brute-force oracle, across distribution strategies, server counts,
// post-failover domains, moving positions and degenerate or non-finite
// geometries.  The list serves every domain, including the full triangle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mach/platforms_db.hpp"
#include "opal/complex.hpp"
#include "opal/forcefield.hpp"
#include "opal/pairs.hpp"
#include "opal/parallel.hpp"
#include "opal/serial.hpp"
#include "util/rng.hpp"

namespace {

using namespace opalsim;

opal::MolecularComplex test_complex(std::size_t n_solute, std::size_t n_water,
                                    std::uint64_t seed) {
  opal::SyntheticSpec s;
  s.n_solute = n_solute;
  s.n_water = n_water;
  s.seed = seed;
  return opal::make_synthetic_complex(s);
}

std::vector<opal::PairIdx> snapshot(const opal::ServerDomain& dom) {
  return {dom.active().begin(), dom.active().end()};
}

/// Half the Verlet skin for `cutoff`, computed as the list does
/// (kVerletSkinFactor = 0.3).
double half_skin(double cutoff) { return 0.5 * (0.3 * cutoff); }

/// Runs both paths on the same domain and requires element-for-element
/// equality (order included — the FP accumulation order downstream depends
/// on it).  The Auto update must be served by the list.
void expect_paths_identical(opal::ServerDomain& dom,
                            const opal::MolecularComplex& mc, double cutoff) {
  dom.update(mc, cutoff, opal::PairUpdatePath::Brute);
  const auto brute = snapshot(dom);
  const std::uint64_t served = dom.stats().cell_updates;
  dom.update(mc, cutoff, opal::PairUpdatePath::Auto);
  ASSERT_EQ(dom.stats().cell_updates, served + 1);
  const auto cells = snapshot(dom);
  ASSERT_EQ(brute.size(), cells.size());
  for (std::size_t t = 0; t < brute.size(); ++t) {
    ASSERT_EQ(brute[t].i, cells[t].i) << "at position " << t;
    ASSERT_EQ(brute[t].j, cells[t].j) << "at position " << t;
  }
}

TEST(CellListEquivalence, AllStrategiesAllServerCounts) {
  const auto mc = test_complex(150, 300, 42);
  const auto n = static_cast<std::uint32_t>(mc.n());
  const opal::DistributionStrategy strategies[] = {
      opal::DistributionStrategy::PseudoRandomHistorical,
      opal::DistributionStrategy::PseudoRandomUniform,
      opal::DistributionStrategy::RowCyclic,
      opal::DistributionStrategy::Folded,
      opal::DistributionStrategy::EvenMultiplierBug,
  };
  for (const auto strategy : strategies) {
    for (int p : {1, 2, 5, 7}) {
      auto domains = opal::build_domains(n, p, strategy, 1);
      for (int s = 0; s < p; ++s) {
        if (domains[s].empty()) continue;
        opal::ServerDomain dom(std::move(domains[s]));
        SCOPED_TRACE(opal::to_string(strategy) + ", p=" + std::to_string(p) +
                     ", server " + std::to_string(s));
        // Every domain takes the one list builder, the whole triangle too
        // (p = 1, and the even-multiplier bug's server 0 at even p).
        expect_paths_identical(dom, mc, 8.0);
        EXPECT_EQ(dom.stats().verlet_rebuilds, 1u);
      }
    }
  }
}

TEST(CellListEquivalence, AcrossSeedsAndCutoffs) {
  for (std::uint64_t seed : {1ull, 99ull, 7777ull}) {
    const auto mc = test_complex(130, 260, seed);
    auto domains =
        opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                            opal::DistributionStrategy::RowCyclic, seed);
    opal::ServerDomain dom(std::move(domains[0]));
    for (double cutoff : {4.0, 8.0, 15.0}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " cutoff=" + std::to_string(cutoff));
      expect_paths_identical(dom, mc, cutoff);
    }
  }
}

TEST(CellListEquivalence, PostAdoptFailoverDomain) {
  const auto mc = test_complex(140, 280, 5);
  const auto n = static_cast<std::uint32_t>(mc.n());
  auto domains = opal::build_domains(
      n, 3, opal::DistributionStrategy::PseudoRandomUniform, 2);
  // Server 0 adopts server 2's share (the failover path): its domain is now
  // two concatenated sorted runs, and the list must follow that order.
  opal::ServerDomain dom(std::move(domains[0]));
  dom.update(mc, 8.0, opal::PairUpdatePath::Auto);
  dom.update(mc, 8.0, opal::PairUpdatePath::Auto);
  EXPECT_EQ(dom.stats().verlet_rebuilds, 1u);  // nothing moved
  dom.adopt(domains[2]);
  expect_paths_identical(dom, mc, 8.0);
  EXPECT_EQ(dom.stats().verlet_rebuilds, 2u);  // adopt() invalidates
  // A second adoption on top (two failovers).
  dom.adopt(domains[1]);
  expect_paths_identical(dom, mc, 8.0);
  EXPECT_EQ(dom.stats().verlet_rebuilds, 3u);
}

/// Shape of the Verlet list for cut-off `cutoff` at mc's positions, by the
/// reference builder: every domain pair in turn opens a run at (i, j) when
/// the row changes or j - j_base would pass 65,535 (unsigned, so a j below
/// the base opens one too), replacing the previous run if it is still
/// empty, and is listed when within the padded cut-off.
struct ListShape {
  std::size_t items = 0, runs = 0;
};
ListShape reference_shape(const std::vector<opal::PairIdx>& domain,
                          const opal::MolecularComplex& mc, double cutoff) {
  struct Run {
    std::uint32_t i, j_base;
    std::size_t begin;
  };
  const double skin = 0.3 * cutoff;
  const double padded2 = (cutoff + skin) * (cutoff + skin);
  std::vector<Run> runs;
  std::size_t items = 0;
  for (const opal::PairIdx& pr : domain) {
    if (runs.empty() || runs.back().i != pr.i ||
        pr.j - runs.back().j_base > 0xFFFFu) {
      if (runs.empty() || runs.back().begin != items) runs.emplace_back();
      runs.back() = Run{pr.i, pr.j, items};
    }
    const opal::Vec3& a = mc.centers[pr.i].position;
    const opal::Vec3& b = mc.centers[pr.j].position;
    const double dx = a.x - b.x, dy = a.y - b.y, dz = a.z - b.z;
    if (dx * dx + dy * dy + dz * dz <= padded2) ++items;
  }
  return {items, runs.size()};
}

void expect_reference_shape(const opal::ServerDomain& dom,
                            const opal::MolecularComplex& mc, double cutoff) {
  const ListShape want = reference_shape(dom.domain(), mc, cutoff);
  EXPECT_EQ(dom.verlet_items(), want.items);
  EXPECT_EQ(dom.verlet_runs(), want.runs);
}

TEST(CellListEquivalence, AdoptedSegmentReopensTheOpenRow) {
  // The domain ends inside row 1, whose run is based at j = 3; the adopted
  // segment starts in that same row at j = 2, so j - j_base wraps and must
  // open a run of its own rather than extend the open one.  Centers on a
  // line 1 A apart, cut-off 2.5 (padded 3.25): near pairs are active, the
  // rest not.
  opal::MolecularComplex mc;
  mc.name = "line";
  mc.centers.resize(12);
  for (std::size_t k = 0; k < mc.n(); ++k) {
    mc.centers[k].position = {static_cast<double>(k), 0.0, 0.0};
  }
  const double cutoff = 2.5;
  opal::ServerDomain dom(std::vector<opal::PairIdx>{
      {0, 1}, {0, 3}, {0, 6}, {1, 3}, {1, 7}, {1, 9}});
  expect_paths_identical(dom, mc, cutoff);
  dom.adopt(std::vector<opal::PairIdx>{{1, 2}, {1, 4}, {1, 11}, {2, 4},
                                       {5, 6}});
  expect_paths_identical(dom, mc, cutoff);  // rebuild
  expect_paths_identical(dom, mc, cutoff);  // filter over the runs
  EXPECT_EQ(dom.stats().verlet_rebuilds, 2u);
  const auto active = snapshot(dom);
  const std::vector<opal::PairIdx> want{{0, 1}, {1, 3}, {1, 2}, {2, 4},
                                        {5, 6}};
  EXPECT_EQ(active, want);
  // Listed: those and (0, 3), (1, 4), in runs (0, 1), (1, 3) and the
  // adopted (1, 2), (2, 4), (5, 6).
  EXPECT_EQ(dom.verlet_runs(), 5u);
  EXPECT_EQ(dom.verlet_items(), 7u);
  expect_reference_shape(dom, mc, cutoff);
}

TEST(CellListEquivalence, ListShapeMatchesReferenceBuilder) {
  // Hashed p = 7 domains as the workloads build them, before and after an
  // adoption: the rebuilt list holds as many items and runs as the
  // reference builder makes.
  const auto mc = test_complex(150, 300, 42);
  const double cutoff = 8.0;
  auto domains =
      opal::build_domains(static_cast<std::uint32_t>(mc.n()), 7,
                          opal::DistributionStrategy::PseudoRandomHistorical,
                          1);
  for (int s = 0; s < 7; ++s) {
    SCOPED_TRACE("server " + std::to_string(s));
    opal::ServerDomain dom(domains[s]);
    expect_paths_identical(dom, mc, cutoff);
    EXPECT_GT(dom.verlet_runs(), 1u);
    expect_reference_shape(dom, mc, cutoff);
    dom.adopt(domains[(s + 3) % 7]);
    expect_paths_identical(dom, mc, cutoff);
    expect_reference_shape(dom, mc, cutoff);
  }
}

TEST(CellListEquivalence, RowPastOffset65535SplitsItsRun) {
  // The list stores j as a 16-bit offset from its run's base, so a row
  // whose listed j's span more than 65,535 must be split into runs.  Far
  // apart centers on a line, with a hand-placed cluster around center 0
  // (cut-off 5, padded 6.5): row 0 lists j = 1 and j = 65537, one past the
  // reach of a run based at 1.  A truncated offset turns (0, 65537) into a
  // second (0, 1), and a missing split does the same.
  const double cutoff = 5.0;
  opal::MolecularComplex mc;
  mc.name = "wide rows";
  mc.centers.resize(70'000);
  for (std::size_t k = 0; k < mc.n(); ++k) {
    mc.centers[k].position = {50.0 * static_cast<double>(k), 0.0, 0.0};
  }
  const std::pair<std::uint32_t, opal::Vec3> cluster[] = {
      {0, {0.0, 0.0, 0.0}},       {1, {1.0, 0.0, 0.0}},
      {2, {0.0, 5.5, 0.0}},       {3, {0.0, 0.0, 8.0}},
      {40000, {-2.0, 0.0, 0.0}},  {65535, {0.0, -3.0, 0.0}},
      {65536, {0.0, 0.0, -4.5}},  {65537, {3.0, 3.0, 0.0}},
      {65538, {6.0, 0.0, 0.0}},   {69998, {0.0, 0.0, 20.0}},
      {69999, {-3.0, -3.0, -1.0}},
  };
  for (const auto& [k, r] : cluster) mc.centers[k].position = r;
  std::vector<opal::PairIdx> domain;
  for (std::uint32_t j :
       {1u, 2u, 3u, 40000u, 65535u, 65536u, 65537u, 65538u, 69998u, 69999u}) {
    domain.push_back({0, j});
  }
  for (std::uint32_t j : {2u, 65537u, 69999u}) domain.push_back({1, j});
  for (std::uint32_t j : {65537u, 69999u}) domain.push_back({65536, j});
  opal::ServerDomain dom(domain);

  expect_paths_identical(dom, mc, cutoff);  // rebuild: sweeps the domain
  expect_paths_identical(dom, mc, cutoff);  // filter: reads the runs
  const auto active = snapshot(dom);
  EXPECT_NE(std::find(active.begin(), active.end(), opal::PairIdx{0, 65537}),
            active.end());
  EXPECT_EQ(std::count(active.begin(), active.end(), opal::PairIdx{0, 1}), 1);

  // Center 2 moves less than skin/2 into the cut-off: the list still
  // serves, and the filter must now emit (0, 2) as well.
  mc.centers[2].position.y = 4.9;
  expect_paths_identical(dom, mc, cutoff);
  EXPECT_EQ(dom.stats().verlet_rebuilds, 1u);
  EXPECT_EQ(dom.active_size(), active.size() + 1);
}

TEST(CellListEquivalence, MovingPositionsRevalidateVerletList) {
  // Exercise the Verlet displacement logic of both list shapes — the
  // serial full triangle (p = 1) and a domain subset (p = 3): move centers
  // between updates, both within and beyond skin/2, and require exact
  // equality with brute force after every move.
  for (int p : {1, 3}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    auto mc = test_complex(120, 240, 8);
    const auto n = static_cast<std::uint32_t>(mc.n());
    const double cutoff = 4.0;
    const double h = half_skin(cutoff);
    auto domains =
        opal::build_domains(n, p, opal::DistributionStrategy::RowCyclic, 1);
    opal::ServerDomain dom(std::move(domains[0]));
    util::Xoshiro256 rng(123);
    expect_paths_identical(dom, mc, cutoff);
    ASSERT_EQ(dom.stats().verlet_rebuilds, 1u);
    for (int round = 0; round < 6; ++round) {
      // Rounds alternate small jitter (|move| <= sqrt(3)/4 * skin/2, the
      // list stays valid) and a large kick (forces a rebuild).
      const bool kick = round % 2 == 1;
      const double amp = kick ? 4.0 * h : 0.25 * h;
      for (auto& c : mc.centers) {
        c.position.x += rng.uniform(-amp, amp);
        c.position.y += rng.uniform(-amp, amp);
        c.position.z += rng.uniform(-amp, amp);
      }
      SCOPED_TRACE("round " + std::to_string(round));
      const std::uint64_t before = dom.stats().verlet_rebuilds;
      expect_paths_identical(dom, mc, cutoff);
      EXPECT_EQ(dom.stats().verlet_rebuilds, before + (kick ? 1u : 0u));
    }
  }
}

TEST(CellListEquivalence, EdgeCases) {
  // Cutoff larger than the bounding box: the list holds every pair, and
  // the second update is its filter.
  {
    const auto mc = test_complex(100, 200, 13);
    auto domains =
        opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                            opal::DistributionStrategy::RowCyclic, 1);
    opal::ServerDomain dom(std::move(domains[0]));
    expect_paths_identical(dom, mc, 1e6);
    expect_paths_identical(dom, mc, 1e6);
    EXPECT_EQ(dom.stats().verlet_rebuilds, 1u);
    EXPECT_EQ(dom.active_size(), dom.domain_size());
  }
  // Tiny complex (n = 2): a domain of one pair.
  {
    const auto mc = test_complex(2, 0, 21);
    opal::ServerDomain dom(
        std::move(opal::build_domains(2, 1,
                                      opal::DistributionStrategy::RowCyclic,
                                      1)[0]));
    expect_paths_identical(dom, mc, 5.0);
    expect_paths_identical(dom, mc, 5.0);
    EXPECT_EQ(dom.stats().verlet_rebuilds, 1u);
  }
  // No cut-off: the list is not materialized on either path.
  {
    const auto mc = test_complex(50, 100, 34);
    opal::ServerDomain dom(
        std::move(opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                                      opal::DistributionStrategy::Folded,
                                      1)[0]));
    const auto checked = dom.update(mc, -1.0, opal::PairUpdatePath::Auto);
    EXPECT_EQ(checked, dom.domain_size());
    EXPECT_EQ(dom.stats().updates, 0u);
    EXPECT_EQ(dom.stats().verlet_rebuilds, 0u);
    EXPECT_EQ(dom.active().size(), dom.domain_size());
  }
}

TEST(CellListEquivalence, AllCentersInOneCell) {
  // Every center inside one cut-off sphere: the list holds the whole
  // triangle, the filter keeps all of it, and both match brute force.
  auto mc = test_complex(40, 80, 17);
  for (auto& c : mc.centers) {
    c.position.x *= 0.05;
    c.position.y *= 0.05;
    c.position.z *= 0.05;
  }
  auto domains = opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                                     opal::DistributionStrategy::RowCyclic, 1);
  opal::ServerDomain dom(std::move(domains[0]));
  expect_paths_identical(dom, mc, 8.0);
  EXPECT_EQ(dom.active_size(), dom.domain_size());  // all pairs in range
  expect_paths_identical(dom, mc, 8.0);
  EXPECT_EQ(dom.stats().verlet_rebuilds, 1u);
}

TEST(CellListEquivalence, ZeroAndOneCenterDomains) {
  // Degenerate complexes: no pairs exist, both paths must produce an empty
  // active list, and the list (built once, empty) serves the Auto updates.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}}) {
    opal::MolecularComplex mc;
    mc.name = "degenerate";
    for (std::size_t i = 0; i < n; ++i) {
      opal::MassCenter c;
      c.position = {static_cast<double>(i), 0.0, 0.0};
      c.mass = 12.0;
      mc.centers.push_back(c);
    }
    opal::ServerDomain dom;  // empty domain — no pairs to assign
    SCOPED_TRACE("n = " + std::to_string(n));
    for (auto path : {opal::PairUpdatePath::Brute, opal::PairUpdatePath::Auto,
                      opal::PairUpdatePath::Auto}) {
      const auto checked = dom.update(mc, 5.0, path);
      EXPECT_EQ(checked, 0u);
      EXPECT_EQ(dom.active_size(), 0u);
    }
    EXPECT_EQ(dom.stats().cell_updates, 2u);
    EXPECT_EQ(dom.stats().verlet_rebuilds, 1u);
  }
}

TEST(CellListEquivalence, ExactSkinBoundaryDisplacement) {
  // The Verlet list stays valid while every center is within skin/2 of its
  // reference; the rebuild trigger is strictly "moved MORE than skin/2".
  // Park one center exactly at the boundary, then a hair past it — the
  // active list must equal brute force on both sides of the trigger, and
  // only the second move may rebuild.  Both list shapes.
  for (int p : {1, 3}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    auto mc = test_complex(110, 220, 23);
    const double cutoff = 4.0;
    const double h = half_skin(cutoff);
    auto domains =
        opal::build_domains(static_cast<std::uint32_t>(mc.n()), p,
                            opal::DistributionStrategy::RowCyclic, 1);
    opal::ServerDomain dom(std::move(domains[0]));
    // Reference x = 0 makes the boundary displacement exactly h.
    mc.centers[5].position.x = 0.0;
    expect_paths_identical(dom, mc, cutoff);  // builds the reference list
    ASSERT_EQ(dom.stats().verlet_rebuilds, 1u);

    mc.centers[5].position.x = h;  // exactly at the boundary
    expect_paths_identical(dom, mc, cutoff);
    EXPECT_EQ(dom.stats().verlet_rebuilds, 1u);

    mc.centers[5].position.x += 1e-9;  // past it: rebuild must fire
    expect_paths_identical(dom, mc, cutoff);
    EXPECT_EQ(dom.stats().verlet_rebuilds, 2u);

    // A displacement spanning several skins (a center leaves its old cell
    // neighborhood entirely).
    mc.centers[7].position.y += 4.0 * h;
    expect_paths_identical(dom, mc, cutoff);
    EXPECT_EQ(dom.stats().verlet_rebuilds, 3u);
  }
}

TEST(CellListEquivalence, NonFiniteCoordinatesRebuildEveryUpdate) {
  // A NaN or infinite position fails every distance test it enters, on both
  // paths alike, and counts as moved past the skin: the list must rebuild
  // on each update and still match brute force, for the full triangle and
  // for subset domains.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto mc = test_complex(100, 200, 29);
    mc.centers[3].position.x = bad;
    mc.centers[200].position.z = -bad;
    const auto n = static_cast<std::uint32_t>(mc.n());
    for (int p : {1, 7}) {
      auto domains = opal::build_domains(
          n, p, opal::DistributionStrategy::PseudoRandomHistorical, 1);
      for (int s = 0; s < p; ++s) {
        SCOPED_TRACE("bad=" + std::to_string(bad) + ", p=" +
                     std::to_string(p) + ", server " + std::to_string(s));
        opal::ServerDomain dom(std::move(domains[s]));
        expect_paths_identical(dom, mc, 8.0);
        expect_paths_identical(dom, mc, 8.0);
        EXPECT_EQ(dom.stats().verlet_rebuilds, 2u);
      }
    }
  }
}

TEST(CellListEquivalence, UpdateStatsCountPathsTaken) {
  const auto mc = test_complex(150, 300, 41);
  const double cutoff = 5.0;
  auto domains = opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                                     opal::DistributionStrategy::RowCyclic, 1);
  opal::ServerDomain dom(std::move(domains[0]));
  EXPECT_EQ(dom.stats().updates, 0u);

  dom.update(mc, cutoff, opal::PairUpdatePath::Brute);
  EXPECT_EQ(dom.stats().updates, 1u);
  EXPECT_EQ(dom.stats().cell_updates, 0u);

  dom.update(mc, cutoff, opal::PairUpdatePath::Auto);
  EXPECT_EQ(dom.stats().updates, 2u);
  EXPECT_EQ(dom.stats().cell_updates, 1u);
  EXPECT_GE(dom.stats().verlet_rebuilds, 1u);

  // No cut-off: not a list update, not counted.
  dom.update(mc, -1.0, opal::PairUpdatePath::Brute);
  EXPECT_EQ(dom.stats().updates, 2u);

  // restore() resets the counters (resumed runs cannot reproduce them)
  // and invalidates the list: the next update rebuilds it.
  dom.restore({dom.domain(), {}, false}, static_cast<std::uint32_t>(mc.n()));
  EXPECT_EQ(dom.stats().updates, 0u);
  EXPECT_EQ(dom.stats().cell_updates, 0u);
  EXPECT_EQ(dom.stats().verlet_rebuilds, 0u);
  dom.update(mc, cutoff, opal::PairUpdatePath::Auto);
  EXPECT_EQ(dom.stats().cell_updates, 1u);
  EXPECT_EQ(dom.stats().verlet_rebuilds, 1u);
}

TEST(CellListEquivalence, VirtualTimeAccountingUnchanged) {
  // update() must report domain_size() pairs checked on every path — the
  // paper's O(n^2/p) model charge does not depend on the host algorithm.
  const auto mc = test_complex(120, 240, 55);
  auto domains = opal::build_domains(static_cast<std::uint32_t>(mc.n()), 2,
                                     opal::DistributionStrategy::Folded, 3);
  opal::ServerDomain dom(std::move(domains[0]));
  const auto brute_charge = dom.update(mc, 8.0, opal::PairUpdatePath::Brute);
  const auto cells_charge = dom.update(mc, 8.0, opal::PairUpdatePath::Auto);
  EXPECT_EQ(brute_charge, dom.domain_size());
  EXPECT_EQ(cells_charge, dom.domain_size());
}

TEST(CellListEquivalence, SerialEngineBitIdenticalAcrossPaths) {
  // End-to-end: a short integrated run must produce bit-identical energies
  // regardless of the host update path (positions feed back into future
  // active lists, so any divergence would compound).
  opal::SimResult results[2];
  int idx = 0;
  for (auto path : {opal::PairUpdatePath::Brute, opal::PairUpdatePath::Auto}) {
    opal::SimulationConfig cfg;
    cfg.steps = 10;
    cfg.cutoff = 8.0;
    cfg.integrate = true;
    cfg.pair_path = path;
    opal::SerialOpal engine(test_complex(120, 240, 99), cfg);
    results[idx++] = engine.run();
  }
  EXPECT_EQ(results[0].evdw, results[1].evdw);
  EXPECT_EQ(results[0].ecoul, results[1].ecoul);
  EXPECT_EQ(results[0].kinetic, results[1].kinetic);
  EXPECT_EQ(results[0].total_energy(), results[1].total_energy());
}

/// Reads counter `key` from a MetricsRegistry JSON snapshot.
std::uint64_t json_counter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no counter " << key;
    return 0;
  }
  return std::stoull(json.substr(at + needle.size()));
}

TEST(CellListEquivalence, DistributedRunBitIdenticalAcrossPaths) {
  // A p = 7 cut-off run: every server's list update goes through its
  // domain-subset Verlet list under Auto, and the run's physics and
  // virtual-time metrics are bit-identical to the brute-force oracle's.
  const auto mc = test_complex(150, 300, 61);
  const double cutoff = 4.0;
  const auto dir = std::filesystem::temp_directory_path();
  opal::ParallelRunResult results[2];
  std::string metrics[2];
  int idx = 0;
  for (auto path : {opal::PairUpdatePath::Brute, opal::PairUpdatePath::Auto}) {
    opal::SimulationConfig cfg;
    cfg.steps = 5;
    cfg.cutoff = cutoff;
    cfg.pair_path = path;
    cfg.metrics_out =
        (dir / ("opalsim_cells_p7_" + std::to_string(idx) + ".json")).string();
    std::filesystem::remove(cfg.metrics_out);
    opal::ParallelOpal par(mach::fast_cops(), mc, 7, cfg);
    results[idx] = par.run();
    std::ifstream in(cfg.metrics_out);
    std::stringstream ss;
    ss << in.rdbuf();
    metrics[idx] = ss.str();
    std::filesystem::remove(cfg.metrics_out);
    ++idx;
  }
  EXPECT_EQ(0, std::memcmp(&results[0].physics, &results[1].physics,
                           sizeof(opal::SimResult)));
  EXPECT_EQ(0, std::memcmp(&results[0].metrics, &results[1].metrics,
                           sizeof(opal::RunMetrics)));
  EXPECT_EQ(json_counter(metrics[0], "cells.updates"), 35u);  // 7 x 5 steps
  EXPECT_EQ(json_counter(metrics[0], "cells.path_taken"), 0u);
  EXPECT_EQ(json_counter(metrics[1], "cells.path_taken"),
            json_counter(metrics[1], "cells.updates"));
  EXPECT_EQ(json_counter(metrics[1], "cells.updates"), 35u);
}

}  // namespace
