#include "opal/parallel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

#include "mach/platforms_db.hpp"
#include "opal/serial.hpp"
#include "util/fatal.hpp"

namespace {

using opalsim::mach::PlatformSpec;
using opalsim::opal::DistributionStrategy;
using opalsim::opal::make_synthetic_complex;
using opalsim::opal::MolecularComplex;
using opalsim::opal::ParallelOpal;
using opalsim::opal::ParallelRunResult;
using opalsim::opal::SerialOpal;
using opalsim::opal::SimResult;
using opalsim::opal::SimulationConfig;
using opalsim::opal::SyntheticSpec;

MolecularComplex tiny_mc(std::uint64_t seed = 42) {
  SyntheticSpec s;
  s.n_solute = 30;
  s.n_water = 60;
  s.seed = seed;
  return make_synthetic_complex(s);
}

void expect_physics_match(const SimResult& a, const SimResult& b,
                          double rel = 1e-9) {
  auto near = [rel](double x, double y) {
    const double scale = std::max({std::abs(x), std::abs(y), 1.0});
    return std::abs(x - y) <= rel * scale;
  };
  EXPECT_TRUE(near(a.evdw, b.evdw)) << a.evdw << " vs " << b.evdw;
  EXPECT_TRUE(near(a.ecoul, b.ecoul)) << a.ecoul << " vs " << b.ecoul;
  EXPECT_TRUE(near(a.bonded.total(), b.bonded.total()));
  EXPECT_TRUE(near(a.temperature, b.temperature));
  EXPECT_TRUE(near(a.pressure, b.pressure));
  EXPECT_DOUBLE_EQ(a.volume, b.volume);
}

// CTest registers each case under its printed GetParam() bytes
// (gtest_discover_tests puts them in place of the index).  Bytes 4-7 used to
// be alignment padding, uninitialised, so the registered names changed with
// every test discovery; `name_tag` fills that slot with the bytes the cases
// were first registered under, so every name is fixed.
struct ParallelCase {
  int servers;
  std::uint32_t name_tag;
  double cutoff;
  int update_every;
  DistributionStrategy strategy;
};
static_assert(sizeof(ParallelCase) ==
                  2 * sizeof(int) + sizeof(std::uint32_t) + sizeof(double) +
                      sizeof(DistributionStrategy),
              "ParallelCase must have no padding: its bytes name the cases");

class SerialParallelEquivalence
    : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(SerialParallelEquivalence, EnergiesMatchSerialReference) {
  const auto& pc = GetParam();
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = pc.cutoff;
  cfg.update_every = pc.update_every;
  cfg.strategy = pc.strategy;

  SerialOpal serial(tiny_mc(), cfg);
  const SimResult want = serial.run();

  ParallelOpal par(opalsim::mach::fast_cops(), tiny_mc(), pc.servers, cfg);
  const ParallelRunResult got = par.run();
  expect_physics_match(got.physics, want);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerialParallelEquivalence,
    ::testing::Values(
        ParallelCase{1, 0x00007FFCu, -1.0, 1,
                     DistributionStrategy::PseudoRandomHistorical},
        ParallelCase{2, 0x0127A084u, -1.0, 1,
                     DistributionStrategy::PseudoRandomHistorical},
        ParallelCase{3, 0u, -1.0, 1, DistributionStrategy::PseudoRandomUniform},
        ParallelCase{4, 0x000055F0u, 8.0, 1,
                     DistributionStrategy::PseudoRandomHistorical},
        ParallelCase{5, 0x000055F0u, 8.0, 2, DistributionStrategy::Folded},
        ParallelCase{7, 0x0127A084u, -1.0, 2, DistributionStrategy::RowCyclic},
        ParallelCase{7, 0u, 8.0, 4, DistributionStrategy::PseudoRandomUniform},
        ParallelCase{6, 0x000055F0u, 8.0, 1,
                     DistributionStrategy::EvenMultiplierBug}));

TEST(ParallelOpal, VirtualTimeDeterministic) {
  SimulationConfig cfg;
  cfg.steps = 3;
  auto run = [&] {
    ParallelOpal par(opalsim::mach::cray_j90(), tiny_mc(), 3, cfg);
    return par.run().metrics.wall;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(ParallelOpal, MetricsAccountForWallClock) {
  SimulationConfig cfg;
  cfg.steps = 3;
  ParallelOpal par(opalsim::mach::cray_j90(), tiny_mc(), 4, cfg);
  const auto r = par.run();
  // In barrier mode every client interval is attributed somewhere.
  EXPECT_NEAR(r.metrics.accounted(), r.metrics.wall,
              0.02 * r.metrics.wall);
}

TEST(ParallelOpal, MoreServersLessParallelTime) {
  SimulationConfig cfg;
  cfg.steps = 2;
  cfg.strategy = DistributionStrategy::PseudoRandomUniform;
  ParallelOpal p1(opalsim::mach::fast_cops(), tiny_mc(), 1, cfg);
  ParallelOpal p4(opalsim::mach::fast_cops(), tiny_mc(), 4, cfg);
  const auto r1 = p1.run();
  const auto r4 = p4.run();
  EXPECT_GT(r1.metrics.tot_par_comp(), 3.0 * r4.metrics.tot_par_comp());
}

TEST(ParallelOpal, CommunicationGrowsWithServers) {
  SimulationConfig cfg;
  cfg.steps = 2;
  ParallelOpal p1(opalsim::mach::fast_cops(), tiny_mc(), 1, cfg);
  ParallelOpal p6(opalsim::mach::fast_cops(), tiny_mc(), 6, cfg);
  const auto r1 = p1.run();
  const auto r6 = p6.run();
  EXPECT_GT(r6.metrics.tot_comm(), 4.0 * r1.metrics.tot_comm());
}

TEST(ParallelOpal, UpdateCommComponentsFollowModelShape) {
  // Update replies carry no data: return_upd must be far smaller than
  // call_upd for a large coordinate payload.
  SyntheticSpec s;
  s.n_solute = 800;
  s.n_water = 1600;
  auto mc = make_synthetic_complex(s);
  SimulationConfig cfg;
  cfg.steps = 2;
  cfg.cutoff = 8.0;  // keep host-side pair work small
  ParallelOpal par(opalsim::mach::slow_cops(), std::move(mc), 3, cfg);
  const auto r = par.run();
  EXPECT_LT(r.metrics.return_upd, 0.5 * r.metrics.call_upd);
  // nbint replies carry gradients (~ same size as coordinates).
  EXPECT_GT(r.metrics.return_nbi, 0.5 * r.metrics.call_nbi);
}

TEST(ParallelOpal, SyncScalesWithUpdatesAndSteps) {
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.update_every = 1;
  ParallelOpal full(opalsim::mach::cray_j90(), tiny_mc(), 2, cfg);
  cfg.update_every = 4;
  ParallelOpal partial(opalsim::mach::cray_j90(), tiny_mc(), 2, cfg);
  const auto rf = full.run();
  const auto rp = partial.run();
  const double b5 = opalsim::mach::cray_j90().sync_time_s;
  // Full update: 2 RPCs/step * 2 b5 = 4 s b5; partial: s + s/4 RPCs.
  EXPECT_NEAR(rf.metrics.sync, 4 * 4 * b5, 1e-9);
  EXPECT_NEAR(rp.metrics.sync, (4 + 1) * 2 * b5, 1e-9);
}

TEST(ParallelOpal, EvenPImbalanceShowsAsIdle) {
  // Needs a compute-dominated regime (fast network, enough pairs) so server
  // skew is visible in the client's wait.
  SyntheticSpec s;
  s.n_solute = 200;
  s.n_water = 400;
  SimulationConfig cfg;
  cfg.steps = 2;
  cfg.strategy = DistributionStrategy::PseudoRandomHistorical;
  ParallelOpal odd(opalsim::mach::fast_cops(), make_synthetic_complex(s), 5,
                   cfg);
  ParallelOpal even(opalsim::mach::fast_cops(), make_synthetic_complex(s), 6,
                    cfg);
  const auto ro = odd.run();
  const auto re = even.run();
  const double idle_frac_odd = ro.metrics.idle / ro.metrics.tot_par_comp();
  const double idle_frac_even = re.metrics.idle / re.metrics.tot_par_comp();
  EXPECT_GT(idle_frac_even, 0.05);
  EXPECT_GT(idle_frac_even, 2.0 * idle_frac_odd);
}

TEST(ParallelOpal, ServerBusyTimesSumNearSerialWork) {
  SimulationConfig cfg;
  cfg.steps = 2;
  cfg.strategy = DistributionStrategy::PseudoRandomUniform;
  ParallelOpal p1(opalsim::mach::cray_j90(), tiny_mc(), 1, cfg);
  ParallelOpal p5(opalsim::mach::cray_j90(), tiny_mc(), 5, cfg);
  const auto r1 = p1.run();
  const auto r5 = p5.run();
  double sum1 = 0, sum5 = 0;
  for (double b : r1.server_busy) sum1 += b;
  for (double b : r5.server_busy) sum5 += b;
  EXPECT_NEAR(sum5, sum1, 0.01 * sum1);  // same total work, p-split
}

TEST(ParallelOpal, PairsCheckedMatchesUpdateSchedule) {
  SimulationConfig cfg;
  cfg.steps = 6;
  cfg.update_every = 3;
  auto mc = tiny_mc();
  const std::uint64_t tri = mc.num_pairs();
  ParallelOpal par(opalsim::mach::fast_cops(), std::move(mc), 3, cfg);
  const auto r = par.run();
  EXPECT_EQ(r.metrics.list_updates, 2u);
  EXPECT_EQ(r.metrics.pairs_checked, 2u * tri);
  EXPECT_EQ(r.metrics.pairs_evaluated, 6u * tri);
}

TEST(ParallelOpal, J90CommunicationDwarfsFastCops) {
  SimulationConfig cfg;
  cfg.steps = 2;
  ParallelOpal j90(opalsim::mach::cray_j90(), tiny_mc(), 4, cfg);
  ParallelOpal fast(opalsim::mach::fast_cops(), tiny_mc(), 4, cfg);
  const auto rj = j90.run();
  const auto rf = fast.run();
  EXPECT_GT(rj.metrics.tot_comm(), 20.0 * rf.metrics.tot_comm());
}

TEST(ParallelOpal, RejectsBadConfig) {
  SimulationConfig cfg;
  EXPECT_THROW(
      ParallelOpal(opalsim::mach::fast_cops(), tiny_mc(), 0, cfg).run(),
      std::invalid_argument);
  cfg.steps = 0;
  EXPECT_THROW(ParallelOpal(opalsim::mach::fast_cops(), tiny_mc(), 2, cfg),
               std::invalid_argument);
}

TEST(ParallelOpal, ConstructorErrorsAreOpalConfigErrors) {
  // No servers, a kill target past the last server, and a kill without
  // fault-tolerant middleware: each names the opal subsystem.
  SimulationConfig no_servers;
  SimulationConfig kill_past_end;
  kill_past_end.kill_server = 2;
  SimulationConfig kill_without_retry;
  kill_without_retry.kill_server = 1;
  kill_without_retry.kill_at_step = 1;
  const std::pair<int, SimulationConfig> cases[] = {
      {0, no_servers}, {2, kill_past_end}, {2, kill_without_retry}};
  for (const auto& [servers, cfg] : cases) {
    try {
      ParallelOpal(opalsim::mach::fast_cops(), tiny_mc(), servers, cfg);
      ADD_FAILURE() << "no error for " << servers << " servers";
    } catch (const opalsim::util::ConfigError& e) {
      EXPECT_EQ(e.subsystem(), "opal") << e.what();
    }
  }
}

TEST(ParallelOpal, RunTwiceThrows) {
  SimulationConfig cfg;
  cfg.steps = 1;
  ParallelOpal par(opalsim::mach::fast_cops(), tiny_mc(), 2, cfg);
  par.run();
  EXPECT_THROW(par.run(), std::logic_error);
}

TEST(ParallelOpal, OverlapModeRunsAndMatchesPhysics) {
  SimulationConfig cfg;
  cfg.steps = 3;
  SerialOpal serial(tiny_mc(), cfg);
  const SimResult want = serial.run();
  ParallelOpal par(opalsim::mach::fast_cops(), tiny_mc(), 3, cfg,
                   opalsim::sciddle::Options{.barrier_mode = false});
  const auto got = par.run();
  expect_physics_match(got.physics, want);
  EXPECT_DOUBLE_EQ(got.metrics.return_nbi, 0.0);  // not separable
}

}  // namespace
