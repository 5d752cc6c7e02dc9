// End-to-end fault tolerance of the parallel Opal: message loss and a
// mid-run server crash must not change the physics — only the (virtual)
// time it takes to compute it.
#include <gtest/gtest.h>

#include <cmath>

#include "mach/platforms_db.hpp"
#include "opal/parallel.hpp"
#include "opal/serial.hpp"
#include "sim/fault.hpp"

namespace {

using opalsim::mach::PlatformSpec;
using opalsim::mach::with_faults;
using opalsim::opal::make_medium_complex;
using opalsim::opal::make_small_complex;
using opalsim::opal::ParallelOpal;
using opalsim::opal::ParallelRunResult;
using opalsim::opal::SerialOpal;
using opalsim::opal::SimResult;
using opalsim::opal::SimulationConfig;
using opalsim::sim::FaultSpec;

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

opalsim::sciddle::Options ft_middleware() {
  opalsim::sciddle::Options opts;
  opts.retry.enabled = true;
  opts.retry.timeout_s = 2.0;
  opts.retry.heartbeat_timeout_s = 2.0;
  return opts;
}

// The PR's acceptance scenario: medium complex, 10 Angstrom cut-off, four
// servers, 2% message loss, and server 2 crashing as step 5 begins.  The
// run must complete and the final energies must match the serial reference
// to 1e-9 relative — loss, retries and failover change timing, never
// physics.
TEST(OpalFaultTolerance, LossAndMidRunCrashPreservePhysics) {
  SimulationConfig cfg;
  cfg.steps = 8;
  cfg.cutoff = 10.0;
  cfg.update_every = 2;

  SerialOpal serial(make_medium_complex(), cfg);
  const SimResult want = serial.run();

  FaultSpec fault;
  fault.seed = 7;
  fault.drop_rate = 0.02;
  cfg.kill_server = 2;
  cfg.kill_at_step = 5;
  ParallelOpal par(with_faults(opalsim::mach::fast_cops(), fault),
                   make_medium_complex(), 4, cfg, ft_middleware());
  const ParallelRunResult got = par.run();

  expect_physics_match(got.physics, want);
  EXPECT_EQ(got.metrics.servers_failed, 1u);
  EXPECT_EQ(got.metrics.failovers, 1u);
  EXPECT_GT(got.metrics.msgs_dropped, 0u);
  EXPECT_GT(got.metrics.retries, 0u);
  EXPECT_GT(got.metrics.recovery, 0.0);
}

TEST(OpalFaultTolerance, PureLossPreservesPhysics) {
  SimulationConfig cfg;
  cfg.steps = 5;
  cfg.cutoff = 8.0;

  SerialOpal serial(make_small_complex(), cfg);
  const SimResult want = serial.run();

  FaultSpec fault;
  fault.seed = 3;
  fault.drop_rate = 0.05;
  fault.corrupt_rate = 0.02;
  fault.duplicate_rate = 0.02;
  ParallelOpal par(with_faults(opalsim::mach::fast_cops(), fault),
                   make_small_complex(), 3, cfg, ft_middleware());
  const ParallelRunResult got = par.run();

  expect_physics_match(got.physics, want);
  // Corruptions did happen (4 with this seed), so the physics match above
  // also proves the delivery checksum caught every corrupted body.
  EXPECT_GT(got.metrics.msgs_corrupted, 0u);
  EXPECT_EQ(got.metrics.servers_failed, 0u);
  EXPECT_EQ(got.metrics.failovers, 0u);
}

TEST(OpalFaultTolerance, FaultsDisabledReproducesSeedTiming) {
  // The fault subsystem must be invisible when off: a fault-tolerant-capable
  // build with no faults and no retry must produce the exact wall time and
  // zeroed robustness counters of the seed configuration.
  SimulationConfig cfg;
  cfg.steps = 3;
  cfg.cutoff = 8.0;
  auto run = [&](opalsim::sciddle::Options opts) {
    ParallelOpal par(opalsim::mach::fast_cops(), make_small_complex(), 3, cfg,
                     opts);
    return par.run();
  };
  const ParallelRunResult plain = run({});
  EXPECT_EQ(plain.metrics.retries, 0u);
  EXPECT_EQ(plain.metrics.msgs_dropped, 0u);
  EXPECT_DOUBLE_EQ(plain.metrics.recovery, 0.0);
  // And a second identical run lands on the identical virtual wall.
  const ParallelRunResult again = run({});
  EXPECT_DOUBLE_EQ(plain.metrics.wall, again.metrics.wall);
}

TEST(OpalFaultTolerance, SameFaultSeedReplaysIdentically) {
  // Determinism under faults: same fault seed => identical virtual
  // completion time and identical retry counters, run to run.
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 8.0;
  cfg.kill_server = 1;
  cfg.kill_at_step = 2;
  auto run = [&](std::uint64_t seed) {
    FaultSpec fault;
    fault.seed = seed;
    fault.drop_rate = 0.03;
    ParallelOpal par(with_faults(opalsim::mach::fast_cops(), fault),
                     make_small_complex(), 3, cfg, ft_middleware());
    return par.run();
  };
  const ParallelRunResult a = run(11);
  const ParallelRunResult b = run(11);
  EXPECT_DOUBLE_EQ(a.metrics.wall, b.metrics.wall);
  EXPECT_EQ(a.metrics.retries, b.metrics.retries);
  EXPECT_EQ(a.metrics.timeouts, b.metrics.timeouts);
  EXPECT_EQ(a.metrics.heartbeats, b.metrics.heartbeats);
  EXPECT_EQ(a.metrics.msgs_dropped, b.metrics.msgs_dropped);
  EXPECT_DOUBLE_EQ(a.metrics.recovery, b.metrics.recovery);
  expect_physics_match(a.physics, b.physics, 0.0);

  const ParallelRunResult c = run(12);
  // Different loss pattern, same physics.
  expect_physics_match(c.physics, a.physics);
  EXPECT_NE(c.metrics.wall, a.metrics.wall);
}

TEST(OpalFaultTolerance, RecoveryKeepsAccountingPartition) {
  // accounted() must still track wall when the recovery phase is in play.
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 8.0;
  cfg.kill_server = 0;
  cfg.kill_at_step = 2;
  FaultSpec fault;
  fault.seed = 9;
  fault.drop_rate = 0.02;
  ParallelOpal par(with_faults(opalsim::mach::fast_cops(), fault),
                   make_small_complex(), 3, cfg, ft_middleware());
  const ParallelRunResult got = par.run();
  EXPECT_GT(got.metrics.recovery, 0.0);
  EXPECT_NEAR(got.metrics.accounted() / got.metrics.wall, 1.0, 0.02);
}

TEST(OpalFaultTolerance, KillingAServerWithoutRetryIsRejected) {
  SimulationConfig cfg;
  cfg.kill_server = 0;
  cfg.kill_at_step = 0;
  EXPECT_THROW(ParallelOpal(opalsim::mach::fast_cops(), make_small_complex(),
                            2, cfg, {}),
               std::invalid_argument);
}

TEST(OpalFaultTolerance, KillServerOutOfRangeIsRejected) {
  SimulationConfig cfg;
  cfg.kill_server = 5;
  cfg.kill_at_step = 0;
  EXPECT_THROW(ParallelOpal(opalsim::mach::fast_cops(), make_small_complex(),
                            3, cfg, ft_middleware()),
               std::invalid_argument);
}

}  // namespace
