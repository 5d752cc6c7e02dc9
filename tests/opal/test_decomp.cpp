#include "opal/decomp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "mach/platform.hpp"
#include "mach/platforms_db.hpp"
#include "opal/parallel.hpp"
#include "opal/serial.hpp"
#include "sim/fault.hpp"
#include "util/fatal.hpp"

namespace {

using opalsim::opal::call_bytes_per_step;
using opalsim::opal::fd_grid;
using opalsim::opal::make_synthetic_complex;
using opalsim::opal::Method;
using opalsim::opal::MolecularComplex;
using opalsim::opal::ParallelOpal;
using opalsim::opal::SerialOpal;
using opalsim::opal::SimResult;
using opalsim::opal::SimulationConfig;
using opalsim::opal::SyntheticSpec;

MolecularComplex mc_of(std::size_t solute, std::uint64_t seed = 42) {
  SyntheticSpec s;
  s.n_solute = solute;
  s.n_water = 2 * solute;
  s.seed = seed;
  return make_synthetic_complex(s);
}

/// Runs `method` through the library's client/server driver.
opalsim::opal::ParallelRunResult run_method(
    Method method, const opalsim::mach::PlatformSpec& platform,
    MolecularComplex mc, int servers, SimulationConfig cfg) {
  cfg.method = method;
  return ParallelOpal(platform, std::move(mc), servers, cfg).run();
}

TEST(FdGrid, FactorizesNearSquare) {
  EXPECT_EQ(fd_grid(1), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(fd_grid(4), (std::pair<int, int>{2, 2}));
  EXPECT_EQ(fd_grid(6), (std::pair<int, int>{2, 3}));
  EXPECT_EQ(fd_grid(7), (std::pair<int, int>{1, 7}));  // prime: 1 x p
  EXPECT_EQ(fd_grid(12), (std::pair<int, int>{3, 4}));
}

TEST(FdGrid, RejectsNonPositive) {
  EXPECT_THROW(fd_grid(0), std::invalid_argument);
}

TEST(CallBytes, RdScalesLinearlyInP) {
  EXPECT_DOUBLE_EQ(call_bytes_per_step(Method::ReplicatedData, 1000, 4),
                   24.0 * 1000 * 4);
}

TEST(CallBytes, FdHasSqrtPAdvantage) {
  const double rd = call_bytes_per_step(Method::ReplicatedData, 4096, 16);
  const double fd = call_bytes_per_step(Method::ForceDecomposition, 4096, 16);
  // 16 = 4x4 grid: per server 2n/4 vs n -> total 8n vs 16n.
  EXPECT_NEAR(fd / rd, 0.5, 1e-12);
}

TEST(CallBytes, SdBeatsRdForSmallGhosts) {
  const double rd = call_bytes_per_step(Method::ReplicatedData, 4096, 8);
  const double sd =
      call_bytes_per_step(Method::SpaceDecomposition, 4096, 8, 0.05);
  EXPECT_LT(sd, 0.25 * rd);
}

struct DecompCase {
  Method method;
  int servers;
  double cutoff;
  int update_every;
};

class DecompEquivalence : public ::testing::TestWithParam<DecompCase> {};

TEST_P(DecompEquivalence, PhysicsMatchesSerial) {
  const auto& pc = GetParam();
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = pc.cutoff;
  cfg.update_every = pc.update_every;

  SerialOpal serial(mc_of(40), cfg);
  const SimResult want = serial.run();

  const auto got = run_method(pc.method, opalsim::mach::fast_cops(),
                              mc_of(40), pc.servers, cfg);
  const double scale = std::max(1.0, std::abs(want.potential()));
  EXPECT_NEAR(got.physics.potential(), want.potential(), 1e-8 * scale)
      << "evdw " << got.physics.evdw << " vs " << want.evdw << ", ecoul "
      << got.physics.ecoul << " vs " << want.ecoul;
  EXPECT_NEAR(got.physics.temperature, want.temperature,
              1e-8 * std::max(1.0, want.temperature));
}

INSTANTIATE_TEST_SUITE_P(
    MethodsSweep, DecompEquivalence,
    ::testing::Values(
        DecompCase{Method::SpaceDecomposition, 1, -1.0, 1},
        DecompCase{Method::SpaceDecomposition, 3, -1.0, 1},
        DecompCase{Method::SpaceDecomposition, 4, 9.0, 1},
        DecompCase{Method::SpaceDecomposition, 5, 9.0, 2},
        DecompCase{Method::SpaceDecomposition, 7, -1.0, 4},
        DecompCase{Method::ForceDecomposition, 1, -1.0, 1},
        DecompCase{Method::ForceDecomposition, 4, -1.0, 1},
        DecompCase{Method::ForceDecomposition, 6, 9.0, 1},
        DecompCase{Method::ForceDecomposition, 7, 9.0, 2},
        DecompCase{Method::ForceDecomposition, 4, -1.0, 4},
        DecompCase{Method::ReplicatedData, 5, 9.0, 2}),
    [](const auto& info) {
      const auto& c = info.param;
      std::string name = c.method == Method::SpaceDecomposition   ? "SD"
                         : c.method == Method::ForceDecomposition ? "FD"
                                                                  : "RD";
      name += "_p" + std::to_string(c.servers);
      name += c.cutoff > 0 ? "_cut" : "_nocut";
      name += "_u" + std::to_string(c.update_every);
      return name;
    });

TEST(Decomp, PairsEvaluatedConservedAcrossMethods) {
  SimulationConfig cfg;
  cfg.steps = 3;
  cfg.cutoff = 9.0;
  std::uint64_t counts[3];
  int k = 0;
  for (Method m : {Method::ReplicatedData, Method::SpaceDecomposition,
                   Method::ForceDecomposition}) {
    const auto r =
        run_method(m, opalsim::mach::fast_cops(), mc_of(50), 5, cfg);
    counts[k++] = r.metrics.pairs_evaluated;
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);
}

TEST(Decomp, FdShipsFewerBytesThanRd) {
  // FD's total coordinate volume is n(a+b) vs RD's n*p, so the advantage
  // appears for p > 4 (p = 6 -> 2x3 grid -> 5n vs 6n).  Use the fast
  // (bandwidth-dominated) network so call time ~ bytes.
  SimulationConfig cfg;
  cfg.steps = 3;
  auto run_bytes = [&](Method m) {
    const auto r =
        run_method(m, opalsim::mach::fast_cops(), mc_of(400), 6, cfg);
    return r.metrics.call_nbi;
  };
  EXPECT_LT(run_bytes(Method::ForceDecomposition),
            0.93 * run_bytes(Method::ReplicatedData));
}

TEST(Decomp, SdWithCutoffShipsFarFewerBytesThanRd) {
  SimulationConfig cfg;
  cfg.steps = 3;
  cfg.cutoff = 6.0;
  auto run_call_time = [&](Method m) {
    const auto r =
        run_method(m, opalsim::mach::fast_cops(), mc_of(400), 6, cfg);
    return r.metrics.call_nbi;
  };
  EXPECT_LT(run_call_time(Method::SpaceDecomposition),
            0.6 * run_call_time(Method::ReplicatedData));
}

TEST(Decomp, SdUpdateCostLowerWithCutoff) {
  // SD's update sweep only checks own x (own+ghost) pairs, far fewer than
  // the full triangle the RD servers collectively check.
  SimulationConfig cfg;
  cfg.steps = 2;
  cfg.cutoff = 6.0;
  const auto rd = run_method(Method::ReplicatedData,
                             opalsim::mach::fast_cops(), mc_of(150), 4, cfg);
  const auto sd = run_method(Method::SpaceDecomposition,
                             opalsim::mach::fast_cops(), mc_of(150), 4, cfg);
  EXPECT_LT(sd.metrics.pairs_checked, rd.metrics.pairs_checked);
}

TEST(Decomp, DeterministicVirtualTime) {
  SimulationConfig cfg;
  cfg.steps = 2;
  auto once = [&](Method m) {
    return run_method(m, opalsim::mach::smp_cops(), mc_of(40), 3, cfg)
        .metrics.wall;
  };
  EXPECT_DOUBLE_EQ(once(Method::SpaceDecomposition),
                   once(Method::SpaceDecomposition));
  EXPECT_DOUBLE_EQ(once(Method::ForceDecomposition),
                   once(Method::ForceDecomposition));
}

TEST(Decomp, RejectsZeroServers) {
  SimulationConfig cfg;
  cfg.steps = 1;
  EXPECT_THROW(run_method(Method::SpaceDecomposition,
                          opalsim::mach::fast_cops(), mc_of(20), 0, cfg),
               std::invalid_argument);
}

TEST(Decomp, ServerCountErrorsAreOpalConfigErrors) {
  SimulationConfig cfg;
  cfg.steps = 1;
  for (const Method m :
       {Method::SpaceDecomposition, Method::ForceDecomposition}) {
    try {
      run_method(m, opalsim::mach::fast_cops(), mc_of(20), 0, cfg);
      ADD_FAILURE() << "no error for " << opalsim::opal::to_string(m);
    } catch (const opalsim::util::ConfigError& e) {
      EXPECT_EQ(e.subsystem(), "opal") << e.what();
    }
  }
  try {
    fd_grid(-1);
    ADD_FAILURE() << "no error for fd_grid(-1)";
  } catch (const opalsim::util::ConfigError& e) {
    EXPECT_EQ(e.subsystem(), "opal") << e.what();
  }
}

/// One SD or FD run's virtual time, work counts and potential energy, as
/// the separate SD/FD driver computed them before it was folded into
/// ParallelOpal.  Exact (hexfloat): the event sequence must not move.
struct PinnedRun {
  Method method;
  bool slow;  ///< slow CoPs (Ethernet), else fast CoPs (Myrinet)
  int servers;
  double cutoff;
  double wall, comm, idle;
  std::uint64_t pairs_checked, pairs_evaluated;
  double potential;
};

TEST(Decomp, SdFdRunsArePinned) {
  constexpr Method kSd = Method::SpaceDecomposition;
  constexpr Method kFd = Method::ForceDecomposition;
  const PinnedRun pins[] = {
      {kSd, true, 2, -1.0, 0x1.5a89db24019d9p-2, 0x1.0ce650babbe18p-2,
       0x0p+0, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kSd, true, 4, -1.0, 0x1.2abdcaf220175p-1, 0x1.0937a54125f34p-1,
       0x0p+0, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kSd, true, 7, -1.0, 0x1.edb86359f39dp-1, 0x1.cd63cb817332p-1,
       0x0p+0, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kSd, true, 2, 9.0, 0x1.54cd147c4341p-2, 0x1.0ce650babbe18p-2,
       0x0p+0, 32220, 25872, 0x1.fd92c093b6128p+17},
      {kSd, true, 4, 9.0, 0x1.28da9b7a2b75p-1, 0x1.07fd6c189ea3fp-1,
       0x0p+0, 29668, 25872, 0x1.fd92c093b6127p+17},
      {kSd, true, 7, 9.0, 0x1.e9e29026d750fp-1, 0x1.c9d5a187a4a46p-1,
       0x0p+0, 27296, 25872, 0x1.fd92c093b6127p+17},
      {kSd, false, 2, -1.0, 0x1.8ce8ee914109cp-6, 0x1.575fa9fb5841bp-9,
       0x1.a9e920d4bbc53p-8, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kSd, false, 4, -1.0, 0x1.068919821a8a6p-6, 0x1.283d7d80a5f45p-8,
       0x1.ce9ebf0744ff3p-9, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kSd, false, 7, -1.0, 0x1.d557730878909p-7, 0x1.e35752cd2c6ep-8,
       0x1.0a5d0f8415826p-9, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kSd, false, 2, 9.0, 0x1.7faa43fea61f5p-7, 0x1.575fa9fb5841fp-9,
       0x1.a7049d35eb4bap-10, 32220, 25872, 0x1.fd92c093b6128p+17},
      {kSd, false, 4, 9.0, 0x1.21c282183526cp-7, 0x1.18876ead152f8p-8,
       0x1.ab36cb9c3e1fcp-12, 29668, 25872, 0x1.fd92c093b6127p+17},
      {kSd, false, 7, 9.0, 0x1.2c636aee31258p-7, 0x1.b5d53982d88c9p-8,
       0x0p+0, 27296, 25872, 0x1.fd92c093b6127p+17},
      {kFd, true, 2, -1.0, 0x1.7fad218ddae5cp-2, 0x1.148d0e2946d99p-2,
       0x1.d76d221ae2e63p-7, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kFd, true, 4, -1.0, 0x1.33c90bb19f4d1p-1, 0x1.0ceeb4368c3c6p-1,
       0x0p+0, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kFd, true, 7, -1.0, 0x1.05bf7373f655p+0, 0x1.e3f6d8c83bfcap-1,
       0x1.d8066259fc624p-8, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kFd, true, 2, 9.0, 0x1.676767851285p-2, 0x1.148d0e2946d98p-2,
       0x1.99bbc525e7f9ap-8, 32220, 25872, 0x1.fd92c093b6127p+17},
      {kFd, true, 4, 9.0, 0x1.2fa7b23eea70bp-1, 0x1.0ceeb4368c3c6p-1,
       0x0p+0, 32220, 25872, 0x1.fd92c093b6127p+17},
      {kFd, true, 7, 9.0, 0x1.03adb7d4ada7ap+0, 0x1.e3f6d8c83bfcap-1,
       0x1.d39eac7f51afep-9, 32220, 25872, 0x1.fd92c093b6127p+17},
      {kFd, false, 2, -1.0, 0x1.a2652419c0af2p-6, 0x1.b94f891be4a8dp-9,
       0x1.ce2ec21051e53p-8, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kFd, false, 4, -1.0, 0x1.359bba7a9c405p-6, 0x1.57cb09c5c3345p-8,
       0x1.6a1cba2ed463ep-8, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kFd, false, 7, -1.0, 0x1.50352b4c35d5ep-6, 0x1.822597f868141p-7,
       0x1.cec5010ced631p-9, 32220, 64440, 0x1.fd824ef6000c5p+17},
      {kFd, false, 2, 9.0, 0x1.c80c0f31443ap-7, 0x1.b94f891be4aap-9,
       0x1.91b311989d24ap-9, 32220, 25872, 0x1.fd92c093b6127p+17},
      {kFd, false, 4, 9.0, 0x1.700cfaf28ed7ep-7, 0x1.57cb09c5c334dp-8,
       0x1.b76d8a26f2341p-10, 32220, 25872, 0x1.fd92c093b6127p+17},
      {kFd, false, 7, 9.0, 0x1.0f4a190852c99p-6, 0x1.822597f868145p-7,
       0x1.ca7367dc31f4p-10, 32220, 25872, 0x1.fd92c093b6127p+17},
  };
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.update_every = 2;
  for (const PinnedRun& pin : pins) {
    SCOPED_TRACE(to_string(pin.method) + (pin.slow ? ", slow" : ", fast") +
                 ", p = " + std::to_string(pin.servers) +
                 ", cut-off " + std::to_string(pin.cutoff));
    cfg.cutoff = pin.cutoff;
    const auto r = run_method(
        pin.method,
        pin.slow ? opalsim::mach::slow_cops() : opalsim::mach::fast_cops(),
        mc_of(60), pin.servers, cfg);
    EXPECT_EQ(r.metrics.wall, pin.wall);
    EXPECT_EQ(r.metrics.tot_comm(), pin.comm);
    EXPECT_EQ(r.metrics.idle, pin.idle);
    EXPECT_EQ(r.metrics.pairs_checked, pin.pairs_checked);
    EXPECT_EQ(r.metrics.pairs_evaluated, pin.pairs_evaluated);
    EXPECT_EQ(r.physics.potential(), pin.potential);
  }
}

TEST(Decomp, SdFdSmallComplexRunsArePinned) {
  // The 1,500-center complex: large enough that the working set a server
  // charges (local centers, candidates, active list) moves its CPU rate,
  // which the 180-center runs above never leave the cache for.
  constexpr Method kSd = Method::SpaceDecomposition;
  constexpr Method kFd = Method::ForceDecomposition;
  const PinnedRun pins[] = {
      {kSd, false, 2, -1.0, 0x1.c907d923f306dp-1, 0x1.7c8858704b374p-7,
       0x1.2e934d1880c9bp-2, 2248500, 2248500, 0x1.51bbfe3b50ffep+23},
      {kSd, false, 7, -1.0, 0x1.7e87e2ad3d3a8p-2, 0x1.00532fe127873p-5,
       0x1.60aa998be0072p-3, 2248500, 2248500, 0x1.51bbfe3b50fffp+23},
      {kSd, false, 2, 10.0, 0x1.6efd0c41921bp-3, 0x1.5405c9fcc7208p-7,
       0x1.391432d1f9718p-5, 1878108, 213369, 0x1.51beeadcc387fp+23},
      {kSd, false, 7, 10.0, 0x1.07f80892967b3p-4, 0x1.62ad7441f13bfp-6,
       0x1.1026e5303b58p-7, 1432620, 213369, 0x1.51beeadcc387fp+23},
      {kFd, false, 2, -1.0, 0x1.c8d1a7d2d78bcp-1, 0x1.faa66b80c936ap-7,
       0x1.2a2a2a2a2a2a4p-2, 2248500, 2248500, 0x1.51bbfe3b50fffp+23},
      {kFd, false, 7, -1.0, 0x1.78dbbdf61035p-2, 0x1.bb519e10b00a9p-5,
       0x1.26068e7f3c8aap-3, 2248500, 2248500, 0x1.51bbfe3b51p+23},
      {kFd, false, 2, 10.0, 0x1.dffcccfe83ef4p-3, 0x1.faa66b80c932ap-7,
       0x1.2805441941265p-4, 2248500, 213369, 0x1.51beeadcc387fp+23},
      {kFd, false, 7, 10.0, 0x1.13905c6af9358p-3, 0x1.bb519e10b00a8p-5,
       0x1.22e272d9a5e8ep-5, 2248500, 213369, 0x1.51beeadcc387fp+23},
  };
  SimulationConfig cfg;
  cfg.steps = 2;
  for (const PinnedRun& pin : pins) {
    SCOPED_TRACE(to_string(pin.method) + ", p = " +
                 std::to_string(pin.servers) + ", cut-off " +
                 std::to_string(pin.cutoff));
    cfg.cutoff = pin.cutoff;
    const auto r =
        run_method(pin.method, opalsim::mach::fast_cops(),
                   opalsim::opal::make_small_complex(), pin.servers, cfg);
    EXPECT_EQ(r.metrics.wall, pin.wall);
    EXPECT_EQ(r.metrics.tot_comm(), pin.comm);
    EXPECT_EQ(r.metrics.idle, pin.idle);
    EXPECT_EQ(r.metrics.pairs_checked, pin.pairs_checked);
    EXPECT_EQ(r.metrics.pairs_evaluated, pin.pairs_evaluated);
    EXPECT_EQ(r.physics.potential(), pin.potential);
  }
}

/// Expects `run` to throw util::ConfigError("opal") naming `method`.
template <class Run>
void expect_refused(Method method, Run run) {
  try {
    run();
    ADD_FAILURE() << "no error for " << to_string(method);
  } catch (const opalsim::util::ConfigError& e) {
    EXPECT_EQ(e.subsystem(), "opal") << e.what();
    EXPECT_NE(std::string(e.what()).find(to_string(method)),
              std::string::npos)
        << e.what();
  }
}

TEST(Decomp, SdFdRefuseServerKills) {
  opalsim::sciddle::Options ft;
  ft.retry.enabled = true;
  for (const Method m :
       {Method::SpaceDecomposition, Method::ForceDecomposition}) {
    SimulationConfig cfg;
    cfg.steps = 2;
    cfg.kill_server = 1;
    cfg.kill_at_step = 1;
    cfg.method = m;
    expect_refused(m, [&] {
      ParallelOpal(opalsim::mach::fast_cops(), mc_of(20), 3, cfg, ft).run();
    });
    cfg.kill_server = -1;
    expect_refused(m, [&] {
      ParallelOpal(opalsim::mach::fast_cops(), mc_of(20), 3, cfg, ft).run();
    });
  }
}

TEST(Decomp, SdFdRefuseCheckpoints) {
  const std::string image = ::testing::TempDir() + "decomp_refused.img";
  for (const Method m :
       {Method::SpaceDecomposition, Method::ForceDecomposition}) {
    SimulationConfig base;
    base.steps = 2;
    base.method = m;
    SimulationConfig out = base;
    out.checkpoint_out = image;
    out.checkpoint_at_step = 1;
    SimulationConfig every = base;
    every.checkpoint_every_steps = 1;
    SimulationConfig resume = base;
    resume.resume_from = image;
    const auto run = [m](const SimulationConfig& cfg) {
      return [m, cfg] {
        run_method(m, opalsim::mach::fast_cops(), mc_of(20), 2, cfg);
      };
    };
    for (const SimulationConfig& cfg : {out, every, resume}) {
      expect_refused(m, run(cfg));
    }
    ::setenv("OPALSIM_CHECKPOINT", image.c_str(), 1);
    expect_refused(m, run(base));
    ::unsetenv("OPALSIM_CHECKPOINT");
  }
  EXPECT_FALSE(std::filesystem::exists(image));
}

TEST(Decomp, SdFdEndInOpalFatalErrorWhenAServerDies) {
  // The node of server 1 dies mid-run; failover covers RD only, so SD and
  // FD must stop instead of summing a partial round.
  opalsim::sim::FaultSpec fault;
  fault.node_faults.push_back({2, 0.05});
  const auto platform =
      opalsim::mach::with_faults(opalsim::mach::fast_cops(), fault);
  opalsim::sciddle::Options ft;
  ft.retry.enabled = true;
  ft.retry.timeout_s = 0.01;
  ft.retry.heartbeat_timeout_s = 0.01;
  for (const Method m :
       {Method::SpaceDecomposition, Method::ForceDecomposition}) {
    SimulationConfig cfg;
    cfg.steps = 20;
    cfg.method = m;
    try {
      ParallelOpal(platform, mc_of(40), 3, cfg, ft).run();
      ADD_FAILURE() << "no error for " << to_string(m);
    } catch (const opalsim::util::FatalError& e) {
      EXPECT_EQ(e.subsystem(), "opal") << e.what();
      EXPECT_NE(std::string(e.what()).find(to_string(m)), std::string::npos)
          << e.what();
    }
  }
}

TEST(Decomp, ToStringNamesAllMethods) {
  EXPECT_NE(to_string(Method::ReplicatedData).find("RD"), std::string::npos);
  EXPECT_NE(to_string(Method::SpaceDecomposition).find("SD"),
            std::string::npos);
  EXPECT_NE(to_string(Method::ForceDecomposition).find("FD"),
            std::string::npos);
}

}  // namespace
