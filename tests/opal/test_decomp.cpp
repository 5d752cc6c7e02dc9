#include "opal/decomp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mach/platforms_db.hpp"
#include "opal/serial.hpp"
#include "util/fatal.hpp"

namespace {

using opalsim::opal::call_bytes_per_step;
using opalsim::opal::fd_grid;
using opalsim::opal::make_synthetic_complex;
using opalsim::opal::Method;
using opalsim::opal::MolecularComplex;
using opalsim::opal::run_with_method;
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

  const auto got = run_with_method(pc.method, opalsim::mach::fast_cops(),
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
    const auto r = run_with_method(m, opalsim::mach::fast_cops(), mc_of(50),
                                   5, cfg);
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
        run_with_method(m, opalsim::mach::fast_cops(), mc_of(400), 6, cfg);
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
        run_with_method(m, opalsim::mach::fast_cops(), mc_of(400), 6, cfg);
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
  const auto rd = run_with_method(Method::ReplicatedData,
                                  opalsim::mach::fast_cops(), mc_of(150), 4,
                                  cfg);
  const auto sd = run_with_method(Method::SpaceDecomposition,
                                  opalsim::mach::fast_cops(), mc_of(150), 4,
                                  cfg);
  EXPECT_LT(sd.metrics.pairs_checked, rd.metrics.pairs_checked);
}

TEST(Decomp, DeterministicVirtualTime) {
  SimulationConfig cfg;
  cfg.steps = 2;
  auto once = [&](Method m) {
    return run_with_method(m, opalsim::mach::smp_cops(), mc_of(40), 3, cfg)
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
  EXPECT_THROW(run_with_method(Method::SpaceDecomposition,
                               opalsim::mach::fast_cops(), mc_of(20), 0, cfg),
               std::invalid_argument);
}

TEST(Decomp, ServerCountErrorsAreOpalConfigErrors) {
  SimulationConfig cfg;
  cfg.steps = 1;
  for (const Method m :
       {Method::SpaceDecomposition, Method::ForceDecomposition}) {
    try {
      run_with_method(m, opalsim::mach::fast_cops(), mc_of(20), 0, cfg);
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

TEST(Decomp, ToStringNamesAllMethods) {
  EXPECT_NE(to_string(Method::ReplicatedData).find("RD"), std::string::npos);
  EXPECT_NE(to_string(Method::SpaceDecomposition).find("SD"),
            std::string::npos);
  EXPECT_NE(to_string(Method::ForceDecomposition).find("FD"),
            std::string::npos);
}

}  // namespace
