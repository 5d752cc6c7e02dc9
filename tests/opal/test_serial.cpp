#include "opal/serial.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "opal/complex.hpp"
#include "opal/forcefield.hpp"
#include "util/fatal.hpp"

#include "nonbonded_oracle.hpp"

namespace {

using opalsim::opal::make_synthetic_complex;
using opalsim::opal::MolecularComplex;
using opalsim::opal::nbint_kernel;
using opalsim::opal::OpMixes;
using opalsim::opal::SerialOpal;
using opalsim::opal::SimResult;
using opalsim::opal::SimulationConfig;
using opalsim::opal::SyntheticSpec;

MolecularComplex small_mc(std::uint64_t seed = 42) {
  SyntheticSpec s;
  s.n_solute = 40;
  s.n_water = 80;
  s.seed = seed;
  return make_synthetic_complex(s);
}

/// validate() must refuse `cfg` with ConfigError("opal") naming `field`.
void expect_config_error(const SimulationConfig& cfg, const std::string& field) {
  try {
    cfg.validate();
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const opalsim::util::ConfigError& e) {
    EXPECT_EQ(e.subsystem(), "opal");
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(SimulationConfig, RejectsNanOrInfiniteCutoff) {
  SimulationConfig cfg;
  for (const double c : {std::nan(""), HUGE_VAL}) {
    cfg.cutoff = c;
    expect_config_error(cfg, "cutoff");
  }
  // Any cut-off <= 0, -inf included, means "no cut-off".
  cfg.cutoff = -HUGE_VAL;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_FALSE(cfg.has_cutoff());
}

TEST(SimulationConfig, RejectsNonFiniteOrNonPositiveDt) {
  SimulationConfig cfg;
  for (const double dt : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1e-3}) {
    cfg.dt = dt;
    expect_config_error(cfg, "dt");
  }
}

TEST(SimulationConfig, RejectsNonFiniteOrNonPositiveMinStep) {
  SimulationConfig cfg;
  for (const double s : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1e-5}) {
    cfg.min_step = s;
    expect_config_error(cfg, "min_step");
  }
}

TEST(SerialOpal, RunIsDeterministic) {
  SimulationConfig cfg;
  cfg.steps = 5;
  SerialOpal a(small_mc(), cfg);
  SerialOpal b(small_mc(), cfg);
  const SimResult ra = a.run();
  const SimResult rb = b.run();
  EXPECT_DOUBLE_EQ(ra.evdw, rb.evdw);
  EXPECT_DOUBLE_EQ(ra.ecoul, rb.ecoul);
  EXPECT_DOUBLE_EQ(ra.total_energy(), rb.total_energy());
}

TEST(SerialOpal, EnergyIsFiniteAndNonTrivial) {
  SimulationConfig cfg;
  cfg.steps = 3;
  SerialOpal eng(small_mc(), cfg);
  const SimResult r = eng.run();
  EXPECT_TRUE(std::isfinite(r.evdw));
  EXPECT_TRUE(std::isfinite(r.ecoul));
  EXPECT_TRUE(std::isfinite(r.bonded.total()));
  EXPECT_NE(r.evdw, 0.0);
  EXPECT_NE(r.ecoul, 0.0);
  EXPECT_GT(r.volume, 0.0);
}

TEST(SerialOpal, CutoffReducesPairEvaluations) {
  SimulationConfig cfg;
  cfg.steps = 2;
  SerialOpal full(small_mc(), cfg);
  full.run();
  cfg.cutoff = 6.0;
  SerialOpal cut(small_mc(), cfg);
  cut.run();
  EXPECT_LT(cut.pairs_evaluated(), full.pairs_evaluated());
  // Both check the same number of pairs in the update sweep.
  EXPECT_EQ(cut.pairs_checked(), full.pairs_checked());
}

TEST(SerialOpal, PartialUpdateReducesChecks) {
  SimulationConfig cfg;
  cfg.steps = 10;
  cfg.update_every = 1;
  SerialOpal full(small_mc(), cfg);
  full.run();
  cfg.update_every = 10;
  SerialOpal partial(small_mc(), cfg);
  partial.run();
  EXPECT_EQ(full.pairs_checked(), 10u * partial.pairs_checked());
}

TEST(SerialOpal, PairCountsMatchTriangle) {
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.update_every = 1;
  auto mc = small_mc();
  const std::uint64_t tri = mc.num_pairs();
  SerialOpal eng(std::move(mc), cfg);
  eng.run();
  EXPECT_EQ(eng.pairs_checked(), 4u * tri);
  EXPECT_EQ(eng.pairs_evaluated(), 4u * tri);  // no cutoff: all active
}

TEST(SerialOpal, OpsScaleWithWork) {
  SimulationConfig cfg;
  cfg.steps = 1;
  SerialOpal one(small_mc(), cfg);
  one.run();
  cfg.steps = 4;
  SerialOpal four(small_mc(), cfg);
  four.run();
  EXPECT_GT(four.ops().total(), 3 * one.ops().total());
}

TEST(SerialOpal, NoIntegrationKeepsEnergiesConstant) {
  SimulationConfig cfg;
  cfg.steps = 1;
  cfg.integrate = false;
  SerialOpal one(small_mc(), cfg);
  const SimResult r1 = one.run();
  cfg.steps = 7;
  SerialOpal seven(small_mc(), cfg);
  const SimResult r7 = seven.run();
  EXPECT_DOUBLE_EQ(r1.evdw, r7.evdw);
  EXPECT_DOUBLE_EQ(r1.ecoul, r7.ecoul);
}

TEST(SerialOpal, IntegrationMovesAtoms) {
  SimulationConfig cfg;
  cfg.steps = 5;
  cfg.integrate = true;
  auto mc = small_mc();
  const auto before = mc.centers[0].position;
  SerialOpal eng(std::move(mc), cfg);
  eng.run();
  EXPECT_NE(eng.complex().centers[0].position, before);
}

TEST(SerialOpal, TemperatureZeroWithoutMotion) {
  SimulationConfig cfg;
  cfg.steps = 1;
  cfg.integrate = false;
  SerialOpal eng(small_mc(), cfg);
  const SimResult r = eng.run();
  EXPECT_DOUBLE_EQ(r.temperature, 0.0);
  EXPECT_DOUBLE_EQ(r.kinetic, 0.0);
}

TEST(SerialOpal, TemperatureRisesWithMotion) {
  SimulationConfig cfg;
  cfg.steps = 10;
  SerialOpal eng(small_mc(), cfg);
  const SimResult r = eng.run();
  EXPECT_GT(r.temperature, 0.0);
}

TEST(NbintKernel, OpsProportionalToPairs) {
  auto mc = small_mc();
  auto k1 = nbint_kernel(mc, 1000);
  auto k2 = nbint_kernel(mc, 2000);
  EXPECT_EQ(k1.ops, OpMixes::nbint_pair * 1000);
  EXPECT_EQ(k2.ops.total(), 2 * k1.ops.total());
}

TEST(NbintKernel, WrapsAroundTheTriangle) {
  SyntheticSpec s;
  s.n_solute = 5;  // 10 pairs
  auto mc = make_synthetic_complex(s);
  auto k = nbint_kernel(mc, 25);  // 2.5 sweeps
  EXPECT_EQ(k.pairs, 25u);
  EXPECT_TRUE(std::isfinite(k.evdw));
}

TEST(NbintKernel, EnergyOfOneSweepMatchesDirectSum) {
  SyntheticSpec s;
  s.n_solute = 12;
  auto mc = make_synthetic_complex(s);
  auto k = nbint_kernel(mc, 66);  // exactly one sweep of 12*11/2 pairs
  double evdw = 0, ecoul = 0;
  std::vector<opalsim::opal::Vec3> g(mc.n());
  for (std::uint32_t i = 0; i < 12; ++i)
    for (std::uint32_t j = i + 1; j < 12; ++j)
      opalsim::opal::nonbonded_pair(mc, i, j, evdw, ecoul, g);
  // Bit equality: the kernel streams the same pairs in the same order
  // through the batch, which replays the AoS arithmetic exactly.
  EXPECT_EQ(k.evdw, evdw);
  EXPECT_EQ(k.ecoul, ecoul);
}

}  // namespace
