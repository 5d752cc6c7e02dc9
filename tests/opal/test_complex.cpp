#include "opal/complex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace {

using opalsim::opal::make_large_complex;
using opalsim::opal::make_medium_complex;
using opalsim::opal::make_small_complex;
using opalsim::opal::make_synthetic_complex;
using opalsim::opal::MolecularComplex;
using opalsim::opal::SyntheticSpec;
using opalsim::opal::Vec3;

TEST(SyntheticComplex, CountsMatchSpec) {
  SyntheticSpec s;
  s.n_solute = 50;
  s.n_water = 150;
  auto mc = make_synthetic_complex(s);
  EXPECT_EQ(mc.n(), 200u);
  EXPECT_EQ(mc.n_solute(), 50u);
  EXPECT_EQ(mc.n_water(), 150u);
  EXPECT_NEAR(mc.gamma(), 0.75, 1e-12);
}

TEST(SyntheticComplex, DensityNearTarget) {
  SyntheticSpec s;
  s.n_solute = 100;
  s.n_water = 300;
  s.density = 0.05;
  auto mc = make_synthetic_complex(s);
  EXPECT_NEAR(mc.density(), 0.05, 1e-9);
}

TEST(SyntheticComplex, ChainTopologyCounts) {
  SyntheticSpec s;
  s.n_solute = 40;
  s.n_water = 10;
  auto mc = make_synthetic_complex(s);
  EXPECT_EQ(mc.bonds.size(), 39u);
  EXPECT_EQ(mc.angles.size(), 38u);
  EXPECT_EQ(mc.dihedrals.size(), 37u);
  EXPECT_EQ(mc.impropers.size(), 4u);  // every 10th dihedral start
}

TEST(SyntheticComplex, NeutralOverall) {
  SyntheticSpec s;
  s.n_solute = 40;
  s.n_water = 25;  // odd water count: generator neutralizes the last one
  auto mc = make_synthetic_complex(s);
  double q = 0.0;
  for (const auto& c : mc.centers) q += c.charge;
  EXPECT_NEAR(q, 0.0, 1e-12);
}

TEST(SyntheticComplex, MinimumSeparationEnforced) {
  SyntheticSpec s;
  s.n_solute = 60;
  s.n_water = 200;
  auto mc = make_synthetic_complex(s);
  double min_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < mc.n(); ++i) {
    for (std::size_t j = i + 1; j < mc.n(); ++j) {
      const Vec3 d = mc.centers[i].position - mc.centers[j].position;
      min_d2 = std::min(min_d2, d.norm2());
    }
  }
  // Jittered lattice: no two centers closer than ~half a cell.
  EXPECT_GT(std::sqrt(min_d2), 0.8);
}

TEST(SyntheticComplex, DeterministicInSeed) {
  SyntheticSpec s;
  s.n_solute = 30;
  s.n_water = 30;
  auto a = make_synthetic_complex(s);
  auto b = make_synthetic_complex(s);
  ASSERT_EQ(a.n(), b.n());
  for (std::size_t i = 0; i < a.n(); ++i) {
    EXPECT_EQ(a.centers[i].position, b.centers[i].position);
  }
}

TEST(SyntheticComplex, DifferentSeedsDiffer) {
  SyntheticSpec s;
  s.n_solute = 30;
  s.n_water = 30;
  auto a = make_synthetic_complex(s);
  s.seed = 43;
  auto b = make_synthetic_complex(s);
  EXPECT_NE(a.centers[0].position, b.centers[0].position);
}

TEST(SyntheticComplex, RejectsEmptyAndBadDensity) {
  SyntheticSpec s;
  EXPECT_THROW(make_synthetic_complex(s), std::invalid_argument);
  s.n_solute = 10;
  s.density = 0.0;
  EXPECT_THROW(make_synthetic_complex(s), std::invalid_argument);
  // A size that wraps n_solute + n_water (a negative CLI --solute) would
  // index past the lattice.
  s.density = 1.0;
  s.n_solute = SIZE_MAX;
  s.n_water = 10;
  EXPECT_THROW(make_synthetic_complex(s), std::invalid_argument);
}

TEST(PaperComplexes, MassCenterCountsMatchPaper) {
  EXPECT_EQ(make_small_complex().n(), 1500u);
  auto med = make_medium_complex();
  EXPECT_EQ(med.n(), 4289u);
  EXPECT_EQ(med.n_solute(), 1575u);
  EXPECT_EQ(med.n_water(), 2714u);
  auto lg = make_large_complex();
  EXPECT_EQ(lg.n(), 6289u);
  EXPECT_EQ(lg.n_solute(), 1655u);
  EXPECT_EQ(lg.n_water(), 4634u);
}

TEST(PaperComplexes, GammaAboveHalf) {
  // Both paper molecules have more waters than atoms.
  EXPECT_GT(make_medium_complex().gamma(), 0.5);
  EXPECT_GT(make_large_complex().gamma(), 0.5);
}

TEST(FlatCoordinates, RoundTrips) {
  SyntheticSpec s;
  s.n_solute = 10;
  s.n_water = 5;
  auto mc = make_synthetic_complex(s);
  auto flat = mc.flat_coordinates();
  ASSERT_EQ(flat.size(), 45u);
  auto mc2 = mc;
  for (auto& c : mc2.centers) c.position = Vec3{};
  mc2.set_flat_coordinates(flat);
  for (std::size_t i = 0; i < mc.n(); ++i) {
    EXPECT_EQ(mc2.centers[i].position, mc.centers[i].position);
  }
}

TEST(FlatCoordinates, SizeMismatchThrows) {
  SyntheticSpec s;
  s.n_solute = 4;
  auto mc = make_synthetic_complex(s);
  EXPECT_THROW(mc.set_flat_coordinates(std::vector<double>(7)),
               std::invalid_argument);
}

TEST(NumPairs, TriangleCount) {
  SyntheticSpec s;
  s.n_solute = 10;
  auto mc = make_synthetic_complex(s);
  EXPECT_EQ(mc.num_pairs(), 45u);
}

}  // namespace
