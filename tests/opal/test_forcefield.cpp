#include "opal/forcefield.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "opal/complex.hpp"

#include "nonbonded_oracle.hpp"

namespace {

using opalsim::opal::Angle;
using opalsim::opal::Bond;
using opalsim::opal::Dihedral;
using opalsim::opal::evaluate_bonded;
using opalsim::opal::Improper;
using opalsim::opal::make_synthetic_complex;
using opalsim::opal::MassCenter;
using opalsim::opal::MolecularComplex;
using opalsim::opal::nonbonded_pair;
using opalsim::opal::SyntheticSpec;
using opalsim::opal::Vec3;
using opalsim::opal::within_cutoff;

MolecularComplex four_atoms(std::vector<Vec3> pos) {
  MolecularComplex mc;
  for (const auto& p : pos) {
    MassCenter c;
    c.position = p;
    c.mass = 12.0;
    c.charge = 0.1;
    c.c12 = 1000.0;
    c.c6 = 10.0;
    mc.centers.push_back(c);
  }
  mc.box_length = 100.0;
  return mc;
}

// Central-difference numerical gradient of an energy functional.
template <typename EnergyFn>
std::vector<Vec3> numerical_gradient(MolecularComplex mc, EnergyFn f,
                                     double h = 1e-6) {
  std::vector<Vec3> g(mc.n());
  for (std::size_t i = 0; i < mc.n(); ++i) {
    for (int d = 0; d < 3; ++d) {
      double* comp = d == 0 ? &mc.centers[i].position.x
                            : (d == 1 ? &mc.centers[i].position.y
                                      : &mc.centers[i].position.z);
      const double orig = *comp;
      *comp = orig + h;
      const double ep = f(mc);
      *comp = orig - h;
      const double em = f(mc);
      *comp = orig;
      const double val = (ep - em) / (2.0 * h);
      if (d == 0) g[i].x = val;
      else if (d == 1) g[i].y = val;
      else g[i].z = val;
    }
  }
  return g;
}

void expect_gradients_match(const std::vector<Vec3>& analytic,
                            const std::vector<Vec3>& numeric,
                            double tol = 1e-4) {
  ASSERT_EQ(analytic.size(), numeric.size());
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    EXPECT_NEAR(analytic[i].x, numeric[i].x, tol) << "atom " << i << " x";
    EXPECT_NEAR(analytic[i].y, numeric[i].y, tol) << "atom " << i << " y";
    EXPECT_NEAR(analytic[i].z, numeric[i].z, tol) << "atom " << i << " z";
  }
}

TEST(NonbondedPair, LjMinimumAtSigmaTimesTwoSixth) {
  // For a pure LJ pair with c12, c6, the minimum is at r* = (2 c12/c6)^(1/6)
  // and V(r*) = -c6^2/(4 c12).
  auto mc = four_atoms({{0, 0, 0}, {3.0, 0, 0}});
  mc.centers[0].charge = mc.centers[1].charge = 0.0;
  const double rstar = std::pow(2.0 * 1000.0 / 10.0, 1.0 / 6.0);
  mc.centers[1].position.x = rstar;
  double evdw = 0, ecoul = 0;
  std::vector<Vec3> g(2);
  nonbonded_pair(mc, 0, 1, evdw, ecoul, g);
  EXPECT_NEAR(evdw, -10.0 * 10.0 / (4.0 * 1000.0), 1e-12);
  EXPECT_DOUBLE_EQ(ecoul, 0.0);
  // At the minimum the gradient vanishes.
  EXPECT_NEAR(g[0].x, 0.0, 1e-10);
}

TEST(NonbondedPair, CoulombMatchesClosedForm) {
  auto mc = four_atoms({{0, 0, 0}, {5.0, 0, 0}});
  mc.centers[0].c12 = mc.centers[1].c12 = 0.0;
  mc.centers[0].c6 = mc.centers[1].c6 = 0.0;
  mc.centers[0].charge = 0.5;
  mc.centers[1].charge = -0.4;
  double evdw = 0, ecoul = 0;
  std::vector<Vec3> g(2);
  nonbonded_pair(mc, 0, 1, evdw, ecoul, g);
  EXPECT_NEAR(ecoul, 332.0636 * 0.5 * -0.4 / 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(evdw, 0.0);
}

TEST(NonbondedPair, GradientMatchesNumerical) {
  auto mc = four_atoms({{0, 0, 0}, {2.8, 1.1, -0.7}});
  std::vector<Vec3> g(2);
  double evdw = 0, ecoul = 0;
  nonbonded_pair(mc, 0, 1, evdw, ecoul, g);
  auto num = numerical_gradient(mc, [](const MolecularComplex& m) {
    double ev = 0, ec = 0;
    std::vector<Vec3> gg(2);
    nonbonded_pair(m, 0, 1, ev, ec, gg);
    return ev + ec;
  });
  expect_gradients_match(g, num, 1e-3);
}

TEST(NonbondedPair, GradientIsTranslationInvariant) {
  auto mc = four_atoms({{1, 2, 3}, {3.5, 2.2, 3.9}});
  std::vector<Vec3> g(2);
  double evdw = 0, ecoul = 0;
  nonbonded_pair(mc, 0, 1, evdw, ecoul, g);
  EXPECT_NEAR(g[0].x + g[1].x, 0.0, 1e-12);
  EXPECT_NEAR(g[0].y + g[1].y, 0.0, 1e-12);
  EXPECT_NEAR(g[0].z + g[1].z, 0.0, 1e-12);
}

TEST(WithinCutoff, BoundaryInclusive) {
  auto mc = four_atoms({{0, 0, 0}, {3, 4, 0}});  // distance 5
  EXPECT_TRUE(within_cutoff(mc, 0, 1, 25.0));
  EXPECT_FALSE(within_cutoff(mc, 0, 1, 24.99));
}

TEST(BondEnergy, HarmonicClosedForm) {
  auto mc = four_atoms({{0, 0, 0}, {2.0, 0, 0}});
  Bond b{0, 1, 100.0, 1.5};
  std::vector<Vec3> g(2);
  const double e = bond_energy(mc, b, g);
  EXPECT_NEAR(e, 0.5 * 100.0 * 0.25, 1e-12);
  EXPECT_NEAR(g[0].x, -100.0 * 0.5, 1e-12);  // pulls atoms together
  EXPECT_NEAR(g[1].x, 100.0 * 0.5, 1e-12);
}

TEST(BondEnergy, ZeroAtRestLength) {
  auto mc = four_atoms({{0, 0, 0}, {1.5, 0, 0}});
  Bond b{0, 1, 100.0, 1.5};
  std::vector<Vec3> g(2);
  EXPECT_NEAR(bond_energy(mc, b, g), 0.0, 1e-12);
  EXPECT_NEAR(g[0].norm(), 0.0, 1e-12);
}

TEST(BondEnergy, ZeroLengthBondStaysFiniteAndIsCounted) {
  // Coincident centers: the energy is the finite harmonic value at r = 0,
  // the (0/0-direction) gradient is skipped, and the event is counted.
  auto mc = four_atoms({{1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}});
  Bond b{0, 1, 100.0, 1.5};
  std::vector<Vec3> g(2);
  opalsim::opal::reset_degenerate_bond_events();
  const double e = bond_energy(mc, b, g);
  EXPECT_TRUE(std::isfinite(e));
  EXPECT_NEAR(e, 0.5 * 100.0 * 1.5 * 1.5, 1e-12);
  EXPECT_EQ(g[0].norm(), 0.0);
  EXPECT_EQ(g[1].norm(), 0.0);
  EXPECT_EQ(opalsim::opal::degenerate_bond_events(), 1u);
  bond_energy(mc, b, g);
  EXPECT_EQ(opalsim::opal::degenerate_bond_events(), 2u);
  // A regular bond does not bump the counter.
  mc.centers[1].position.x += 1.3;
  bond_energy(mc, b, g);
  EXPECT_EQ(opalsim::opal::degenerate_bond_events(), 2u);
  opalsim::opal::reset_degenerate_bond_events();
  EXPECT_EQ(opalsim::opal::degenerate_bond_events(), 0u);
}

TEST(ImproperEnergy, WildReferenceAngleWrapsInConstantTime) {
  // xi0 far outside [-pi, pi]: wrap_angle uses std::remainder, so the
  // difference lands in [-pi, pi] in O(1) (the former while-loop subtracted
  // 2*pi at a time and effectively hung on inputs like this one).
  auto mc = four_atoms(
      {{0.3, 0.9, 0.1}, {0, 0, 0}, {1.2, 0.2, -0.3}, {1.1, -1.0, 0.5}});
  Improper im{0, 1, 2, 3, 10.0, 1.0e9};
  std::vector<Vec3> g(4);
  const double e = improper_energy(mc, im, g);
  EXPECT_TRUE(std::isfinite(e));
  // With the wrapped difference in [-pi, pi], 0 <= V <= 1/2 K pi^2.
  EXPECT_GE(e, 0.0);
  EXPECT_LE(e, 0.5 * 10.0 * std::numbers::pi * std::numbers::pi + 1e-9);
}

TEST(ImproperEnergy, WrapIsExactForSmallAngles) {
  // For |xi - xi0| <= pi no wrapping occurs: shifting xi0 by a full 2*pi
  // turn must give the identical energy (std::remainder is exact).
  auto mc = four_atoms(
      {{0.3, 0.9, 0.1}, {0, 0, 0}, {1.2, 0.2, -0.3}, {1.1, -1.0, 0.5}});
  std::vector<Vec3> g(4);
  Improper base{0, 1, 2, 3, 10.0, 0.3};
  Improper turned{0, 1, 2, 3, 10.0, 0.3 + 2.0 * std::numbers::pi};
  const double e0 = improper_energy(mc, base, g);
  const double e1 = improper_energy(mc, turned, g);
  EXPECT_NEAR(e0, e1, 1e-9);
}

TEST(AngleEnergy, RightAngleClosedForm) {
  auto mc = four_atoms({{1, 0, 0}, {0, 0, 0}, {0, 1, 0}});
  const double theta0 = 109.5 * std::numbers::pi / 180.0;
  Angle a{0, 1, 2, 20.0, theta0};
  std::vector<Vec3> g(3);
  const double e = angle_energy(mc, a, g);
  const double dt = std::numbers::pi / 2.0 - theta0;
  EXPECT_NEAR(e, 0.5 * 20.0 * dt * dt, 1e-12);
}

TEST(AngleEnergy, GradientMatchesNumerical) {
  auto mc = four_atoms({{1.2, 0.1, 0}, {0, 0, 0.3}, {-0.2, 1.4, 0}});
  Angle a{0, 1, 2, 20.0, 1.9};
  std::vector<Vec3> g(3);
  angle_energy(mc, a, g);
  auto num = numerical_gradient(mc, [&a](const MolecularComplex& m) {
    std::vector<Vec3> gg(3);
    return angle_energy(m, a, gg);
  });
  expect_gradients_match(g, num, 1e-4);
}

TEST(DihedralEnergy, PlanarTransIsMinimumForN3Delta0) {
  // phi = pi (trans): V = K (1 + cos(3 pi)) = 0 for delta = 0.
  auto mc = four_atoms({{0, 1, 0}, {0, 0, 0}, {1, 0, 0}, {1, -1, 0}});
  Dihedral d{0, 1, 2, 3, 0.5, 0.0, 3};
  std::vector<Vec3> g(4);
  const double e = dihedral_energy(mc, d, g);
  EXPECT_NEAR(e, 0.0, 1e-9);
}

TEST(DihedralEnergy, GradientMatchesNumerical) {
  auto mc = four_atoms(
      {{0.1, 1.0, 0.2}, {0, 0, 0}, {1.4, 0.1, -0.2}, {1.5, -1.2, 0.4}});
  Dihedral d{0, 1, 2, 3, 0.5, 0.7, 3};
  std::vector<Vec3> g(4);
  dihedral_energy(mc, d, g);
  auto num = numerical_gradient(mc, [&d](const MolecularComplex& m) {
    std::vector<Vec3> gg(4);
    return dihedral_energy(m, d, gg);
  });
  expect_gradients_match(g, num, 1e-4);
}

TEST(DihedralEnergy, GradientSumVanishes) {
  auto mc = four_atoms(
      {{0.1, 1.0, 0.2}, {0, 0, 0}, {1.4, 0.1, -0.2}, {1.5, -1.2, 0.4}});
  Dihedral d{0, 1, 2, 3, 0.5, 0.7, 3};
  std::vector<Vec3> g(4);
  dihedral_energy(mc, d, g);
  Vec3 sum = g[0] + g[1] + g[2] + g[3];
  EXPECT_NEAR(sum.norm(), 0.0, 1e-10);
}

TEST(ImproperEnergy, GradientMatchesNumerical) {
  auto mc = four_atoms(
      {{0.3, 0.9, 0.1}, {0, 0, 0}, {1.2, 0.2, -0.3}, {1.1, -1.0, 0.5}});
  Improper im{0, 1, 2, 3, 10.0, 0.3};
  std::vector<Vec3> g(4);
  improper_energy(mc, im, g);
  auto num = numerical_gradient(mc, [&im](const MolecularComplex& m) {
    std::vector<Vec3> gg(4);
    return improper_energy(m, im, gg);
  });
  expect_gradients_match(g, num, 1e-4);
}

TEST(EvaluateBonded, SumsAllTermsAndCountsOps) {
  SyntheticSpec s;
  s.n_solute = 20;
  s.n_water = 5;
  auto mc = make_synthetic_complex(s);
  std::vector<Vec3> g(mc.n());
  opalsim::hpm::OpCounts ops;
  auto e = evaluate_bonded(mc, g, &ops);
  EXPECT_GT(e.total(), 0.0);
  EXPECT_GT(ops.total(), 0u);
  // Op count proportional to term counts.
  opalsim::hpm::OpCounts expected;
  expected += opalsim::opal::OpMixes::bond_term * mc.bonds.size();
  expected += opalsim::opal::OpMixes::angle_term * mc.angles.size();
  expected += opalsim::opal::OpMixes::dihedral_term * mc.dihedrals.size();
  expected += opalsim::opal::OpMixes::improper_term * mc.impropers.size();
  EXPECT_EQ(ops, expected);
}

TEST(EvaluateBonded, WholeGradientMatchesNumerical) {
  SyntheticSpec s;
  s.n_solute = 8;
  s.n_water = 0;
  auto mc = make_synthetic_complex(s);
  std::vector<Vec3> g(mc.n());
  evaluate_bonded(mc, g);
  auto num = numerical_gradient(mc, [](const MolecularComplex& m) {
    std::vector<Vec3> gg(m.n());
    return evaluate_bonded(m, gg).total();
  });
  expect_gradients_match(g, num, 5e-3);
}

}  // namespace
