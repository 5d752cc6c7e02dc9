#include "opal/complex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>

#include "util/fatal.hpp"
#include "util/rng.hpp"

namespace opalsim::opal {

std::size_t MolecularComplex::n_water() const noexcept {
  std::size_t w = 0;
  for (const auto& c : centers) w += c.is_water ? 1 : 0;
  return w;
}

double MolecularComplex::gamma() const noexcept {
  return n() == 0 ? 0.0
                  : static_cast<double>(n_water()) / static_cast<double>(n());
}

double MolecularComplex::density() const noexcept {
  const double v = box_length * box_length * box_length;
  return v > 0.0 ? static_cast<double>(n()) / v : 0.0;
}

std::vector<double> MolecularComplex::flat_coordinates() const {
  std::vector<double> flat;
  flat.reserve(3 * n());
  for (const auto& c : centers) {
    flat.push_back(c.position.x);
    flat.push_back(c.position.y);
    flat.push_back(c.position.z);
  }
  return flat;
}

void MolecularComplex::set_flat_coordinates(const std::vector<double>& flat) {
  if (flat.size() != 3 * n())
    throw std::invalid_argument("set_flat_coordinates: size mismatch");
  for (std::size_t i = 0; i < n(); ++i) {
    centers[i].position =
        Vec3{flat[3 * i], flat[3 * i + 1], flat[3 * i + 2]};
  }
}

namespace {

// Standard-ish force-field constants for the synthetic complex.  Values are
// in a kcal/mol-A unit system; their absolute scale is irrelevant to the
// performance study but keeps the dynamics numerically tame.
constexpr double kBondK = 100.0, kBondB0 = 1.5;
constexpr double kAngleK = 20.0;
constexpr double kDihedralK = 0.5;
constexpr double kImproperK = 10.0;
constexpr double kLjEpsilonAtom = 0.15, kLjSigmaAtom = 3.0;
constexpr double kLjEpsilonWater = 0.16, kLjSigmaWater = 3.15;
constexpr double kAtomMass = 13.0;   // average heavy-atom-ish
constexpr double kWaterMass = 18.0;  // single-unit water

double lj_c12(double eps, double sigma) {
  return 4.0 * eps * std::pow(sigma, 12);
}
double lj_c6(double eps, double sigma) {
  return 4.0 * eps * std::pow(sigma, 6);
}

}  // namespace

MolecularComplex make_synthetic_complex(const SyntheticSpec& spec) {
  if (spec.n_solute > SIZE_MAX - spec.n_water)
    throw util::ConfigError("opal", "make_synthetic_complex: size overflows");
  const std::size_t n_total = spec.n_solute + spec.n_water;
  if (n_total == 0)
    throw util::ConfigError("opal", "make_synthetic_complex: empty complex");
  if (spec.density <= 0.0)
    throw util::ConfigError("opal", "make_synthetic_complex: bad density");

  MolecularComplex mc;
  mc.name = spec.name;
  mc.box_length =
      std::cbrt(static_cast<double>(n_total) / spec.density);

  // Jittered-lattice placement: cells guarantee a minimum separation so the
  // initial configuration has no singular LJ contacts.
  const auto cells_per_side = static_cast<std::size_t>(
      std::ceil(std::cbrt(static_cast<double>(n_total))));
  const double cell = mc.box_length / static_cast<double>(cells_per_side);
  const double jitter = 0.2 * cell;

  util::Xoshiro256 rng(spec.seed);

  // Enumerate lattice cells and shuffle so solute/water placement is random.
  std::vector<std::size_t> cell_ids(cells_per_side * cells_per_side *
                                    cells_per_side);
  for (std::size_t i = 0; i < cell_ids.size(); ++i) cell_ids[i] = i;
  for (std::size_t i = cell_ids.size() - 1; i > 0; --i) {
    std::swap(cell_ids[i], cell_ids[rng.below(i + 1)]);
  }

  auto cell_center = [&](std::size_t id) {
    const std::size_t ix = id % cells_per_side;
    const std::size_t iy = (id / cells_per_side) % cells_per_side;
    const std::size_t iz = id / (cells_per_side * cells_per_side);
    return Vec3{(static_cast<double>(ix) + 0.5) * cell,
                (static_cast<double>(iy) + 0.5) * cell,
                (static_cast<double>(iz) + 0.5) * cell};
  };
  auto jittered = [&](std::size_t id) {
    Vec3 p = cell_center(id);
    p.x += rng.uniform(-jitter, jitter);
    p.y += rng.uniform(-jitter, jitter);
    p.z += rng.uniform(-jitter, jitter);
    return p;
  };

  mc.centers.reserve(n_total);
  for (std::size_t i = 0; i < spec.n_solute; ++i) {
    MassCenter c;
    c.position = jittered(cell_ids[i]);
    c.mass = kAtomMass;
    // Alternating partial charges keep the complex neutral overall.
    c.charge = (i % 2 == 0) ? 0.3 : -0.3;
    c.c12 = lj_c12(kLjEpsilonAtom, kLjSigmaAtom);
    c.c6 = lj_c6(kLjEpsilonAtom, kLjSigmaAtom);
    c.is_water = false;
    mc.centers.push_back(c);
  }
  for (std::size_t i = 0; i < spec.n_water; ++i) {
    MassCenter c;
    c.position = jittered(cell_ids[spec.n_solute + i]);
    c.mass = kWaterMass;
    c.charge = (i % 2 == 0) ? 0.1 : -0.1;
    c.c12 = lj_c12(kLjEpsilonWater, kLjSigmaWater);
    c.c6 = lj_c6(kLjEpsilonWater, kLjSigmaWater);
    c.is_water = true;
    mc.centers.push_back(c);
  }
  if (spec.n_water % 2 == 1 && spec.n_water > 0) {
    mc.centers.back().charge = 0.0;  // keep the solvent neutral
  }

  // Chain topology along the solute: consecutive atoms bonded, triples make
  // angles, quadruples make proper dihedrals, every 10th quadruple also an
  // improper (ring/chirality sites in a real protein).
  const auto ns = static_cast<std::uint32_t>(spec.n_solute);
  for (std::uint32_t i = 0; i + 1 < ns; ++i)
    mc.bonds.push_back(Bond{i, i + 1, kBondK, kBondB0});
  const double theta0 = 109.5 * std::numbers::pi / 180.0;
  for (std::uint32_t i = 0; i + 2 < ns; ++i)
    mc.angles.push_back(Angle{i, i + 1, i + 2, kAngleK, theta0});
  for (std::uint32_t i = 0; i + 3 < ns; ++i) {
    mc.dihedrals.push_back(Dihedral{i, i + 1, i + 2, i + 3, kDihedralK,
                                    /*delta=*/0.0, /*multiplicity=*/3});
    if (i % 10 == 0)
      mc.impropers.push_back(Improper{i, i + 1, i + 2, i + 3, kImproperK,
                                      /*xi0=*/0.0});
  }
  return mc;
}

MolecularComplex make_small_complex(std::uint64_t seed) {
  SyntheticSpec s;
  s.name = "small (synthetic, 1500 mass centers)";
  s.n_solute = 504;
  s.n_water = 996;
  s.seed = seed;
  return make_synthetic_complex(s);
}

MolecularComplex make_medium_complex(std::uint64_t seed) {
  SyntheticSpec s;
  s.name = "medium (Antennapedia/DNA-sized, 4289 mass centers)";
  s.n_solute = 1575;
  s.n_water = 2714;
  s.seed = seed;
  return make_synthetic_complex(s);
}

MolecularComplex make_large_complex(std::uint64_t seed) {
  SyntheticSpec s;
  s.name = "large (LFB homeodomain-sized, 6289 mass centers)";
  s.n_solute = 1655;
  s.n_water = 4634;
  s.seed = seed;
  return make_synthetic_complex(s);
}

}  // namespace opalsim::opal
