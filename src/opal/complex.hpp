// The molecular complex: a solute (protein-like chain with full bonded
// topology) immersed in water, with waters treated as single mass centers
// located at the oxygen position — the paper's §2.1 model change that
// reduces server workload and list size.
//
// The paper's complexes (Antennapedia/DNA, LFB homeodomain) are proprietary
// structures; make_synthetic_complex() builds a synthetic equivalent with
// the same mass-center counts, solvent fraction γ and number density — the
// only properties the performance model depends on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "opal/vec3.hpp"

namespace opalsim::opal {

/// Harmonic bond i-j: V = 1/2 Kb (b - b0)^2.
struct Bond {
  std::uint32_t i, j;
  double kb, b0;
};

/// Harmonic angle i-j-k: V = 1/2 Ktheta (theta - theta0)^2.
struct Angle {
  std::uint32_t i, j, k;
  double ktheta, theta0;
};

/// Sinusoidal proper dihedral i-j-k-l: V = Kphi (1 + cos(n phi - delta)).
struct Dihedral {
  std::uint32_t i, j, k, l;
  double kphi, delta;
  int multiplicity;
};

/// Harmonic improper dihedral: V = 1/2 Kxi (xi - xi0)^2.
struct Improper {
  std::uint32_t i, j, k, l;
  double kxi, xi0;
};

/// One mass center: a solute atom or a whole water molecule.
struct MassCenter {
  Vec3 position;
  double mass = 0.0;
  double charge = 0.0;
  double c12 = 0.0;  ///< LJ repulsion coefficient (self term; pairs combine)
  double c6 = 0.0;   ///< LJ dispersion coefficient
  bool is_water = false;
};

class MolecularComplex {
 public:
  std::string name;
  std::vector<MassCenter> centers;
  std::vector<Bond> bonds;
  std::vector<Angle> angles;
  std::vector<Dihedral> dihedrals;
  std::vector<Improper> impropers;
  double box_length = 0.0;  ///< cubic box edge, Angstrom

  std::size_t n() const noexcept { return centers.size(); }
  std::size_t n_water() const noexcept;
  std::size_t n_solute() const noexcept { return n() - n_water(); }

  /// Solvent fraction γ = waters / n (the model parameter).
  double gamma() const noexcept;

  /// Mass-center number density in 1/Angstrom^3.
  double density() const noexcept;

  /// Total number of unordered pairs n(n-1)/2.
  std::uint64_t num_pairs() const noexcept {
    const std::uint64_t nn = n();
    return nn * (nn - 1) / 2;
  }

  /// Positions as a flat coordinate array (x0,y0,z0,x1,...), the wire format
  /// of the client->server coordinate messages (α = 24 bytes per center).
  std::vector<double> flat_coordinates() const;

  /// Overwrites positions from a flat coordinate array.
  void set_flat_coordinates(const std::vector<double>& flat);
};

/// Parameters for the synthetic complex generator.
struct SyntheticSpec {
  std::string name = "synthetic";
  std::size_t n_solute = 0;
  std::size_t n_water = 0;
  /// Target mass-center number density (1/A^3); box is sized from it.
  double density = 0.05;
  std::uint64_t seed = 42;
};

/// Builds a protein-like chain of n_solute atoms (bonds, angles, dihedrals,
/// impropers along the chain) plus n_water single-unit waters, placed on a
/// jittered lattice so no two centers start closer than ~2 A.  Throws
/// util::ConfigError("opal") for an empty complex, sizes whose sum
/// overflows, or a non-positive density.
MolecularComplex make_synthetic_complex(const SyntheticSpec& spec);

/// The paper's three calibration complexes (§2.4/§2.5):
///  small  —  504 atoms +  996 waters = 1500 mass centers (size not given in
///            the paper; chosen between zero and medium)
///  medium — 1575 atoms + 2714 waters = 4289 (Antennapedia homeodomain/DNA)
///  large  — 1655 atoms + 4634 waters = 6289 (LFB homeodomain)
MolecularComplex make_small_complex(std::uint64_t seed = 42);
MolecularComplex make_medium_complex(std::uint64_t seed = 42);
MolecularComplex make_large_complex(std::uint64_t seed = 42);

}  // namespace opalsim::opal
