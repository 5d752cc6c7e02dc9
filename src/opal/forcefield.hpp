// The Opal atomic interaction function V (paper §2.1, eq. for V):
// covalent bond stretching, bond-angle bending, improper (harmonic) and
// proper (sinusoidal) dihedrals, and the nonbonded van der Waals + Coulomb
// pair terms.  Energies are real (serial and parallel evaluations must
// agree); every evaluator also has an architecture-neutral operation mix so
// the machine models can charge virtual time for the same work.
#pragma once

#include <span>

#include "hpm/op_counts.hpp"
#include "opal/complex.hpp"
#include "opal/vec3.hpp"

namespace opalsim::opal {

/// Coulomb prefactor 1/(4 pi eps0 eps_r) in kcal*A/(mol*e^2), eps_r = 1.
inline constexpr double kCoulombConstant = 332.0636;

/// Operation mixes per evaluated term, used for virtual-time charging.
/// The nonbonded pair mix is the paper's dominant kernel (comp_nbint).
struct OpMixes {
  static constexpr hpm::OpCounts nbint_pair{/*add=*/11, /*mul=*/15,
                                            /*div=*/2, /*sqrt=*/1,
                                            /*exp=*/0, /*cmp=*/0};
  /// Pair generation + distance check in the list-update sweep.
  static constexpr hpm::OpCounts update_pair{/*add=*/5, /*mul=*/3,
                                             /*div=*/0, /*sqrt=*/0,
                                             /*exp=*/0, /*cmp=*/1};
  static constexpr hpm::OpCounts bond_term{/*add=*/8, /*mul=*/8,
                                           /*div=*/1, /*sqrt=*/1,
                                           /*exp=*/0, /*cmp=*/0};
  static constexpr hpm::OpCounts angle_term{/*add=*/20, /*mul=*/26,
                                            /*div=*/3, /*sqrt=*/2,
                                            /*exp=*/1, /*cmp=*/0};
  static constexpr hpm::OpCounts dihedral_term{/*add=*/45, /*mul=*/60,
                                               /*div=*/6, /*sqrt=*/3,
                                               /*exp=*/2, /*cmp=*/0};
  static constexpr hpm::OpCounts improper_term{/*add=*/45, /*mul=*/60,
                                               /*div=*/6, /*sqrt=*/3,
                                               /*exp=*/1, /*cmp=*/0};
  /// Per mass center: leapfrog integration step.
  static constexpr hpm::OpCounts integrate_center{/*add=*/6, /*mul=*/6,
                                                  /*div=*/0, /*sqrt=*/0,
                                                  /*exp=*/0, /*cmp=*/0};
  /// Per mass center per server: client-side gradient reduction.
  static constexpr hpm::OpCounts reduce_center{/*add=*/3, /*mul=*/0,
                                               /*div=*/0, /*sqrt=*/0,
                                               /*exp=*/0, /*cmp=*/0};
};

/// Squared-distance check used by the list-update sweep.
inline bool within_cutoff(const MolecularComplex& mc, std::uint32_t i,
                          std::uint32_t j, double cutoff2) {
  const Vec3 d = mc.centers[i].position - mc.centers[j].position;
  return d.norm2() <= cutoff2;
}

/// Bonded-term energies (evaluated by the client — the sequential part).
struct BondedEnergies {
  double bond = 0.0;
  double angle = 0.0;
  double dihedral = 0.0;
  double improper = 0.0;
  double total() const noexcept { return bond + angle + dihedral + improper; }
};

/// Single-term evaluators; each accumulates gradients into `grad`.
/// bond_energy skips the (undefined) gradient of a zero-length bond and
/// counts the event — see degenerate_bond_events().
double bond_energy(const MolecularComplex& mc, const Bond& b,
                   std::span<Vec3> grad);

/// Number of bond terms evaluated at exactly zero length (coincident
/// centers) since process start or the last reset.  Process-wide atomic so
/// threaded sweeps can keep counting.
std::uint64_t degenerate_bond_events() noexcept;
void reset_degenerate_bond_events() noexcept;
double angle_energy(const MolecularComplex& mc, const Angle& a,
                    std::span<Vec3> grad);
double dihedral_energy(const MolecularComplex& mc, const Dihedral& d,
                       std::span<Vec3> grad);
double improper_energy(const MolecularComplex& mc, const Improper& im,
                       std::span<Vec3> grad);

/// Evaluates all bonded terms; if `ops` is non-null, adds the corresponding
/// operation mix.
BondedEnergies evaluate_bonded(const MolecularComplex& mc,
                               std::span<Vec3> grad,
                               hpm::OpCounts* ops = nullptr);

}  // namespace opalsim::opal
