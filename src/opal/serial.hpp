// The serial Opal engine (Opal-2.6 equivalent): one process performs the
// whole computation.  It is the physics reference for the parallel version
// (identical energies are a test invariant) and supplies the isolated
// application kernel used as the Table 1 microbenchmark.
#pragma once

#include <vector>

#include "hpm/op_counts.hpp"
#include "opal/complex.hpp"
#include "opal/config.hpp"
#include "opal/metrics.hpp"

namespace opalsim::opal {

/// Boltzmann constant in kcal/(mol K).
inline constexpr double kBoltzmann = 0.0019872041;

/// One leapfrog step with gradient g = dV/dr (force = -g).
void leapfrog_step(MolecularComplex& mc, std::vector<Vec3>& velocities,
                   const std::vector<Vec3>& grad, double dt);

/// Adaptive steepest-descent energy minimizer: accepts a step when the
/// potential dropped (growing the step 1.1x), otherwise backtracks to the
/// previous accepted configuration with half the step.  One energy/gradient
/// evaluation per step, so the performance model's per-step cost structure
/// is identical to dynamics.
class SteepestDescent {
 public:
  /// Full minimizer state at a step boundary: its checkpoint record.
  struct Snapshot {
    double step = 0.0;
    bool has_prev = false;
    double prev_energy = 0.0;
    std::vector<Vec3> prev_pos;
    std::vector<Vec3> prev_grad;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
  };

  explicit SteepestDescent(double initial_step) { state_.step = initial_step; }

  /// Advances the configuration given the just-evaluated potential energy
  /// and gradient at the current positions.
  void advance(MolecularComplex& mc, double energy,
               const std::vector<Vec3>& grad);

  double step_size() const noexcept { return state_.step; }
  std::uint64_t accepted() const noexcept { return state_.accepted; }
  std::uint64_t rejected() const noexcept { return state_.rejected; }

  const Snapshot& snapshot() const noexcept { return state_; }
  /// Throws util::FatalError("ckpt"), changing nothing, when the record has
  /// a previous configuration whose positions or gradient do not hold `n`
  /// entries: a rejected step backtracks through both.
  void restore(const Snapshot& s, std::size_t n);

 private:
  Snapshot state_;
};

/// Computes kinetic energy, temperature and instantaneous virial pressure
/// from the final state; fills the observable fields of `result`.
void fill_observables(const MolecularComplex& mc,
                      const std::vector<Vec3>& velocities,
                      const std::vector<Vec3>& grad, SimResult& result);

/// The sequential tail of one step, shared by SerialOpal and the parallel
/// clients once the step's nonbonded sums are in: adds the bonded terms to
/// `grad`, stores energies and observables in `result`, records the
/// trajectory, then moves the configuration (a minimizer step, or leapfrog
/// when integrating).  Adds the op mix of that work to `ops`.
void finish_step(MolecularComplex& mc, const SimulationConfig& cfg, int step,
                 double evdw, double ecoul, std::vector<Vec3>& velocities,
                 std::vector<Vec3>& grad, SteepestDescent& minimizer,
                 SimResult& result, hpm::OpCounts& ops);

class SerialOpal {
 public:
  SerialOpal(MolecularComplex mc, SimulationConfig cfg);

  /// Runs the full simulation on the host (no virtual timing); returns the
  /// physics outcome.  Mutates the internal complex when integrating.
  SimResult run();

  const MolecularComplex& complex() const noexcept { return mc_; }
  /// Total architecture-neutral operation mix of the last run().
  const hpm::OpCounts& ops() const noexcept { return ops_; }
  std::uint64_t pairs_evaluated() const noexcept { return pairs_evaluated_; }
  std::uint64_t pairs_checked() const noexcept { return pairs_checked_; }

 private:
  MolecularComplex mc_;
  SimulationConfig cfg_;
  hpm::OpCounts ops_;
  std::uint64_t pairs_evaluated_ = 0;
  std::uint64_t pairs_checked_ = 0;
};

/// Result of the isolated comp_nbint kernel (Table 1's microbenchmark and
/// the §2.6 memory-hierarchy loop).
struct KernelResult {
  double evdw = 0.0;
  double ecoul = 0.0;
  std::uint64_t pairs = 0;
  hpm::OpCounts ops;
};

/// Evaluates the nonbonded kernel over `num_pairs` pairs of the complex
/// (cycling through the pair triangle as needed).  Gradients are accumulated
/// into a scratch array sized n.
KernelResult nbint_kernel(const MolecularComplex& mc, std::uint64_t num_pairs);

}  // namespace opalsim::opal
