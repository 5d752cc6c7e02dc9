#include "opal/serial.hpp"

#include <string>

#include "opal/forcefield.hpp"
#include "opal/soa.hpp"
#include "opal/trajectory.hpp"
#include "opal/pairs.hpp"
#include "util/fatal.hpp"

namespace opalsim::opal {

void leapfrog_step(MolecularComplex& mc, std::vector<Vec3>& velocities,
                   const std::vector<Vec3>& grad, double dt) {
  for (std::size_t i = 0; i < mc.n(); ++i) {
    MassCenter& c = mc.centers[i];
    const double inv_m = 1.0 / c.mass;
    velocities[i] += grad[i] * (-inv_m * dt);
    c.position += velocities[i] * dt;
  }
}

void fill_observables(const MolecularComplex& mc,
                      const std::vector<Vec3>& velocities,
                      const std::vector<Vec3>& grad, SimResult& result) {
  double ke = 0.0;
  for (std::size_t i = 0; i < mc.n(); ++i) {
    ke += 0.5 * mc.centers[i].mass * velocities[i].norm2();
  }
  result.kinetic = ke;
  const auto n = static_cast<double>(mc.n());
  result.temperature = 2.0 * ke / (3.0 * n * kBoltzmann);
  result.volume = mc.box_length * mc.box_length * mc.box_length;
  // Instantaneous virial pressure: P = (N kB T - (1/3) sum r.g) / V.
  double virial = 0.0;
  for (std::size_t i = 0; i < mc.n(); ++i) {
    virial += mc.centers[i].position.dot(grad[i]);
  }
  result.pressure =
      (n * kBoltzmann * result.temperature - virial / 3.0) / result.volume;
}

void SteepestDescent::advance(MolecularComplex& mc, double energy,
                              const std::vector<Vec3>& grad) {
  if (state_.has_prev && energy > state_.prev_energy) {
    // Reject: backtrack to the previous accepted configuration and descend
    // again with half the step, along the gradient evaluated there.
    ++state_.rejected;
    state_.step *= 0.5;
    for (std::size_t i = 0; i < mc.n(); ++i) {
      mc.centers[i].position =
          state_.prev_pos[i] - state_.prev_grad[i] * state_.step;
    }
    return;
  }
  // Accept: remember this configuration and take a (slightly larger) step.
  ++state_.accepted;
  state_.has_prev = true;
  state_.prev_energy = energy;
  state_.prev_pos.resize(mc.n());
  state_.prev_grad.assign(grad.begin(), grad.end());
  for (std::size_t i = 0; i < mc.n(); ++i) {
    state_.prev_pos[i] = mc.centers[i].position;
  }
  state_.step *= 1.1;
  for (std::size_t i = 0; i < mc.n(); ++i) {
    mc.centers[i].position -= grad[i] * state_.step;
  }
}

void SteepestDescent::restore(const Snapshot& s, std::size_t n) {
  if (s.has_prev && (s.prev_pos.size() != n || s.prev_grad.size() != n)) {
    util::fatal("ckpt", "restore: the minimizer's previous configuration "
                        "does not hold " + std::to_string(n) + " centers");
  }
  state_ = s;
}

void finish_step(MolecularComplex& mc, const SimulationConfig& cfg, int step,
                 double evdw, double ecoul, std::vector<Vec3>& velocities,
                 std::vector<Vec3>& grad, SteepestDescent& minimizer,
                 SimResult& result, hpm::OpCounts& ops) {
  result.bonded = evaluate_bonded(mc, grad, &ops);
  result.evdw = evdw;
  result.ecoul = ecoul;
  fill_observables(mc, velocities, grad, result);
  if (cfg.trajectory != nullptr) cfg.trajectory->record(step, result);

  if (cfg.mode == RunMode::Minimization) {
    minimizer.advance(mc, result.potential(), grad);
    ops += OpMixes::integrate_center * mc.n();
  } else if (cfg.integrate) {
    leapfrog_step(mc, velocities, grad, cfg.dt);
    ops += OpMixes::integrate_center * mc.n();
  }
}

SerialOpal::SerialOpal(MolecularComplex mc, SimulationConfig cfg)
    : mc_(std::move(mc)), cfg_(cfg) {
  cfg_.validate();
}

SimResult SerialOpal::run() {
  ops_ = hpm::OpCounts{};
  pairs_evaluated_ = 0;
  pairs_checked_ = 0;

  // The serial code owns the full pair triangle as a single domain.
  auto domains = build_domains(static_cast<std::uint32_t>(mc_.n()), 1,
                               DistributionStrategy::RowCyclic, cfg_.seed);
  ServerDomain domain(std::move(domains[0]));

  std::vector<Vec3> velocities(mc_.n());
  std::vector<Vec3> grad(mc_.n());
  SteepestDescent minimizer(cfg_.min_step);
  SimResult result;
  CentersSoA soa;
  soa.refresh_params(mc_);

  for (int step = 0; step < cfg_.steps; ++step) {
    if (step % cfg_.update_every == 0) {
      const std::uint64_t checked =
          domain.update(mc_, cfg_.cutoff, cfg_.pair_path);
      pairs_checked_ += checked;
      ops_ += OpMixes::update_pair * checked;
    }
    soa.refresh_positions(mc_);
    std::fill(grad.begin(), grad.end(), Vec3{});
    double evdw = 0.0, ecoul = 0.0;
    nonbonded_batch(soa, domain.active(), evdw, ecoul, grad);
    const std::uint64_t m = domain.active_size();
    pairs_evaluated_ += m;
    ops_ += OpMixes::nbint_pair * m;
    finish_step(mc_, cfg_, step, evdw, ecoul, velocities, grad, minimizer,
                result, ops_);
  }
  return result;
}

KernelResult nbint_kernel(const MolecularComplex& mc,
                          std::uint64_t num_pairs) {
  // The wrapped-triangle pair sequence streams through the production
  // batch kernel in fixed chunks; the batch continues the running energy
  // sums and gradients, so the result equals one pass over the whole
  // sequence.
  constexpr std::size_t kChunk = 4096;
  KernelResult kr;
  std::vector<Vec3> grad(mc.n());
  CentersSoA soa;
  soa.refresh(mc);
  const auto n = static_cast<std::uint32_t>(mc.n());
  std::vector<PairIdx> chunk;
  chunk.reserve(kChunk);
  std::uint32_t i = 0, j = 1;
  for (std::uint64_t k = 0; k < num_pairs; ++k) {
    chunk.push_back({i, j});
    if (chunk.size() == kChunk) {
      nonbonded_batch(soa, chunk, kr.evdw, kr.ecoul, grad);
      chunk.clear();
    }
    if (++j == n) {
      if (++i == n - 1) i = 0;
      j = i + 1;
    }
  }
  nonbonded_batch(soa, chunk, kr.evdw, kr.ecoul, grad);
  kr.pairs = num_pairs;
  kr.ops = OpMixes::nbint_pair * num_pairs;
  return kr;
}

}  // namespace opalsim::opal
