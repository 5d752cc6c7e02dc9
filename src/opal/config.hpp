// Simulation configuration: the paper's application parameters.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "opal/pairs.hpp"
#include "util/fatal.hpp"

namespace opalsim::opal {

class Trajectory;  // trajectory.hpp

/// What the run computes: molecular dynamics (leapfrog) or energy
/// minimization (adaptive steepest descent) — Opal supports both (§2.1:
/// "energy minimization and molecular dynamics").
enum class RunMode { Dynamics, Minimization };

/// How the client splits each step among the servers (paper §2.1,
/// "Parallelization Alternatives"; decomp.hpp).
enum class Method {
  ReplicatedData,
  SpaceDecomposition,
  ForceDecomposition,
};

struct SimulationConfig {
  /// Number of simulation steps s (the paper times 10-step runs).
  int steps = 10;
  /// Lists are rebuilt every `update_every` steps: 1 = full update,
  /// 10 = partial update.  The model's u = 1/update_every.
  int update_every = 1;
  /// Cut-off radius in Angstrom; <= 0 disables the cut-off (all pairs).
  double cutoff = -1.0;
  /// Pair-to-server distribution strategy.
  DistributionStrategy strategy = DistributionStrategy::PseudoRandomHistorical;
  /// Parallelization method of ParallelOpal.  SD and FD refuse server kills
  /// and checkpoints: failover and the image cover replicated data only.
  Method method = Method::ReplicatedData;
  /// Host execution path for list updates (virtual time is identical on
  /// every path; Auto is the Verlet list, Brute the oracle).  See DESIGN.md.
  PairUpdatePath pair_path = PairUpdatePath::Auto;
  /// Leapfrog timestep (arbitrary units; small keeps dynamics tame).
  double dt = 1e-3;
  /// When false, positions stay fixed (pure energy evaluation) — work is
  /// identical, results exactly step-independent.  Ignored in
  /// Minimization mode.
  bool integrate = true;
  /// Dynamics (default) or energy minimization.
  RunMode mode = RunMode::Dynamics;
  /// Initial steepest-descent step length (Minimization mode).
  double min_step = 1e-5;
  /// When non-null, per-step observables are recorded here (not owned).
  Trajectory* trajectory = nullptr;
  std::uint64_t seed = 1;
  /// Fault-injection convenience: crash server `kill_server` (0-based) when
  /// the client begins step `kill_at_step`.  Either < 0 disables the kill.
  /// Requires fault-tolerant middleware (Options::retry.enabled) to survive.
  int kill_server = -1;
  int kill_at_step = -1;
  /// When non-empty, the run is traced and the trace written here: .csv
  /// extension selects CSV, anything else Chrome trace_event JSON
  /// (Perfetto-loadable).  The OPALSIM_TRACE environment knob supplies a
  /// default when this is empty.
  std::string trace_out;
  /// When non-empty, the run's MetricsRegistry snapshot (JSON) is written
  /// here.  OPALSIM_METRICS supplies a default when empty.
  std::string metrics_out;
  /// When non-empty, checkpoint images are written here (atomically: .tmp +
  /// fsync + rename, previous image kept as .prev).  OPALSIM_CHECKPOINT
  /// supplies a default when empty.  ParallelOpal only.
  std::string checkpoint_out;
  /// Checkpoint every N quiescent step boundaries (0 disables periodic
  /// checkpoints).
  int checkpoint_every_steps = 0;
  /// Additionally checkpoint at the top of this step (< 0 disables).
  int checkpoint_at_step = -1;
  /// When non-empty, resume from this checkpoint image instead of starting
  /// at step 0.  The image's config fingerprint must match.
  std::string resume_from;

  /// The model's update-frequency parameter u in (0, 1].
  double u() const noexcept { return 1.0 / update_every; }

  /// Throws util::ConfigError("opal", ...) for a field out of range.  A
  /// NaN cut-off would otherwise filter out every pair while has_cutoff()
  /// reports none, and a NaN dt or min_step would pass a `<= 0` test.
  void validate() const {
    const auto fail = [](const std::string& what) {
      throw util::ConfigError("opal", what);
    };
    if (steps <= 0) fail("steps must be > 0");
    if (update_every <= 0) fail("update_every must be > 0");
    if (std::isnan(cutoff) || (std::isinf(cutoff) && cutoff > 0.0))
      fail("cutoff must be finite (<= 0 disables it)");
    if (!std::isfinite(dt) || dt <= 0.0) fail("dt must be finite and > 0");
    if (!std::isfinite(min_step) || min_step <= 0.0)
      fail("min_step must be finite and > 0");
    if (checkpoint_every_steps < 0) fail("checkpoint_every_steps must be >= 0");
  }

  bool has_cutoff() const noexcept { return cutoff > 0.0; }
};

}  // namespace opalsim::opal
