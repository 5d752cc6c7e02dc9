// The parallel Opal: one client and p servers in a client-server setting
// over the Sciddle RPC middleware on a simulated platform (paper §2.1).
//
// Per simulation step:
//   1. (every update_every steps) "update" RPC: the client ships the atom
//      coordinates; each server distance-checks its pair domain and rebuilds
//      its list of all active pairs.  The reply carries no data (eq. 8).
//   2. "nbint" RPC: coordinates out; each server evaluates the van der Waals
//      and Coulomb energies and the gradient over its active list; the reply
//      carries two energies plus the 3n gradient components (eq. 9).
//   3. The client sums the partial results, evaluates the bonded terms,
//      integrates, and updates the observables (the sequential part, eq. 5).
//
// That is the replicated-data (RD) method.  The same driver runs space and
// force decomposition (SimulationConfig::method, decomp.hpp): their update
// request also ships the server's share, from which it enumerates its
// pairs, and their messages carry only the server's local centers.  Server
// kills, failover and checkpoints cover RD only; SD and FD refuse them.
//
// The run executes real physics (identical to SerialOpal) while virtual
// time advances per the platform's CPU and network models; the returned
// RunMetrics is the measured breakdown the paper's Figures 1-2 plot.
#pragma once

#include <cstdint>
#include <vector>

#include "mach/platform.hpp"
#include "opal/complex.hpp"
#include "opal/config.hpp"
#include "opal/metrics.hpp"
#include "opal/pairs.hpp"
#include "opal/serial.hpp"
#include "sciddle/rpc.hpp"

namespace opalsim::opal {

struct ParallelRunResult {
  SimResult physics;
  RunMetrics metrics;
  /// Total handler busy time per server (reveals load imbalance).
  std::vector<double> server_busy;
  /// Counted MFlop per server as each platform's monitor reports them.
  std::vector<double> server_counted_mflop;
};

class ParallelOpal {
 public:
  ParallelOpal(mach::PlatformSpec platform, MolecularComplex mc,
               int num_servers, SimulationConfig cfg,
               sciddle::Options middleware = {});

  /// Runs the whole simulation to completion and returns physics +
  /// measured breakdown.  May be called once per instance.
  ParallelRunResult run();

  int num_servers() const noexcept { return num_servers_; }
  const SimulationConfig& config() const noexcept { return cfg_; }

  // -- checkpoint records of the state run() owns beside the layers --------

  /// The client's state at the top of a step.
  struct ClientSnapshot {
    int step = 0;          ///< next step to execute
    double t_start = 0.0;  ///< engine time at client start
    bool force_update = false;
    std::vector<double> positions;      ///< flat 3n coordinates
    std::vector<Vec3> velocities;
    /// Flat 3n coordinates of the last scheduled list update; empty until
    /// step 0 has run.
    std::vector<double> update_coords;
    SteepestDescent::Snapshot minimizer;
    SimResult physics;
    RunMetrics metrics;
    std::uint64_t failover_epoch = 0;
    /// Client-side pair assignment (fault-tolerant mode; empty otherwise).
    std::vector<std::vector<PairIdx>> assignment;
  };

  /// One server's pair lists and work counters.
  struct ServerSnapshot {
    ServerDomain::Snapshot lists;
    std::uint64_t pairs_checked = 0;
    std::uint64_t pairs_evaluated = 0;
    std::uint64_t adopt_epoch = 0;  ///< highest failover epoch applied
  };

 private:
  mach::PlatformSpec platform_;
  MolecularComplex mc_;
  int num_servers_;
  SimulationConfig cfg_;
  sciddle::Options middleware_;
  bool ran_ = false;
};

}  // namespace opalsim::opal
