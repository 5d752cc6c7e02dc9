// Platform description and its engine-bound instantiation (Machine).
//
// A PlatformSpec is the static datasheet of a parallel machine: node CPU,
// interconnect, and SMP width.  A Machine binds a spec to a simulation
// Engine with a concrete node count; node 0 conventionally hosts the Opal
// client and nodes 1..p the servers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mach/cpu.hpp"
#include "mach/network.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace opalsim::mach {

struct PlatformSpec {
  std::string name;
  CpuSpec cpu;
  NetSpec net;
  /// Processors per node (2 for the twin-Pentium SMP CoPs).  Informational:
  /// the adjusted rate of `cpu` already reflects the node's throughput.
  int smp_width = 1;
  /// Time for a bare synchronization message exchange — the model's b5.
  double sync_time_s = 0.0;
  /// Fault-injection schedule; default-disabled, in which case the machine
  /// behaves bit-for-bit like the fault-free seed model.  Any paper platform
  /// can thus be instantiated "lossy" by filling this in.
  sim::FaultSpec fault;
};

/// Copy of `p` with a fault schedule attached (convenience for sweeps).
inline PlatformSpec with_faults(PlatformSpec p, sim::FaultSpec fault) {
  p.fault = std::move(fault);
  return p;
}

/// Throws util::ConfigError("mach", ...) when the spec carries a rate or
/// time that would corrupt virtual time or the analytic model: a bandwidth
/// or adjusted MFlop rate that is not finite and > 0, a latency or sync time
/// that is not finite and >= 0, or a scalar fraction outside (0, 1].
void validate(const PlatformSpec& spec);

class Machine {
 public:
  /// Throws util::ConfigError("mach", ...) when `nodes` <= 0 or
  /// validate(spec) refuses the spec.
  Machine(sim::Engine& engine, const PlatformSpec& spec, int nodes);

  const PlatformSpec& spec() const noexcept { return spec_; }
  sim::Engine& engine() noexcept { return *engine_; }
  int num_nodes() const noexcept { return static_cast<int>(cpus_.size()); }

  Cpu& cpu(int node) { return *cpus_.at(node); }
  const Cpu& cpu(int node) const { return *cpus_.at(node); }

  NetworkModel& network() noexcept { return *network_; }
  const NetworkModel& network() const noexcept { return *network_; }

  /// The machine's fault model (always present; disabled when the platform
  /// spec carries no fault schedule).
  sim::FaultModel& fault() noexcept { return fault_; }
  const sim::FaultModel& fault() const noexcept { return fault_; }

  // -- checkpoint/restart ----------------------------------------------------
  // The dynamic state only; the configuration is rebuilt from the spec.

  struct Snapshot {
    sim::FaultModel::Snapshot fault;
    std::vector<hpm::HpmCounter::Snapshot> cpus;  ///< index = node
    std::uint64_t net_messages = 0;
    std::uint64_t net_bytes = 0;
  };
  Snapshot snapshot() const;
  /// Throws util::FatalError("ckpt"), changing nothing, unless the record
  /// holds one counter per node, with finite busy time and cycles >= 0.
  void restore(const Snapshot& s);

  /// Awaitable message transfer between nodes (contention included).
  sim::Task<void> transfer(int src, int dst, std::size_t bytes) {
    return network_->transfer(src, dst, bytes);
  }

 private:
  sim::Engine* engine_;
  PlatformSpec spec_;
  sim::FaultModel fault_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::unique_ptr<NetworkModel> network_;
};

}  // namespace opalsim::mach
