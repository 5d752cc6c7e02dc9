// Network models.  A transfer of B bytes costs b1 + B/a1 (the model's
// communication terms), but *where* that cost is paid differs per
// architecture and is what makes the prediction figures bend:
//
//  - SwitchedNetwork   (T3E torus, Myrinet, SCI): full-duplex per-node links;
//                      disjoint pairs transfer concurrently.
//  - SharedBusNetwork  (shared Ethernet): one message on the medium at a
//                      time — the whole cost serializes on a single bus.
//  - DaemonNetwork     (J90 PVM/Sciddle path): every message is shepherded by
//                      a single PVM daemon; structurally a serializing hub
//                      with the disastrous observed 3 MB/s despite a GB/s
//                      crossbar underneath (paper §3.1).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace opalsim::mach {

/// Static description of an interconnect.
struct NetSpec {
  enum class Kind { Switched, SharedBus, Daemon };
  Kind kind = Kind::Switched;
  std::string name;
  double hw_peak_MBps = 0.0;    ///< Table 2 "hw peak"
  double observed_MBps = 0.0;   ///< Table 2 "observed" — the model's a1
  double latency_s = 0.0;       ///< Table 2 "observed latency" — the model's b1

  double bytes_per_second() const noexcept { return observed_MBps * 1e6; }
};

/// Abstract transport bound to an Engine.
class NetworkModel {
 public:
  explicit NetworkModel(NetSpec spec) : spec_(std::move(spec)) {}
  virtual ~NetworkModel() = default;
  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  const NetSpec& spec() const noexcept { return spec_; }

  /// Unloaded time for one message (used by the analytic model): b1 + B/a1.
  double unloaded_time(std::size_t bytes) const noexcept {
    return spec_.latency_s +
           static_cast<double>(bytes) / spec_.bytes_per_second();
  }

  /// Awaitable point-to-point transfer; completes when the message is
  /// delivered at `dst`.  Contention per the concrete topology.
  virtual sim::Task<void> transfer(int src, int dst, std::size_t bytes) = 0;

  std::uint64_t messages_sent() const noexcept { return messages_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_total_; }

  /// Attaches a fault model (not owned; may be null).  Link degradation
  /// windows scale subsequent transfer times; the daemon variant also draws
  /// stall delays from it.
  void set_fault_model(sim::FaultModel* fault) noexcept { fault_ = fault; }
  sim::FaultModel* fault_model() const noexcept { return fault_; }

 protected:
  void account(std::size_t bytes) noexcept {
    ++messages_;
    bytes_total_ += bytes;
  }

  /// Transfer time at virtual time `now`, including any active degradation
  /// window.  Identical to unloaded_time() when no fault model is attached
  /// (the default), so fault-free runs are bit-for-bit unperturbed.
  double effective_time(std::size_t bytes, double now) const noexcept {
    if (fault_ == nullptr || !fault_->enabled()) return unloaded_time(bytes);
    return spec_.latency_s * fault_->latency_factor(now) +
           static_cast<double>(bytes) /
               (spec_.bytes_per_second() * fault_->bandwidth_factor(now));
  }

 private:
  friend class Machine;  // checkpoints and restores the traffic counters

  NetSpec spec_;
  sim::FaultModel* fault_ = nullptr;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_total_ = 0;
};

/// Full-duplex switched fabric: each node has one send and one receive link;
/// a transfer holds src's send link and dst's receive link for its duration.
class SwitchedNetwork final : public NetworkModel {
 public:
  SwitchedNetwork(sim::Engine& engine, NetSpec spec, int nodes);
  sim::Task<void> transfer(int src, int dst, std::size_t bytes) override;

 private:
  sim::Engine* engine_;
  std::vector<std::unique_ptr<sim::Resource>> send_links_;
  std::vector<std::unique_ptr<sim::Resource>> recv_links_;
};

/// Single shared medium: the full per-message cost is paid while holding the
/// bus, so concurrent senders serialize completely.
class SharedBusNetwork final : public NetworkModel {
 public:
  SharedBusNetwork(sim::Engine& engine, NetSpec spec);
  sim::Task<void> transfer(int src, int dst, std::size_t bytes) override;

 private:
  sim::Engine* engine_;
  sim::Resource bus_;
};

/// All messages serialized through one middleware daemon process.
class DaemonNetwork final : public NetworkModel {
 public:
  DaemonNetwork(sim::Engine& engine, NetSpec spec);
  sim::Task<void> transfer(int src, int dst, std::size_t bytes) override;

 private:
  sim::Engine* engine_;
  sim::Resource daemon_;
};

/// Factory dispatching on spec.kind.
std::unique_ptr<NetworkModel> make_network(sim::Engine& engine, NetSpec spec,
                                           int nodes);

}  // namespace opalsim::mach
