// Deterministic fault injection.
//
// A FaultModel turns a FaultSpec (rates, degradation windows, scheduled node
// deaths) into concrete, reproducible per-event decisions.  All randomness
// flows through dedicated SplitMix64/Xoshiro256 streams seeded from the spec
// seed — never wall-clock — so a fixed fault seed replays the exact same
// drops, duplications, corruptions and stalls in the exact same virtual-time
// order (the DES engine is single-threaded, hence decision order is itself
// deterministic).
//
// Decision streams are separated by concern (message faults, corruption
// positions, daemon stalls) so adding a consumer to one stream cannot shift
// the decisions of another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace opalsim::sim {

/// What the fault layer does to one message in flight.
enum class MessageFault { None, Drop, Duplicate, Corrupt };

/// A virtual-time window during which a link runs degraded.  Flapping links
/// are expressed as a train of such windows (see FaultSpec::add_flap).
struct LinkDegradation {
  double t_start = 0.0;
  double t_end = 0.0;
  double bandwidth_factor = 1.0;  ///< multiplies the observed rate (<1 = slower)
  double latency_factor = 1.0;    ///< multiplies the latency (>1 = slower)
};

/// A node scheduled to die (crash or hang — indistinguishable on the wire:
/// the node stops sending and stops consuming) at a virtual time.
struct NodeFault {
  int node = -1;
  double t_fail = 0.0;
};

struct FaultSpec {
  std::uint64_t seed = 0;

  // Per-message fault rates, each >= 0 and summing to <= 1 (FaultModel
  // refuses anything else, NaN included, with util::ConfigError("sim")).
  // Evaluated in the order drop -> duplicate -> corrupt from one uniform
  // draw, so the three are mutually exclusive per message and rates simply
  // partition [0, 1).
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;
  double corrupt_rate = 0.0;

  // Daemon pathology (J90 PVM daemon path, paper §3.1): with probability
  // `daemon_stall_rate` a message finds the daemon stalled and pays an extra
  // `daemon_stall_s` of service time while holding it.
  double daemon_stall_rate = 0.0;
  double daemon_stall_s = 0.0;

  /// Link bandwidth/latency degradation windows.
  std::vector<LinkDegradation> degradations;

  /// Scheduled node deaths (virtual time).
  std::vector<NodeFault> node_faults;

  bool enabled() const noexcept {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || corrupt_rate > 0.0 ||
           daemon_stall_rate > 0.0 || !degradations.empty() ||
           !node_faults.empty();
  }

  /// Appends a flapping-link schedule: between t_start and t_end the link
  /// alternates `period_s`-long down-phases (degraded by the given factors)
  /// with `period_s`-long up-phases.
  void add_flap(double t_start, double t_end, double period_s,
                double bandwidth_factor, double latency_factor = 1.0);
};

class FaultModel {
 public:
  /// Disabled model: every query is the identity / "no fault".
  FaultModel() : FaultModel(FaultSpec{}) {}
  explicit FaultModel(FaultSpec spec);

  const FaultSpec& spec() const noexcept { return spec_; }
  bool enabled() const noexcept { return enabled_; }

  // -- message-level faults (consumed by the PVM delivery path) ------------

  /// Deterministic fate of the next message from src to dst.  Advances the
  /// message stream only when message faults are configured.
  MessageFault next_message_fault(int src, int dst);

  /// Byte position to corrupt in a payload of `payload_bytes` bytes
  /// (consumes the corruption stream).
  std::size_t next_corrupt_position(std::size_t payload_bytes);

  // -- link-level faults (consumed by the network models) ------------------

  /// Extra daemon service time for a message passing the daemon at `now`.
  double next_daemon_stall(double now);

  /// Multiplier on transfer bandwidth at virtual time `now` (<= 1 degrades).
  double bandwidth_factor(double now) const noexcept;
  /// Multiplier on transfer latency at virtual time `now` (>= 1 degrades).
  double latency_factor(double now) const noexcept;

  // -- node faults ---------------------------------------------------------

  /// True when `node` has failed at or before virtual time `now`.
  bool node_dead(int node, double now) const noexcept;

  /// Declares `node` dead as of virtual time `t` (dynamic kill switch used
  /// by step-indexed kill schedules).
  void kill_node(int node, double t);

  // -- counters (what actually happened this run) --------------------------

  struct Counters {
    std::uint64_t messages_seen = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t daemon_stalls = 0;
  };
  const Counters& counters() const noexcept { return counters_; }

  // -- checkpoint/restart ----------------------------------------------------
  // The model's future decisions are fully determined by this record; the
  // static rate/degradation config is rebuilt from the run config.

  struct Snapshot {
    /// The spec's node deaths followed by those kill_node() recorded.
    std::vector<NodeFault> node_faults;
    bool enabled = false;
    Counters counters;
    util::Xoshiro256::State message_rng{};
    util::Xoshiro256::State corrupt_rng{};
    util::Xoshiro256::State stall_rng{};
  };
  Snapshot snapshot() const {
    return {spec_.node_faults, enabled_, counters_, message_rng_.state(),
            corrupt_rng_.state(), stall_rng_.state()};
  }
  /// Restores the dynamic state (resume only).  Every value of the record
  /// is a state the model can be in, so nothing is refused.
  void restore(const Snapshot& s) {
    spec_.node_faults = s.node_faults;
    enabled_ = s.enabled;
    counters_ = s.counters;
    message_rng_.set_state(s.message_rng);
    corrupt_rng_.set_state(s.corrupt_rng);
    stall_rng_.set_state(s.stall_rng);
  }

 private:
  FaultSpec spec_;
  bool enabled_ = false;
  bool message_faults_ = false;
  util::Xoshiro256 message_rng_;
  util::Xoshiro256 corrupt_rng_;
  util::Xoshiro256 stall_rng_;
  Counters counters_;
};

}  // namespace opalsim::sim
