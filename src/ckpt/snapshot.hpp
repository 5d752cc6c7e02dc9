// Checkpoint image contents and binary encoding.
//
// A RunSnapshot captures everything that determines a ParallelOpal run's
// future at a quiescent step boundary (engine queue empty, every coroutine
// parked on a mailbox or at the step-loop top): virtual clock and event
// sequencing, every RNG stream, MD state, middleware protocol state,
// fault-model dynamic state, and all metrics accumulators.  Restoring it
// into a freshly rebuilt engine/task graph continues the run such that every
// output — sweep CSV, metrics JSON, trace tail — is byte-identical to an
// uninterrupted execution (the ctest gate and tools/chaos/crash_harness.py
// both enforce this).
//
// Wire format (see DESIGN.md, "Checkpoint/restart"):
//
//   8 bytes   magic "OPALCKPT"
//   u32       version (kVersion)
//   payload   fields below, little-endian fixed-width (util/binio.hpp)
//   u32       CRC-32 over all preceding bytes (util/crc32.hpp)
//
// decode() verifies magic, version and CRC and throws util::FatalError
// (subsystem "ckpt") on any mismatch — a torn or corrupted image can never
// be half-applied.  This module deliberately speaks only primitives
// (vectors of doubles/ints), so it layers on util alone; the opal layer owns
// the translation to/from its own types.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "opal/metrics.hpp"

namespace opalsim::ckpt {

inline constexpr char kMagic[8] = {'O', 'P', 'A', 'L', 'C', 'K', 'P', 'T'};
inline constexpr std::uint32_t kVersion = 2;

/// One undelivered message parked in a task mailbox (stale duplicated
/// replies can outlive a round in fault-tolerant mode).
struct MailboxItemSnap {
  std::int32_t src = -1;
  std::int32_t tag = 0;
  std::uint64_t seq = 0;
  std::uint64_t checksum = 0;
  bool corrupted = false;
  std::vector<std::uint8_t> raw;      ///< PackBuffer encoded bytes
  std::uint64_t payload_bytes = 0;    ///< PackBuffer::byte_size()
};

/// One server's pair-list state.  Pairs are flattened (i0,j0,i1,j1,...);
/// lazy caches (membership index, cell grid, Verlet list) are not stored —
/// both host paths rebuild the identical active list on demand.
struct ServerSnap {
  std::vector<std::uint32_t> domain;
  std::vector<std::uint32_t> active;
  bool materialized = false;
  std::uint64_t pairs_checked = 0;
  std::uint64_t pairs_evaluated = 0;
  std::uint64_t adopt_epoch = 0;
};

/// One node's HPM counter (architecture-neutral op mix + busy accounting).
struct CpuSnap {
  std::uint64_t add = 0, mul = 0, div = 0, sqrt = 0, exp = 0, cmp = 0;
  double busy_seconds = 0.0;
  double cycles = 0.0;
};

/// A scheduled or dynamically recorded node death.
struct NodeFaultSnap {
  std::int32_t node = -1;
  double t_fail = 0.0;
};

using RngState = std::array<std::uint64_t, 4>;

struct RunSnapshot {
  /// Identity of the run configuration this image belongs to; resuming
  /// under a different config is refused.
  std::uint64_t config_fingerprint = 0;

  // -- engine ---------------------------------------------------------------
  double now = 0.0;
  std::uint64_t next_event_seq = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t q_pushes = 0, q_pops = 0, q_cancels = 0, q_peak = 0;
  // (The image follows q_peak with a u64 that is always 0: the per-LP clock
  // count of the retired parallel engines, kept so the layout is stable.)

  // -- client progress ------------------------------------------------------
  std::int32_t step = 0;       ///< next step index to execute
  double t_start = 0.0;        ///< engine.now() at client start
  bool force_update = false;
  std::vector<double> positions;      ///< flat 3n coordinates
  std::vector<double> velocities;     ///< flat 3n
  std::vector<double> update_coords;  ///< coordinates of last scheduled update

  // -- minimizer ------------------------------------------------------------
  double min_step_size = 0.0;
  bool min_has_prev = false;
  double min_prev_energy = 0.0;
  std::vector<double> min_prev_pos;   ///< flat 3n (empty when !has_prev)
  std::vector<double> min_prev_grad;
  std::uint64_t min_accepted = 0;
  std::uint64_t min_rejected = 0;

  // -- accumulated results --------------------------------------------------
  opal::SimResult physics;
  opal::RunMetrics metrics;

  // -- failover -------------------------------------------------------------
  std::uint64_t failover_epoch = 0;
  /// Client-side pair assignment (fault-tolerant mode; empty otherwise).
  std::vector<std::vector<std::uint32_t>> assignment;

  // -- servers --------------------------------------------------------------
  std::vector<ServerSnap> servers;

  // -- pvm ------------------------------------------------------------------
  std::uint64_t next_send_seq = 1;
  /// Per-tid undelivered mailbox items (index = tid; servers 0..p-1, client p).
  std::vector<std::vector<MailboxItemSnap>> mailboxes;

  // -- sciddle --------------------------------------------------------------
  std::vector<bool> alive;
  RngState jitter_rng{};
  std::uint64_t rpc_retries = 0, rpc_timeouts = 0, rpc_heartbeats = 0;
  std::uint64_t rpc_stale_discarded = 0, rpc_servers_failed = 0;
  double rpc_recovery_time_s = 0.0;
  std::uint64_t next_call_id = 1;
  std::uint64_t next_probe_id = 1;

  // -- fault model ----------------------------------------------------------
  std::vector<NodeFaultSnap> node_faults;
  bool fault_enabled = false;
  std::uint64_t f_seen = 0, f_dropped = 0, f_duplicated = 0, f_corrupted = 0,
                f_stalls = 0;
  RngState message_rng{}, corrupt_rng{}, stall_rng{};

  // -- machine --------------------------------------------------------------
  std::vector<CpuSnap> cpus;  ///< index = node (0 = client)
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;

  // -- observability --------------------------------------------------------
  std::uint64_t sink_next_seq = 0;  ///< 0 when the run is untraced

  // -- checkpoint accounting ------------------------------------------------
  std::uint64_t images_written = 0;  ///< including the image holding this
  std::uint64_t bytes_written = 0;   ///< including the image holding this
  std::uint64_t deferred = 0;        ///< boundaries skipped (not quiescent)
};

/// Encodes a snapshot into a complete image (magic + version + payload +
/// CRC trailer).
std::vector<std::uint8_t> encode(const RunSnapshot& s);

/// Decodes and verifies an image; throws util::FatalError (subsystem
/// "ckpt") on bad magic, version mismatch, CRC failure, or truncation.
RunSnapshot decode(const std::vector<std::uint8_t>& image);

}  // namespace opalsim::ckpt
