// Sciddle-like RPC middleware over the PVM layer.
//
// Structure (paper §3.1): one client drives p servers.  The client calls a
// named remote procedure on every server (call_all); server stubs unpack the
// arguments, run the registered handler, and return a reply.  Three
// operating modes:
//
//  - overlap mode (original Sciddle): servers reply as soon as their handler
//    finishes; communication and computation overlap and cannot be
//    attributed separately.
//  - barrier mode (the paper's §3.3 modification, default): a PVM barrier
//    separates the compute phase from the reply phase, so the client can
//    account call/compute/return/sync intervals exactly, at the price of a
//    small slowdown (<5% in the paper, reproduced by bench_ablation_sync).
//  - fault-tolerant mode (Options::retry.enabled): the same phase separation
//    is enforced by an explicit done/release exchange instead of a PVM
//    barrier (a p+1-party barrier deadlocks the moment one message is lost
//    or one server dies).  Every client wait carries a deadline; timeouts
//    trigger retransmission with exponential backoff and deterministic
//    jitter, servers dedup and replay by call sequence number, and a
//    heartbeat probe decides between "slow" and "dead".  Time lost to
//    timeouts, retransmissions and failure detection is accounted in a
//    fifth phase, "recovery", so degraded runs still sum to wall time.
//
// The stub generator of real Sciddle is replaced by PackBuffer marshalling
// inside the handlers (a template-free equivalent: same wire effect).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "pvm/pvm_system.hpp"
#include "sim/task.hpp"
#include "util/domains.hpp"
#include "util/rng.hpp"

namespace opalsim::sciddle {

/// Timeout/retry/backoff policy of the fault-tolerant mode.  All time is
/// virtual; jitter is drawn from a seeded stream, never wall-clock, so a
/// fixed (fault seed, jitter seed) pair replays identically.
struct RetryPolicy {
  bool enabled = false;
  /// Initial per-wait timeout.  Deliberately generous: a premature timeout
  /// only costs a retransmission (handlers are idempotent), never
  /// correctness.
  double timeout_s = 5.0;
  /// Timeout multiplier per consecutive retry (exponential backoff).
  double backoff = 2.0;
  /// Backoff ceiling.
  double max_timeout_s = 300.0;
  /// Send attempts per wait before the failure detector is consulted.
  int max_attempts = 4;
  /// Deterministic jitter: each retry timeout is scaled by a factor drawn
  /// uniformly from [1 - jitter_frac, 1 + jitter_frac].
  double jitter_frac = 0.1;
  std::uint64_t jitter_seed = 0x5c1dd1e5eedULL;
  /// Heartbeat probe timeout (the failure detector's patience).
  double heartbeat_timeout_s = 10.0;

  void validate() const;
};

struct Options {
  /// Insert PVM barriers between compute and reply phases (§3.3).
  bool barrier_mode = true;
  /// Fault-tolerance policy; disabled by default, in which case the wire
  /// protocol is bit-for-bit the seed middleware.
  RetryPolicy retry;
};

/// Environment a server-side handler runs in.
struct ServerContext {
  pvm::PvmTask& task;  ///< access to cpu(), engine, PVM
  int server_index;    ///< 0-based server rank
};

/// A remote procedure: consumes the packed arguments, performs (simulated)
/// work, returns the packed reply payload.
using Handler =
    std::function<sim::Task<pvm::PackBuffer>(pvm::PackBuffer, ServerContext&)>;

/// Client-side accounting of one call_all round.  In barrier and
/// fault-tolerant modes the five phase buckets partition the round's wall
/// time exactly: total() == round wall.
struct CallAllStats {
  double call_time = 0.0;     ///< wall: sending the p call messages
  double compute_wall = 0.0;  ///< wall: waiting for all servers' handlers
  double return_time = 0.0;   ///< wall: collecting the p replies
  double sync_time = 0.0;     ///< wall: start+end synchronization
  double recovery_time = 0.0; ///< wall: timeouts, retransmits, failover
  std::vector<double> server_busy;  ///< per-server handler duration

  // Robustness counters for this round.
  std::uint64_t retries = 0;        ///< retransmitted requests
  std::uint64_t timeouts = 0;       ///< client waits that expired
  std::uint64_t heartbeats = 0;     ///< failure-detector probes sent
  std::uint64_t stale_discarded = 0;///< duplicate/corrupt messages discarded
  /// Servers first declared dead during this round.  Non-empty means the
  /// round is incomplete: replies from these servers are missing and the
  /// caller must redistribute their work and re-issue the round.
  std::vector<int> failed_servers;
  /// Servers that participated (alive at round start); 0 = all of
  /// server_busy (fault-free modes).
  int participants = 0;

  double total() const noexcept {
    return call_time + compute_wall + return_time + sync_time + recovery_time;
  }
  /// The ideally-parallel computation portion: mean server busy time.
  double par_time() const noexcept {
    if (server_busy.empty()) return 0.0;
    const double sum =
        std::accumulate(server_busy.begin(), server_busy.end(), 0.0);
    const double n = participants > 0
                         ? static_cast<double>(participants)
                         : static_cast<double>(server_busy.size());
    return sum / n;
  }
  /// Client wait not covered by useful parallel computation: load imbalance
  /// plus scheduling skew.
  double idle_time() const noexcept {
    const double idle = compute_wall - par_time();
    return idle > 0.0 ? idle : 0.0;
  }
};

/// Lifetime totals of the fault-tolerant machinery (all rounds).
struct RecoveryTotals {
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t stale_discarded = 0;
  std::uint64_t servers_failed = 0;
  double recovery_time_s = 0.0;
};

class Rpc {
 public:
  /// Servers run on machine nodes 1..num_servers; the client is expected on
  /// node 0.  start() must be called after registering procedures.
  Rpc(pvm::PvmSystem& pvm, int num_servers, Options opts = {});

  void register_proc(std::string name, Handler handler);

  /// Spawns the p server loops (PVM tids 0..p-1).
  void start();

  /// Calls `proc` on every live server, args[i] to server i.  Must be
  /// awaited from the client's PVM task.  Replies (handler payloads) are
  /// appended to `*replies` in server order when non-null; in fault-tolerant
  /// mode dead servers contribute no entry.  Check stats.failed_servers:
  /// when non-empty the round is incomplete and must be re-issued after
  /// failover.
  VT_PURE sim::Task<CallAllStats> call_all(pvm::PvmTask& client,
                                   const std::string& proc,
                                   std::vector<pvm::PackBuffer> args,
                                   std::vector<pvm::PackBuffer>* replies);

  /// Stops all live server loops (join via pvm().process()).  Servers
  /// declared dead are not joined — their processes are parked forever.
  sim::Task<void> shutdown(pvm::PvmTask& client);

  int num_servers() const noexcept { return num_servers_; }
  const Options& options() const noexcept { return options_; }
  pvm::PvmSystem& pvm() noexcept { return *pvm_; }

  /// Liveness as believed by the middleware's failure detector.
  bool server_alive(int server_index) const {
    return alive_.at(server_index);
  }
  int num_alive() const noexcept {
    int n = 0;
    for (const bool a : alive_) n += a ? 1 : 0;
    return n;
  }
  const RecoveryTotals& recovery_totals() const noexcept { return totals_; }

  // -- checkpoint/restart ----------------------------------------------------
  // The layer's future behaviour is determined by this record; procs_ and
  // the server tids are rebuilt from config on resume.

  struct Snapshot {
    std::vector<bool> alive;  ///< the failure detector's belief per server
    util::Xoshiro256::State jitter_rng{};
    RecoveryTotals totals;
    std::uint64_t next_call_id = 1;
    std::uint64_t next_probe_id = 1;
  };
  Snapshot snapshot() const {
    return {alive_, jitter_rng_.state(), totals_, next_call_id_,
            next_probe_id_};
  }
  /// Throws util::FatalError("ckpt"), changing nothing, unless the record
  /// holds one alive entry per server, some of them alive (the run fails
  /// otherwise), and totals.servers_failed counts the others.
  void restore(const Snapshot& s);

  /// Message tags on the wire.
  static constexpr int kTagCall = 1001;
  static constexpr int kTagReply = 1002;
  static constexpr int kTagStop = 1003;
  static constexpr int kTagDone = 1004;     ///< FT: handler finished (tiny)
  static constexpr int kTagRelease = 1005;  ///< FT: client requests replies
  static constexpr int kTagPing = 1006;     ///< FT: failure-detector probe
  static constexpr int kTagPong = 1007;     ///< FT: probe answer

 private:
  sim::Task<void> server_loop(pvm::PvmTask& task, int server_index);
  sim::Task<void> server_loop_ft(pvm::PvmTask& task, int server_index);
  VT_PURE sim::Task<CallAllStats> call_all_ft(pvm::PvmTask& client,
                                      const std::string& proc,
                                      std::vector<pvm::PackBuffer> args,
                                      std::vector<pvm::PackBuffer>* replies);

  /// Next retry timeout with deterministic jitter applied.
  double jittered(double timeout);
  /// FT wait for a `tag` message from server s carrying `call_id`:
  /// retransmits via make_request/request_tag on timeout, consults the
  /// failure detector when attempts are exhausted.  Returns the message
  /// (body cursor past the call id) or nullopt when the server was declared
  /// dead.  The successful final wait interval is added to *good_wait;
  /// every other interval goes to stats.recovery_time.
  sim::Task<std::optional<pvm::Message>> await_server(
      pvm::PvmTask& client, int server_index, int tag, std::uint64_t call_id,
      std::function<pvm::PackBuffer()> make_request, int request_tag,
      CallAllStats& stats, double* good_wait);
  /// True when the server answered a heartbeat probe within the detector's
  /// patience; false declares it dead.
  sim::Task<bool> probe(pvm::PvmTask& client, int server_index,
                        CallAllStats& stats);
  /// Emits a call/compute/return/sync/recovery span (client = task -1,
  /// servers = 0..p-1) into the thread's obs::TraceSink.  `round` (the call
  /// id) tags the span so the trace summarizer can regroup per-round
  /// accounting; 0 = no round.  `participants` = live servers this round
  /// (0 = not tagged).
  void record(int task, const char* phase, double t0, double t1,
              std::uint64_t round = 0, int participants = 0);

  pvm::PvmSystem* pvm_;
  int num_servers_;
  Options options_;
  std::map<std::string, Handler> procs_;
  std::vector<int> server_tids_;
  std::vector<bool> alive_;
  util::Xoshiro256 jitter_rng_;
  RecoveryTotals totals_;
  std::uint64_t next_call_id_ = 1;
  std::uint64_t next_probe_id_ = 1;
  bool started_ = false;
};

}  // namespace opalsim::sciddle
