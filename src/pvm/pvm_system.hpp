// The PVM substrate: task spawn, point-to-point send/recv with (src, tag)
// wildcard matching, timed receive and group barriers, running on a simulated
// Machine.  The API mirrors the subset of PVM 3.x that Sciddle uses
// (paper §3.1: "a Sciddle application still needs to use a few PVM calls").
//
// Timing semantics:
//  - send() is synchronous-on-the-wire: it completes when the message has
//    crossed the (contended) network, charging b1 + bytes/a1 of virtual time
//    to the sender.  This matches the model's per-server accounting of the
//    client's call times.
//  - recv() suspends until a matching message is in the task's mailbox.
//  - barrier() releases all members a constant sync_time (the model's b5)
//    after the last arrival — the paper's model assumes synchronization cost
//    is independent of p and n.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mach/platform.hpp"
#include "pvm/message.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/mailbox.hpp"
#include "sim/task.hpp"
#include "util/domains.hpp"

namespace opalsim::pvm {

class PvmSystem;

/// Per-task handle through which a spawned task talks to PVM.
class PvmTask {
 public:
  int tid() const noexcept { return tid_; }
  int node() const noexcept { return node_; }
  PvmSystem& system() noexcept { return *system_; }
  sim::Engine& engine();
  mach::Cpu& cpu();

  /// Sends `body` to task `dst` with `tag`; completes when delivered.
  VT_PURE sim::Task<void> send(int dst, int tag, PackBuffer body);

  /// Receives the oldest message matching (src, tag); kAny is a wildcard.
  VT_PURE sim::Task<Message> recv(int src = kAny, int tag = kAny);

  /// Receives the oldest message matching (src, tag), or returns nullopt
  /// once `timeout` seconds of virtual time pass without a match — the
  /// primitive the fault-tolerant RPC layer builds timeouts/retries on.
  /// A non-positive timeout polls: it never suspends.
  VT_PURE sim::Task<std::optional<Message>> recv_timeout(int src, int tag,
                                                 double timeout);

  /// Joins the named barrier with `count` total parties; resumes b5 after
  /// the last arrival.
  VT_PURE sim::Task<void> barrier(const std::string& group, int count);

 private:
  friend class PvmSystem;
  PvmTask(PvmSystem* sys, int tid, int node)
      : system_(sys), tid_(tid), node_(node) {}
  PvmSystem* system_;
  int tid_;
  int node_;
};

class PvmSystem {
 public:
  /// Creates the PVM layer over `machine`.  Message delivery uses the
  /// machine's network; barrier release uses the platform's sync_time (b5).
  explicit PvmSystem(mach::Machine& machine);
  ~PvmSystem();
  PvmSystem(const PvmSystem&) = delete;
  PvmSystem& operator=(const PvmSystem&) = delete;

  using TaskBody = std::function<sim::Task<void>(PvmTask&)>;

  /// Spawns a task on `node`; returns its tid.  The body runs as a
  /// simulation process.
  int spawn(int node, TaskBody body);

  /// The process handle of a spawned task (for joining).
  sim::ProcessHandle process(int tid) const;

  mach::Machine& machine() noexcept { return *machine_; }
  sim::Engine& engine() noexcept { return machine_->engine(); }
  int num_tasks() const noexcept { return static_cast<int>(tasks_.size()); }

  /// Total bytes moved / messages sent (delegates to the network model).
  std::uint64_t bytes_sent() const noexcept {
    return machine_->network().bytes_sent();
  }
  std::uint64_t messages_sent() const noexcept {
    return machine_->network().messages_sent();
  }

  /// Audit instrumentation (see sim/audit.hpp, channel-fifo): records one
  /// message delivery on the (src, dst) channel.  Sequence numbers must
  /// strictly increase per channel; equal seqs (duplicates) and gaps
  /// (drops) are legal only while faults are injected.  The delivery path
  /// calls this before every mailbox put; exposed so tests can drive the
  /// checker directly.
  void audit_note_delivery(int src_tid, int dst_tid, std::uint64_t seq,
                           bool faults_active);

  // -- checkpoint/restart ----------------------------------------------------
  // The layer's record: the wire sequence counter and every undelivered
  // message.  At a quiescent boundary only the client's mailbox can hold
  // items (stale duplicated replies); server mailboxes are provably drained.

  struct Snapshot {
    std::uint64_t next_send_seq = 1;
    /// Undelivered messages per task, oldest first (index = tid).
    std::vector<std::vector<Message>> mailboxes;
  };
  Snapshot snapshot() const;
  /// Re-stores undelivered messages without delivering to a parked getter.
  /// Throws util::FatalError("ckpt"), changing nothing, unless the record
  /// holds one mailbox per spawned task.
  void restore(const Snapshot& s);

 private:
  friend class PvmTask;

  struct TaskEntry {
    std::unique_ptr<PvmTask> task;
    std::unique_ptr<sim::Mailbox<Message>> mailbox;
    sim::ProcessHandle process;
  };

  struct BarrierState {
    int count = 0;
    int arrived = 0;
    std::shared_ptr<sim::Event> release;
  };

  sim::Mailbox<Message>& mailbox(int tid);
  sim::Task<void> do_send(int src_tid, int dst_tid, int tag, PackBuffer body);
  sim::Task<void> do_barrier(const std::string& group, int count);

  mach::Machine* machine_;
  std::vector<TaskEntry> tasks_;
  std::map<std::string, BarrierState> barriers_;
  std::uint64_t next_send_seq_ = 1;
  /// Last delivered seq per (src, dst) channel — audit bookkeeping only,
  /// populated when the auditor is enabled (ordered map: determinism lint
  /// forbids unordered containers near accounting).
  std::map<std::pair<int, int>, std::uint64_t> audit_last_seq_;
};

}  // namespace opalsim::pvm
