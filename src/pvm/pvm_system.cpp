#include "pvm/pvm_system.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "obs/trace.hpp"
#include "util/domains.hpp"
#include "util/fatal.hpp"

namespace opalsim::pvm {

sim::Engine& PvmTask::engine() { return system_->engine(); }

mach::Cpu& PvmTask::cpu() { return system_->machine().cpu(node_); }

VT_PURE sim::Task<void> PvmTask::send(int dst, int tag, PackBuffer body) {
  return system_->do_send(tid_, dst, tag, std::move(body));
}

VT_PURE sim::Task<Message> PvmTask::recv(int src, int tag) {
  auto& mb = system_->mailbox(tid_);
  mb.audit_discipline().note_consume(static_cast<std::uint64_t>(tid_),
                                     engine().now());
  Message m = co_await mb.get(
      [src, tag](const Message& x) { return x.matches(src, tag); });
  if (obs::enabled()) {
    obs::instant(obs::Cat::kPvm, "recv", engine().now(), node_,
                 {"src", static_cast<double>(m.src)},
                 {"tag", static_cast<double>(m.tag)});
  }
  co_return m;
}

namespace {

/// Shared flag block of one recv_timeout call: which side settled the race,
/// and the timer's scheduled wake event so the winner can cancel the loser.
struct TimedRecvShared {
  bool fulfilled = false;   ///< mailbox delivered before the deadline
  bool cancelled = false;   ///< timer removed the parked getter
  bool timer_armed = false; ///< timer's wake event is still pending
  std::uint64_t timer_seq = 0;  ///< seq of that pending wake event
};

/// Delay that records its scheduled event's sequence number into the shared
/// block before parking, so a fulfilled receive can cancel the wake event
/// outright.  Without the cancellation the dead timer would still pop at its
/// deadline, keeping the engine queue non-empty and breaking the checkpoint
/// quiescence rule (pending_events()==0 at step boundaries) whenever
/// fault-tolerant RPC timeouts are in flight.
// The awaiter is deliberately trivially destructible: it borrows the shared
// block instead of owning it (the timer frame's `shared` parameter keeps it
// alive across the suspension).  GCC's frame cleanup runs the destructor of
// a co_await operand temporary a second time when a frame parked at that
// await is destroyed (observed with GCC 12), so an owning awaiter would
// double-release its reference and free the block under the other holders.
struct ArmedDelayAwaiter {
  sim::Engine* engine;
  TimedRecvShared* shared;  ///< borrowed, never owned — see above
  sim::SimTime wake_at = 0.0;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    shared->timer_seq = engine->next_event_seq();
    shared->timer_armed = true;
    engine->schedule(wake_at, h);
  }
  void await_resume() const noexcept {}
};
static_assert(std::is_trivially_destructible_v<ArmedDelayAwaiter>,
              "await-operand temporaries may be destroyed twice on frame "
              "teardown; the awaiter must not own resources");

/// Timer process backing recv_timeout: after `dt`, cancels the parked getter
/// (unless the mailbox delivered first) and resumes the receiver empty-
/// handed.  Arguments are taken by value — a lambda coroutine's captures
/// would die with the lambda object.  `getter` is only ever compared by
/// pointer inside Mailbox::cancel, never dereferenced, so a stale pointer
/// (receiver long since resumed) is harmless; the `fulfilled` flag guards
/// the pointer-reuse case where a new getter occupies the same address.
sim::Task<void> recv_timeout_timer(
    sim::Engine* engine, sim::Mailbox<Message>* mb,
    std::shared_ptr<TimedRecvShared> shared,
    const sim::Mailbox<Message>::GetAwaiter* getter,
    std::coroutine_handle<> receiver, double dt) {
  co_await ArmedDelayAwaiter{engine, shared.get(), engine->now() + dt};
  shared->timer_armed = false;  // our wake event just popped
  if (shared->fulfilled) co_return;
  if (mb->cancel(getter)) {
    shared->cancelled = true;
    engine->schedule_now(receiver);
  }
}

/// Races a mailbox getter against a timer process.  Owns the race-state
/// shared_ptr and the wrapped GetAwaiter; lives in the recv_timeout
/// coroutine frame for the whole race, never as a compiler temporary.
// lint:allow(awaiter-trivial-dtor): owning awaiter by design (see above)
struct TimedRecvAwaiter {
  sim::Engine* engine;
  sim::Mailbox<Message>* mb;
  sim::Mailbox<Message>::GetAwaiter inner;
  std::shared_ptr<TimedRecvShared> shared;
  double timeout;

  bool await_ready() { return inner.await_ready(); }
  void await_suspend(std::coroutine_handle<> h) {
    inner.await_suspend(h);
    engine->spawn(
        recv_timeout_timer(engine, mb, shared, &inner, h, timeout));
  }
  std::optional<Message> await_resume() {
    if (shared->cancelled) return std::nullopt;
    shared->fulfilled = true;
    // The message won the race; the timer's wake event is dead weight.
    // Cancel it so the queue can drain to quiescence.  Safe: the timer pops
    // strictly before any same-time delivery resumption (its seq was
    // assigned at recv start), so a still-armed flag here means the event
    // really is pending.
    if (shared->timer_armed) {
      engine->cancel_scheduled(shared->timer_seq);
      shared->timer_armed = false;
    }
    return std::move(inner.slot);
  }
};

}  // namespace

sim::Task<std::optional<Message>> PvmTask::recv_timeout(int src, int tag,
                                                        double timeout) {
  auto& mb = system_->mailbox(tid_);
  mb.audit_discipline().note_consume(static_cast<std::uint64_t>(tid_),
                                     engine().now());
  sim::Mailbox<Message>::Predicate pred = [src, tag](const Message& x) {
    return x.matches(src, tag);
  };
  if (timeout <= 0.0) co_return mb.try_get(pred);
  TimedRecvAwaiter awaiter{
      &engine(),
      &mb,
      sim::Mailbox<Message>::GetAwaiter{&mb, std::move(pred), std::nullopt,
                                        {}},
      std::make_shared<TimedRecvShared>(),
      timeout};
  std::optional<Message> m = co_await awaiter;
  if (m.has_value() && obs::enabled()) {
    obs::instant(obs::Cat::kPvm, "recv", engine().now(), node_,
                 {"src", static_cast<double>(m->src)},
                 {"tag", static_cast<double>(m->tag)});
  }
  co_return m;
}

sim::Task<void> PvmTask::barrier(const std::string& group, int count) {
  if (obs::enabled()) {
    obs::instant(obs::Cat::kPvm, "barrier", engine().now(), node_,
                 {"count", static_cast<double>(count)});
  }
  return system_->do_barrier(group, count);
}

PvmSystem::PvmSystem(mach::Machine& machine)
    : machine_(&machine) {}

PvmSystem::~PvmSystem() = default;

namespace {

/// Root coroutine owning the task body.  The callable is moved into this
/// frame (pooled, see sim/pool.hpp) and outlives the coroutine it creates —
/// a lambda coroutine's captures live in the lambda object, not the frame —
/// so no heap-boxed copy of the std::function is needed per spawn.
sim::Task<void> run_task_body(PvmSystem::TaskBody body, PvmTask* task) {
  co_await body(*task);
}

}  // namespace

int PvmSystem::spawn(int node, TaskBody body) {
  if (node < 0 || node >= machine_->num_nodes())
    throw std::out_of_range("PvmSystem::spawn: bad node");
  const int tid = static_cast<int>(tasks_.size());
  TaskEntry entry;
  entry.task.reset(new PvmTask(this, tid, node));
  entry.mailbox = std::make_unique<sim::Mailbox<Message>>(engine());
  entry.mailbox->audit_discipline().set_owner(static_cast<std::uint64_t>(tid));
  tasks_.push_back(std::move(entry));
  // entry.task is a stable unique_ptr: the pointer survives vector growth.
  PvmTask* task_ptr = tasks_.back().task.get();
  tasks_.back().process =
      engine().spawn(run_task_body(std::move(body), task_ptr));
  return tid;
}

sim::ProcessHandle PvmSystem::process(int tid) const {
  return tasks_.at(tid).process;
}

sim::Mailbox<Message>& PvmSystem::mailbox(int tid) {
  return *tasks_.at(tid).mailbox;
}

PvmSystem::Snapshot PvmSystem::snapshot() const {
  Snapshot s{next_send_seq_, {}};
  for (const TaskEntry& t : tasks_) {
    const std::deque<Message>& items = t.mailbox->items();
    s.mailboxes.emplace_back(items.begin(), items.end());
  }
  return s;
}

void PvmSystem::restore(const Snapshot& s) {
  if (s.mailboxes.size() != tasks_.size()) {
    util::fatal("ckpt", "restore: " + std::to_string(s.mailboxes.size()) +
                            " mailboxes for " + std::to_string(tasks_.size()) +
                            " tasks");
  }
  next_send_seq_ = s.next_send_seq;
  for (std::size_t tid = 0; tid < tasks_.size(); ++tid) {
    for (const Message& m : s.mailboxes[tid]) {
      tasks_[tid].mailbox->restore_item(m);
    }
  }
}

void PvmSystem::audit_note_delivery(int src_tid, int dst_tid,
                                    std::uint64_t seq, bool faults_active) {
  if (!sim::audit::enabled()) return;
  const auto key = std::make_pair(src_tid, dst_tid);
  const auto [it, inserted] = audit_last_seq_.emplace(key, seq);
  if (inserted) return;
  std::uint64_t& last = it->second;
  // Fault-free channels deliver strictly increasing seqs (the global send
  // counter only moves forward).  Under injected faults a duplicate
  // re-delivers the same seq and drops open gaps, but a *decreasing* seq is
  // a reordering bug in the transport in either mode.
  const bool ok = faults_active ? seq >= last : seq > last;
  if (!ok) {
    sim::audit::fail(
        sim::audit::Invariant::kChannelFifo,
        "channel (" + std::to_string(src_tid) + " -> " +
            std::to_string(dst_tid) + ") delivered seq " +
            std::to_string(seq) + " after seq " + std::to_string(last) +
            (faults_active ? " with faults active" : " without faults"),
        engine().now());
  }
  if (seq > last) last = seq;
}

VT_PURE sim::Task<void> PvmSystem::do_send(int src_tid, int dst_tid, int tag,
                                   PackBuffer body) {
  const int src_node = tasks_.at(src_tid).task->node();
  const int dst_node = tasks_.at(dst_tid).task->node();
  const std::size_t bytes = body.byte_size();
  sim::FaultModel& fault = machine_->fault();
  Message m;
  m.src = src_tid;
  m.tag = tag;
  m.seq = next_send_seq_++;
  if (obs::enabled()) {
    obs::instant(obs::Cat::kPvm, "send", engine().now(), src_node,
                 {"bytes", static_cast<double>(bytes)},
                 {"dst", static_cast<double>(dst_node)});
  }
  auto deliver = [this, src_tid, dst_tid, dst_node](Message msg,
                                                    bool faults_active) {
    audit_note_delivery(src_tid, dst_tid, msg.seq, faults_active);
    sim::Mailbox<Message>& mb = mailbox(dst_tid);
    mb.put(std::move(msg));
    if (obs::enabled()) {
      obs::instant(obs::Cat::kPvm, "deliver", engine().now(), dst_node,
                   {"queue", static_cast<double>(mb.size())});
    }
  };
  if (!fault.enabled()) {
    // Fault-free fast path: no checksumming, no extra RNG draws — runs with
    // faults disabled stay bit-for-bit identical to the seed model.
    m.body = std::move(body);
    co_await machine_->transfer(src_node, dst_node, bytes);
    deliver(std::move(m), /*faults_active=*/false);
    co_return;
  }

  // A crashed sender transmits nothing.
  if (fault.node_dead(src_node, engine().now())) co_return;
  m.checksum = body.checksum();
  m.body = std::move(body);
  co_await machine_->transfer(src_node, dst_node, bytes);
  // A message addressed to a node that is dead at delivery time vanishes.
  if (fault.node_dead(dst_node, engine().now())) co_return;

  switch (fault.next_message_fault(src_node, dst_node)) {
    case sim::MessageFault::Drop:
      obs::instant(obs::Cat::kFault, "drop", engine().now(), dst_node,
                   {"src", static_cast<double>(src_node)},
                   {"mseq", static_cast<double>(m.seq)});
      co_return;
    case sim::MessageFault::Duplicate: {
      obs::instant(obs::Cat::kFault, "duplicate", engine().now(), dst_node,
                   {"src", static_cast<double>(src_node)},
                   {"mseq", static_cast<double>(m.seq)});
      Message copy = m;  // same seq: receivers dedup on it
      deliver(std::move(copy), /*faults_active=*/true);
      deliver(std::move(m), /*faults_active=*/true);
      co_return;
    }
    case sim::MessageFault::Corrupt:
      m.body.corrupt_byte(fault.next_corrupt_position(m.body.raw_size()));
      obs::instant(obs::Cat::kFault, "corrupt", engine().now(), dst_node,
                   {"src", static_cast<double>(src_node)},
                   {"mseq", static_cast<double>(m.seq)});
      [[fallthrough]];
    case sim::MessageFault::None:
      m.corrupted = m.body.checksum() != m.checksum;
      deliver(std::move(m), /*faults_active=*/true);
      co_return;
  }
}

sim::Task<void> PvmSystem::do_barrier(const std::string& group, int count) {
  BarrierState& st = barriers_[group];
  if (st.count == 0) st.count = count;
  if (st.count != count) {
    util::fatal("pvm", "barrier '" + group + "': inconsistent party count (" +
                           std::to_string(count) + " vs " +
                           std::to_string(st.count) + ")",
                engine().now());
  }
  if (!st.release) st.release = std::make_shared<sim::Event>(engine());

  if (++st.arrived < st.count) {
    // Hold a reference to this generation's event: the last arriver swaps
    // in a fresh one for the next generation.
    auto release = st.release;
    co_await release->wait();
  } else {
    // Last arrival: start the next generation immediately so arrivals during
    // the release delay queue up cleanly, then complete this generation a
    // constant sync_time (b5) later — independent of p and n, per the
    // paper's synchronization model.
    auto release = st.release;
    st.arrived = 0;
    st.release = std::make_shared<sim::Event>(engine());
    co_await engine().delay(machine_->spec().sync_time_s);
    release->set();
  }
}

}  // namespace opalsim::pvm
