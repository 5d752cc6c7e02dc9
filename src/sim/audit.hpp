// Virtual-time audit checker — a runtime happens-before verifier for the
// DES engine and the middleware stack above it.
//
// The whole methodology of the paper rests on trustworthy per-phase
// accounting: a single event resumed at a decreasing virtual time, a message
// delivered out of FIFO order, or a pooled sweep leaking state between runs
// silently invalidates every calibrated coefficient.  The auditor enforces
// those invariants mechanically:
//
//   time-monotonic     events never scheduled in the virtual past; the
//                      engine clock never moves backwards across resumes
//   channel-fifo       per (src, dst) channel, delivered message sequence
//                      numbers strictly increase; equal seqs (duplicates)
//                      and seq gaps (drops) are legal only while the
//                      platform's FaultModel is active
//   mailbox-consumer   a task mailbox has exactly one consuming task
//   run-isolation      an engine is only driven from the run scope that
//                      created it (pooled sweeps tag each index with a
//                      fresh run id via audit::RunScope)
//   resource-balance   every Resource unit acquired is released and no
//                      waiter is still parked when the resource dies
//
// Checks are observation-only: enabling the auditor never changes virtual
// time, RNG consumption or any output byte.  A violation aborts the process
// with a structured report (invariant name, detail, virtual time); tests
// install a ViolationCapture to record the report instead.
//
// Enablement: OPALSIM_AUDIT=1 forces on, OPALSIM_AUDIT=0 forces off;
// unset defaults to on in debug (!NDEBUG) builds and off otherwise.
#pragma once

#include <cstdint>
#include <string>

#include "util/run_tag.hpp"

namespace opalsim::sim::audit {

enum class Invariant {
  kTimeMonotonic,
  kChannelFifo,
  kMailboxConsumer,
  kRunIsolation,
  kResourceBalance,
};

/// Stable kebab-case name used in violation reports ("time-monotonic", ...).
const char* invariant_name(Invariant inv) noexcept;

/// True when audit checks are active.  First call latches the OPALSIM_AUDIT
/// environment variable (unset: on in !NDEBUG builds, off otherwise).
bool enabled() noexcept;

/// Reports a violation: formats a structured report and hands it to the
/// installed handler (default: write to stderr and abort).  `detail` is a
/// one-line human-readable description; `vtime` is the current virtual time
/// of the engine involved (pass a negative value when not applicable).
[[gnu::cold]] void fail(Invariant inv, const std::string& detail,
                        double vtime = -1.0);

/// Forces the auditor on/off for the current scope (tests; also used by the
/// OPALSIM_AUDIT-equivalence test to compare audited vs unaudited runs in
/// one process).  Restores the previous state on destruction.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on = true) noexcept;
  ~ScopedEnable();
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

/// Test hook: while alive, violations are recorded here instead of aborting,
/// and the auditor is forcibly enabled.  Not reentrant; guarded by a mutex
/// so pooled-sweep workers can report concurrently.
class ViolationCapture {
 public:
  ViolationCapture();
  ~ViolationCapture();
  ViolationCapture(const ViolationCapture&) = delete;
  ViolationCapture& operator=(const ViolationCapture&) = delete;

  /// Number of violations captured so far.
  int count() const;
  /// Invariant of the most recent violation (valid when count() > 0).
  Invariant last_invariant() const;
  /// Full structured report of the most recent violation.
  std::string last_report() const;

 private:
  ScopedEnable enable_;
};

// -- run-isolation tagging ---------------------------------------------------

/// The run id tagged on the current thread (0 = the default scope).  The
/// tagging substrate lives in util/run_tag.hpp so the sweep thread pool can
/// open a scope per index without depending on sim.
inline std::uint64_t current_run() noexcept {
  return util::current_run_tag();
}

/// RAII: tags the current thread with a fresh nonzero run id.  The sweep
/// runner (util::parallel_for_indexed) opens one per index so every DES run
/// in a pooled sweep lives in its own scope; Engine latches the scope at
/// construction and refuses to be driven from any other.
using RunScope = util::RunTagScope;

/// Checks that the calling thread's run scope matches `owner_tag` (the scope
/// the engine was created in).  No-op when the auditor is disabled.
void check_run(std::uint64_t owner_tag, double vtime);

// -- per-object audit state --------------------------------------------------

/// Single-consumer discipline for one mailbox.  The first consuming id is
/// adopted as the owner (or set explicitly by the PVM layer at spawn);
/// any later consume under a different id is a violation.  Ids are task
/// tids offset by +1 so that 0 means "unowned".
struct MailboxDiscipline {
  std::uint64_t owner = 0;

  void set_owner(std::uint64_t id) noexcept { owner = id + 1; }

  void note_consume(std::uint64_t id, double vtime) {
    if (!enabled()) return;
    if (owner == 0) {
      owner = id + 1;
      return;
    }
    if (owner != id + 1) {
      fail(Invariant::kMailboxConsumer,
           "mailbox owned by consumer " + std::to_string(owner - 1) +
               " consumed by " + std::to_string(id),
           vtime);
    }
  }
};

}  // namespace opalsim::sim::audit
