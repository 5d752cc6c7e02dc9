#include "sim/audit.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "util/env.hpp"
#include "util/sync.hpp"

namespace opalsim::sim::audit {

namespace {

// The enable flag is process-global and read on engine hot paths; relaxed
// atomics keep the read race-free under TSan without fencing cost.
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_latched{false};

// Capture state (test hook).  A mutex rather than atomics: violations are
// cold, and capture accessors need a consistent (count, invariant, report)
// triple even when sweep workers report concurrently.
util::Mutex g_capture_mutex;
bool g_capturing GUARDED_BY(g_capture_mutex) = false;
int g_capture_count GUARDED_BY(g_capture_mutex) = 0;
Invariant g_capture_last GUARDED_BY(g_capture_mutex) =
    Invariant::kTimeMonotonic;
std::string g_capture_report GUARDED_BY(g_capture_mutex);

void latch_from_env() noexcept {
  bool expected = false;
  if (!g_latched.compare_exchange_strong(expected, true)) return;
  // OPALSIM_AUDIT=1/0 wins; unset defaults to on only in debug builds,
  // where the cost of the checks is already accepted.
#ifdef NDEBUG
  const long fallback = 0;
#else
  const long fallback = 1;
#endif
  g_enabled.store(util::env_long("OPALSIM_AUDIT", fallback) != 0,
                  std::memory_order_relaxed);
}

}  // namespace

const char* invariant_name(Invariant inv) noexcept {
  switch (inv) {
    case Invariant::kTimeMonotonic:
      return "time-monotonic";
    case Invariant::kChannelFifo:
      return "channel-fifo";
    case Invariant::kMailboxConsumer:
      return "mailbox-consumer";
    case Invariant::kRunIsolation:
      return "run-isolation";
    case Invariant::kResourceBalance:
      return "resource-balance";
  }
  return "unknown";
}

bool enabled() noexcept {
  latch_from_env();
  return g_enabled.load(std::memory_order_relaxed);
}

void fail(Invariant inv, const std::string& detail, double vtime) {
  std::string report = "opalsim audit violation\n";
  report += "  invariant: ";
  report += invariant_name(inv);
  report += "\n  detail:    " + detail + "\n";
  if (vtime >= 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "  vtime:     %.9g s\n", vtime);
    report += buf;
  }
  {
    util::ScopedLock lk(g_capture_mutex);
    if (g_capturing) {
      ++g_capture_count;
      g_capture_last = inv;
      g_capture_report = report;
      return;
    }
  }
  std::fputs(report.c_str(), stderr);
  std::fflush(stderr);
  std::abort();
}

ScopedEnable::ScopedEnable(bool on) noexcept {
  latch_from_env();
  prev_ = g_enabled.exchange(on, std::memory_order_relaxed);
}

ScopedEnable::~ScopedEnable() {
  g_enabled.store(prev_, std::memory_order_relaxed);
}

ViolationCapture::ViolationCapture() : enable_(true) {
  util::ScopedLock lk(g_capture_mutex);
  g_capturing = true;
  g_capture_count = 0;
  g_capture_report.clear();
}

ViolationCapture::~ViolationCapture() {
  util::ScopedLock lk(g_capture_mutex);
  g_capturing = false;
}

int ViolationCapture::count() const {
  util::ScopedLock lk(g_capture_mutex);
  return g_capture_count;
}

Invariant ViolationCapture::last_invariant() const {
  util::ScopedLock lk(g_capture_mutex);
  return g_capture_last;
}

std::string ViolationCapture::last_report() const {
  util::ScopedLock lk(g_capture_mutex);
  return g_capture_report;
}

void check_run(std::uint64_t owner_tag, double vtime) {
  if (!enabled()) return;
  const std::uint64_t here = util::current_run_tag();
  if (owner_tag != here) {
    fail(Invariant::kRunIsolation,
         "engine owned by run scope " + std::to_string(owner_tag) +
             " driven from run scope " + std::to_string(here),
         vtime);
  }
}

}  // namespace opalsim::sim::audit
