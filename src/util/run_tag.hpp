// Host-thread run tagging — the substrate of the audit layer's run-isolation
// invariant (sim/audit.hpp), kept in util so the sweep thread pool can open
// scopes without a layering cycle onto sim.
//
// A "run" is one independent DES execution in a pooled sweep.  Opening a
// RunTagScope stamps the current host thread with a fresh nonzero id; a
// sim::Engine latches the id current at its construction and (when the
// auditor is on) refuses to be driven from any other scope.  Ids are only
// ever compared for equality and never emitted into results, so the atomic
// id source cannot perturb output determinism.
#pragma once

#include <atomic>
#include <cstdint>

namespace opalsim::util {

namespace detail {
inline std::atomic<std::uint64_t> g_next_run_tag{1};
inline thread_local std::uint64_t t_run_tag = 0;
}  // namespace detail

/// The run tag of the calling thread (0 = default scope, outside any sweep).
inline std::uint64_t current_run_tag() noexcept { return detail::t_run_tag; }

/// RAII: tags the calling thread with a fresh run id for one sweep index.
class RunTagScope {
 public:
  RunTagScope() noexcept
      : id_(detail::g_next_run_tag.fetch_add(1, std::memory_order_relaxed)),
        prev_(detail::t_run_tag) {
    detail::t_run_tag = id_;
  }
  ~RunTagScope() { detail::t_run_tag = prev_; }
  RunTagScope(const RunTagScope&) = delete;
  RunTagScope& operator=(const RunTagScope&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_;
  std::uint64_t prev_;
};

}  // namespace opalsim::util
