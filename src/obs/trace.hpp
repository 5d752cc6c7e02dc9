// Structured observability: one TraceSink threaded through every stack layer.
//
// The DES engine, the PVM transport, the sciddle RPC middleware, the fault
// layer and ParallelOpal all emit TraceEvents — (virtual time, seq, node,
// category, name, args) — into the thread's current sink.  A MemorySink
// collects them for export as Chrome trace_event JSON (loadable in Perfetto:
// one pid per simulated node, virtual seconds mapped to microsecond ticks),
// as CSV, or as a text Gantt chart of the RPC phases;
// tools/trace/summarize_trace.py recomputes the paper's five-way phase
// breakdown from such a trace alone.
//
// Determinism: the DES executes one coroutine at a time in a fixed (t, seq)
// total order, so the sequence of record() calls — and hence the sink's own
// seq numbering — is bit-identical for identical runs, on any host thread
// count.
// Exports sort on (t, seq), making trace files byte-identical for identical
// runs.
//
// Cost discipline: no sink is installed by default.  Every emission site
// guards on obs::enabled(), a thread-local pointer test, and event payloads
// are PODs with static-string names — the disabled path performs no
// allocation and no virtual call (bench_e2e's untraced wall_s holds the
// cost).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/domains.hpp"

namespace opalsim::obs {

/// Which layer emitted the event.  Doubles as the Perfetto track (tid)
/// within a node's process group.
enum class Cat : std::uint8_t {
  kEngine = 0,  ///< DES engine: schedule/pop/spawn/exit/cancel
  kPvm = 1,     ///< transport: send/deliver/recv/barrier
  kRpc = 2,     ///< middleware phases: call/compute/return/sync/recovery
  kFault = 3,   ///< injected faults: drop/duplicate/corrupt/stall/kill
  kPhase = 4,   ///< application phase transitions (ParallelOpal)
  kCkpt = 5,    ///< checkpoint/restart: image writes, deferrals, resumes
};

/// Chrome trace_event phase letter.
enum class Ph : char {
  kBegin = 'B',    ///< span open
  kEnd = 'E',      ///< span close
  kInstant = 'i',  ///< point event
};

/// One optional numeric argument.  Names must be string literals (the event
/// never owns storage).
struct Arg {
  const char* name = nullptr;
  double value = 0.0;
};

/// One trace record.  `node` is the simulated node (-1 = engine/global);
/// `seq` is assigned by the sink in record order, which the single-threaded
/// DES makes deterministic.
struct TraceEvent {
  double t = 0.0;  ///< virtual seconds
  std::uint64_t seq = 0;
  std::int32_t node = -1;
  Cat cat = Cat::kEngine;
  Ph ph = Ph::kInstant;
  const char* name = "";
  Arg a0;
  Arg a1;
};

class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& e) = 0;
};

/// Explicit no-op sink: recording through it is defined (and free) even
/// though the usual disabled path is "no sink installed at all".
class NullSink final : public TraceSink {
 public:
  void record(const TraceEvent&) override {}
};

/// Collects events in memory for later export.  Assigns seq in arrival
/// order.  Deliberately unsynchronized: one sink belongs to one DES run and
/// is only driven from that run's host thread (the run-isolation audit
/// enforces the ownership; concurrent sweep runs each get their own sink).
class MemorySink final : public TraceSink {
 public:
  void record(const TraceEvent& e) override {
    TraceEvent copy = e;
    copy.seq = next_seq_++;
    events_.push_back(copy);
  }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  void clear() noexcept {
    events_.clear();
    next_seq_ = 0;
  }

  /// Next seq this sink will assign.  Checkpointed and restored so a resumed
  /// run's trace tail numbers events exactly as the golden run does (seq
  /// appears in every export row).
  std::uint64_t next_seq() const noexcept { return next_seq_; }
  void set_next_seq(std::uint64_t seq) noexcept { next_seq_ = seq; }

  /// Events sorted by (t, seq) — the deterministic emission order every
  /// export uses.
  std::vector<TraceEvent> sorted_events() const;

  /// Chrome trace_event JSON (Perfetto-loadable): pid = node + 1 with
  /// process_name metadata, tid = category track, ts = virtual µs.
  std::string to_chrome_json() const;

  /// CSV rows: t,seq,node,cat,ph,name,arg0,val0,arg1,val1 (RFC 4180
  /// escaping).
  std::string to_csv() const;

  /// Text Gantt chart of the kRpc spans: one row per node (labelled like
  /// the Chrome export's process names), `columns` cells across the traced
  /// span; each cell shows the first letter of the phase occupying it
  /// ('.' = idle), a nested span drawn over its parent.  Other categories
  /// are ignored.
  std::string to_gantt(int columns = 72) const;

 private:
  /// Indices into events_ in (t, seq) order.
  std::vector<std::size_t> sorted_order() const;

  std::vector<TraceEvent> events_;
  std::uint64_t next_seq_ = 0;
};

namespace detail {
inline thread_local TraceSink* tl_sink = nullptr;
}  // namespace detail

/// True when a sink is installed on this thread.  Hot paths test this before
/// assembling event arguments.
inline bool enabled() noexcept { return detail::tl_sink != nullptr; }

/// The thread's current sink, or nullptr when tracing is disabled.
inline TraceSink* current() noexcept { return detail::tl_sink; }

/// RAII: installs `sink` as the thread's current sink, restoring the
/// previous one (usually none) on destruction.
class ScopedSink {
 public:
  explicit ScopedSink(TraceSink& sink) noexcept : prev_(detail::tl_sink) {
    detail::tl_sink = &sink;
  }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;
  ~ScopedSink() { detail::tl_sink = prev_; }

 private:
  TraceSink* prev_;
};

/// Emits an instant event at virtual time `t` on `node`'s track.
inline void instant(Cat cat, const char* name, double t, int node,
                    Arg a0 = {}, Arg a1 = {}) {
  TraceSink* s = detail::tl_sink;
  if (s == nullptr) return;
  TraceEvent e;
  e.t = t;
  e.node = node;
  e.cat = cat;
  e.ph = Ph::kInstant;
  e.name = name;
  e.a0 = a0;
  e.a1 = a1;
  s->record(e);
}

/// Emits a [t0, t1] span as a B/E pair (args ride on the B event).  Spans on
/// one (node, category) track must not partially overlap; the layers only
/// record sequential or properly nested intervals per track.
inline void span(Cat cat, const char* name, double t0, double t1, int node,
                 Arg a0 = {}, Arg a1 = {}) {
  TraceSink* s = detail::tl_sink;
  if (s == nullptr) return;
  TraceEvent b;
  b.t = t0;
  b.node = node;
  b.cat = cat;
  b.ph = Ph::kBegin;
  b.name = name;
  b.a0 = a0;
  b.a1 = a1;
  s->record(b);
  TraceEvent e;
  e.t = t1;
  e.node = node;
  e.cat = cat;
  e.ph = Ph::kEnd;
  e.name = name;
  s->record(e);
}

/// Track (category) name used in exports and by the summarizer.
const char* cat_name(Cat cat) noexcept;

/// OPALSIM_TRACE environment knob (empty string when unset).
HOST_ONLY std::string trace_path_from_env();
/// OPALSIM_METRICS environment knob (empty string when unset).
HOST_ONLY std::string metrics_path_from_env();

/// Disambiguates `path` across multiple traced runs in one process (e.g. a
/// sweep fanned over the thread pool): the first request for a given base
/// path returns it unchanged, the nth gets ".n" spliced in before the
/// extension.  Thread-safe; numbering follows run-start order.
HOST_ONLY std::string unique_output_path(const std::string& path);

/// Writes `content` to `path`; returns false on I/O failure.
HOST_ONLY bool write_file(const std::string& path, const std::string& content);

}  // namespace opalsim::obs
