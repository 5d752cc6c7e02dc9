#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/sync.hpp"

namespace opalsim::obs {

namespace {

// unique_output_path bookkeeping: sweeps fan traced runs over the thread
// pool, so the per-base-path counters are cross-thread shared state.  The
// map is heap-allocated on first use and deliberately leaked — worker
// threads may still splice paths during process teardown after a static
// map would already have been destroyed.
util::Mutex g_path_mutex;
std::map<std::string, int>* g_path_counts GUARDED_BY(g_path_mutex) = nullptr;

/// Shortest round-trippable decimal for a double (JSON/CSV cells).
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Export label of a node's process group (node -1 is the engine's).
std::string node_label(int node) {
  return node < 0 ? std::string("engine") : "node " + std::to_string(node);
}

}  // namespace

const char* cat_name(Cat cat) noexcept {
  switch (cat) {
    case Cat::kEngine: return "engine";
    case Cat::kPvm: return "pvm";
    case Cat::kRpc: return "rpc";
    case Cat::kFault: return "fault";
    case Cat::kPhase: return "phase";
    case Cat::kCkpt: return "ckpt";
  }
  return "?";
}

std::vector<TraceEvent> MemorySink::sorted_events() const {
  std::vector<TraceEvent> out = events_;
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.seq < b.seq;
            });
  return out;
}

std::string MemorySink::to_chrome_json() const {
  const std::vector<TraceEvent> sorted = sorted_events();

  // Track inventory: pid = node + 1 (node -1, the engine's global track
  // group, becomes pid 0); tid = category index.
  std::map<int, std::map<int, const char*>> tracks;  // pid -> tid -> name
  for (const TraceEvent& e : sorted) {
    tracks[e.node + 1][static_cast<int>(e.cat)] = cat_name(e.cat);
  }

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& [pid, tids] : tracks) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << node_label(pid - 1)
       << "\"}}";
    for (const auto& [tid, tname] : tids) {
      sep();
      os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << tname
         << "\"}}";
    }
  }
  for (const TraceEvent& e : sorted) {
    sep();
    os << "{\"name\":\"" << e.name << "\",\"cat\":\"" << cat_name(e.cat)
       << "\",\"ph\":\"" << static_cast<char>(e.ph)
       << "\",\"ts\":" << fmt(e.t * 1e6) << ",\"pid\":" << (e.node + 1)
       << ",\"tid\":" << static_cast<int>(e.cat);
    if (e.ph == Ph::kInstant) os << ",\"s\":\"t\"";
    os << ",\"args\":{\"seq\":" << e.seq;
    if (e.a0.name != nullptr) {
      os << ",\"" << e.a0.name << "\":" << fmt(e.a0.value);
    }
    if (e.a1.name != nullptr) {
      os << ",\"" << e.a1.name << "\":" << fmt(e.a1.value);
    }
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string MemorySink::to_csv() const {
  std::ostringstream os;
  util::CsvWriter writer(os);
  writer.write_row({"t", "seq", "node", "cat", "ph", "name", "arg0", "val0",
                    "arg1", "val1"});
  for (const TraceEvent& e : sorted_events()) {
    writer.write_row({fmt(e.t), std::to_string(e.seq),
                      std::to_string(e.node), cat_name(e.cat),
                      std::string(1, static_cast<char>(e.ph)), e.name,
                      e.a0.name != nullptr ? e.a0.name : "",
                      e.a0.name != nullptr ? fmt(e.a0.value) : "",
                      e.a1.name != nullptr ? e.a1.name : "",
                      e.a1.name != nullptr ? fmt(e.a1.value) : ""});
  }
  return os.str();
}

std::string MemorySink::to_gantt(int columns) const {
  struct Span {
    int node;
    const char* name;
    double t0;
    double t1;
  };
  // Pair each E with the innermost open B of the same name on its node (a
  // span the RPC layer records before its enclosing window may share that
  // window's start time, and so sort before it).
  std::vector<Span> spans;
  std::map<int, std::vector<std::size_t>> open;  // node -> open span indices
  for (const TraceEvent& e : sorted_events()) {
    if (e.cat != Cat::kRpc) continue;
    std::vector<std::size_t>& stack = open[e.node];
    if (e.ph == Ph::kBegin) {
      stack.push_back(spans.size());
      spans.push_back({e.node, e.name, e.t, e.t});
    } else if (e.ph == Ph::kEnd) {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (std::strcmp(spans[*it].name, e.name) != 0) continue;
        spans[*it].t1 = e.t;
        stack.erase(std::next(it).base());
        break;
      }
    }
  }
  if (spans.empty()) return "(empty trace)\n";
  // Paint outer spans first so nested ones stay visible: by start, the
  // longer of two spans with one start first.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& x, const Span& y) {
                     if (x.t0 != y.t0) return x.t0 < y.t0;
                     return x.t1 > y.t1;
                   });

  columns = std::max(columns, 1);
  double t0 = spans.front().t0;
  double t1 = spans.front().t1;
  for (const Span& sp : spans) {
    t0 = std::min(t0, sp.t0);
    t1 = std::max(t1, sp.t1);
  }
  const double width = t1 > t0 ? t1 - t0 : 1.0;

  std::map<int, std::string> rows;  // node -> cells
  std::size_t label_width = 0;
  for (const Span& sp : spans) {
    rows.try_emplace(sp.node, std::string(columns, '.'));
    label_width = std::max(label_width, node_label(sp.node).size());
  }
  for (const Span& sp : spans) {
    auto lo = static_cast<int>((sp.t0 - t0) / width * columns);
    auto hi = static_cast<int>((sp.t1 - t0) / width * columns);
    lo = std::clamp(lo, 0, columns - 1);
    hi = std::clamp(hi, lo, columns - 1);
    const char c = sp.name[0] == '\0' ? '?' : sp.name[0];
    std::string& row = rows[sp.node];
    for (int k = lo; k <= hi; ++k) row[k] = c;
  }

  std::ostringstream os;
  os << "timeline [" << t0 << " s .. " << t1 << " s]\n";
  for (const auto& [node, row] : rows) {
    std::string label = node_label(node);
    label.resize(label_width, ' ');
    os << label << " |" << row << "|\n";
  }
  return os.str();
}

std::string trace_path_from_env() {
  return util::env_string("OPALSIM_TRACE").value_or("");
}

std::string metrics_path_from_env() {
  return util::env_string("OPALSIM_METRICS").value_or("");
}

std::string unique_output_path(const std::string& path) {
  util::ScopedLock lock(g_path_mutex);
  if (g_path_counts == nullptr) g_path_counts = new std::map<std::string, int>();
  const int n = ++(*g_path_counts)[path];
  if (n == 1) return path;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + "." + std::to_string(n);
  }
  return path.substr(0, dot) + "." + std::to_string(n) + path.substr(dot);
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os << content;
  return static_cast<bool>(os);
}

}  // namespace opalsim::obs
