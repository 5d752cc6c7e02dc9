#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string_view>
#include <type_traits>
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

/// Appends one export field: text as it is, an integer in decimal, a
/// double as a round-trippable decimal (the digits of printf's "%.17g").
void put(std::string& out, std::string_view text) { out += text; }
void put(std::string& out, char c) { out += c; }

void put(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, 17)
                      .ptr);
}

template <typename Int, std::enable_if_t<std::is_integral_v<Int>, int> = 0>
void put(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

template <typename... Fields>
void append(std::string& out, const Fields&... fields) {
  (put(out, fields), ...);
}

/// Appends one CSV cell with RFC 4180 quoting (util::CsvWriter::escape).
void put_cell(std::string& out, const char* cell) {
  if (std::strpbrk(cell, ",\"\n\r") == nullptr) {
    out += cell;
  } else {
    out += util::CsvWriter::escape(cell);
  }
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

std::vector<std::size_t> MemorySink::sorted_order() const {
  std::vector<std::size_t> order(events_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const TraceEvent& x = events_[a];
    const TraceEvent& y = events_[b];
    if (x.t != y.t) return x.t < y.t;
    return x.seq < y.seq;
  });
  return order;
}

std::vector<TraceEvent> MemorySink::sorted_events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (const std::size_t k : sorted_order()) out.push_back(events_[k]);
  return out;
}

std::string MemorySink::to_chrome_json() const {
  const std::vector<std::size_t> order = sorted_order();

  // Track inventory: pid = node + 1 (node -1, the engine's global track
  // group, becomes pid 0); tid = category index.
  std::map<int, std::map<int, const char*>> tracks;  // pid -> tid -> name
  for (const TraceEvent& e : events_) {
    tracks[e.node + 1][static_cast<int>(e.cat)] = cat_name(e.cat);
  }

  std::string out;
  out.reserve(160 * (events_.size() + 8));
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const auto& [pid, tids] : tracks) {
    sep();
    append(out, "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":", pid,
           ",\"tid\":0,\"args\":{\"name\":\"", node_label(pid - 1), "\"}}");
    for (const auto& [tid, tname] : tids) {
      sep();
      append(out, "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":", pid,
             ",\"tid\":", tid, ",\"args\":{\"name\":\"", tname, "\"}}");
    }
  }
  for (const std::size_t k : order) {
    const TraceEvent& e = events_[k];
    sep();
    append(out, "{\"name\":\"", e.name, "\",\"cat\":\"", cat_name(e.cat),
           "\",\"ph\":\"", static_cast<char>(e.ph), "\",\"ts\":", e.t * 1e6,
           ",\"pid\":", e.node + 1, ",\"tid\":", static_cast<int>(e.cat));
    if (e.ph == Ph::kInstant) out += ",\"s\":\"t\"";
    append(out, ",\"args\":{\"seq\":", e.seq);
    for (const Arg* a : {&e.a0, &e.a1}) {
      if (a->name != nullptr) append(out, ",\"", a->name, "\":", a->value);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string MemorySink::to_csv() const {
  std::string out;
  out.reserve(80 * (events_.size() + 1));
  out += "t,seq,node,cat,ph,name,arg0,val0,arg1,val1\n";
  for (const std::size_t k : sorted_order()) {
    const TraceEvent& e = events_[k];
    append(out, e.t, ',', e.seq, ',', e.node, ',', cat_name(e.cat), ',',
           static_cast<char>(e.ph), ',');
    put_cell(out, e.name);
    for (const Arg* a : {&e.a0, &e.a1}) {
      out += ',';
      if (a->name == nullptr) {
        out += ',';
        continue;
      }
      put_cell(out, a->name);
      append(out, ',', a->value);
    }
    out += '\n';
  }
  return out;
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
  for (const std::size_t k : sorted_order()) {
    const TraceEvent& e = events_[k];
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
