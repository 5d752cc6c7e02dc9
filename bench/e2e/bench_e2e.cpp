// bench_e2e: end-to-end host-time benchmark of the paper's workloads, with
// host time attributed to the simulator's layers.
//
//   bench_e2e --workload W --seed S --seconds T --trace 0|1
//             [--scale PCT] [--workdir DIR] [--check-f4]
//
// One process runs one workload and prints one JSON object as its last
// stdout line.  bench/e2e/run_e2e.py builds this binary, runs it with a
// scrubbed environment and turns that object into the benchmark's result;
// bench/e2e/README.md documents the workloads, metrics and rules.
//
// --trace 0 times closed-loop repetitions ("reps") for T seconds and
// reports the end-to-end metrics.  --trace 1 alternates untraced reps with a
// *layer replay* — the run's exact call sequence into opal and pvm, issued
// from this file and timed call by call — then makes one traced run for the
// engine/middleware counters, and reports the per-layer metrics.  Spans stay
// in memory and are written to <workdir>/BENCH_e2e.spans.<W>.json at exit.
// Every mode checks its outputs; each failed check counts in "failed".
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "doe/design.hpp"
#include "mach/platforms_db.hpp"
#include "model/calibrate.hpp"
#include "model/prediction.hpp"
#include "opal/complex.hpp"
#include "opal/forcefield.hpp"
#include "opal/pairs.hpp"
#include "opal/parallel.hpp"
#include "opal/serial.hpp"
#include "opal/soa.hpp"
#include "pvm/pack_buffer.hpp"
#include "sim/fault.hpp"
#include "util/host_timer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace opalsim;

// ---- command line ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  double scale = 1.0;  ///< multiplies the workload's molecule sizes
  std::string workdir = ".";
  bool check_f4 = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why << "\n"
            << "usage: bench_e2e --workload calib_sweep|large_nocut|"
               "medium_cut_full|small_lossy --seed S --seconds T --trace 0|1\n"
               "       [--scale PCT] [--workdir DIR] [--check-f4]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--check-f4") {
      a.check_f4 = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = val == "1";
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
    } else if (key == "--scale") {
      a.scale = std::strtod(val.c_str(), &end) / 100.0;
    } else if (key == "--workdir") {
      a.workdir = val;
    } else {
      usage("unknown option " + key);
    }
    if (end != nullptr && *end != '\0') usage("bad number for " + key);
  }
  if (a.workload != "calib_sweep" && a.workload != "large_nocut" &&
      a.workload != "medium_cut_full" && a.workload != "small_lossy") {
    usage("unknown or missing --workload '" + a.workload + "'");
  }
  if (!(a.seconds >= 0.0) || !(a.scale > 0.0)) usage("bad --seconds/--scale");
  return a;
}

// ---- inputs -----------------------------------------------------------------

/// The workload seed feeds only the input generators.  Seed 42 reproduces
/// the inputs of the shipped artifacts (complex seed 42, pair-distribution
/// seed 1, fault seed 0xfa17); any other seed derives all three.
struct Seeds {
  std::uint64_t complex = 42;
  std::uint64_t distribution = 1;
  std::uint64_t fault = 0xfa17;
};

Seeds derive_seeds(std::uint64_t seed) {
  if (seed == 42) return {};
  util::SplitMix64 sm(seed);
  Seeds s;
  s.complex = sm.next();
  s.distribution = sm.next();
  s.fault = sm.next();
  return s;
}

/// One of the paper's complexes (§2.4/§2.5) at `scale` of its mass-center
/// counts, rounded as bench_common.hpp's OPALSIM_SCALE does.
opal::MolecularComplex make_complex(const std::string& size, double scale,
                                    std::uint64_t seed) {
  std::size_t solute = 504, water = 996;
  if (size == "medium") solute = 1575, water = 2714;
  if (size == "large") solute = 1655, water = 4634;
  auto scaled = [scale](std::size_t count) {
    const auto s =
        static_cast<std::size_t>(static_cast<double>(count) * scale);
    return s < 2 ? std::size_t{2} : s;
  };
  opal::SyntheticSpec spec;
  spec.name = size;
  spec.n_solute = scaled(solute);
  spec.n_water = scaled(water);
  spec.seed = seed;
  return opal::make_synthetic_complex(spec);
}

/// One ParallelOpal run of a workload.
struct RunSpec {
  const opal::MolecularComplex* mc = nullptr;  ///< owned by Inputs
  int p = 1;
  opal::SimulationConfig cfg;
  mach::PlatformSpec platform;
  sciddle::Options middleware;
};

struct Inputs {
  std::vector<opal::MolecularComplex> complexes;
  std::vector<RunSpec> runs;
  std::unique_ptr<util::ThreadPool> pool;  ///< calib_sweep only
};

bool is_sweep(const std::string& workload) {
  return workload == "calib_sweep";
}

// calib_sweep runs the Fig. 4 design on molecules at half the paper's
// center counts (a quarter of the pairs): a rep then takes seconds, not
// tens of seconds, so a run measures several reps.  --check-f4 runs the
// full-scale design once to pin EXPERIMENTS.md F4.
constexpr double kSweepScale = 0.5;
constexpr int kServers = 7;
constexpr double kLossRate = 0.01;

/// Fig. 4's full factorial (7 p x 3 sizes x 2 cut-off x 2 update = 84 runs)
/// in bench_fig4_calibration's run order, which fixes the fit's input order.
Inputs make_sweep_inputs(double scale, const Seeds& seeds) {
  Inputs in;
  const std::vector<std::string> sizes = {"small", "medium", "large"};
  for (const std::string& size : sizes) {
    in.complexes.push_back(make_complex(size, scale, seeds.complex));
  }
  const doe::FullFactorial space(
      {{"servers", {"1", "2", "3", "4", "5", "6", "7"}},
       {"size", sizes},
       {"cutoff", {"none", "10A"}},
       {"update", {"full", "partial"}}});
  for (std::size_t run = 0; run < space.num_runs(); ++run) {
    RunSpec r;
    r.p = std::stoi(space.level_name(run, 0));
    const std::string& size = space.level_name(run, 1);
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      if (sizes[k] == size) r.mc = &in.complexes[k];
    }
    r.cfg.cutoff = space.level_name(run, 2) == "10A" ? 10.0 : -1.0;
    r.cfg.update_every = space.level_name(run, 3) == "partial" ? 10 : 1;
    r.cfg.seed = seeds.distribution;
    r.platform = mach::cray_j90();
    in.runs.push_back(r);
  }
  in.pool = std::make_unique<util::ThreadPool>();
  return in;
}

/// small_lossy's middleware: fault tolerant, every wait timing out after
/// `timeout_s` (0 keeps the library default, for the fault-free twin).
sciddle::Options fault_tolerant(double timeout_s) {
  sciddle::Options mw;
  mw.retry.enabled = true;
  if (timeout_s > 0.0) {
    mw.retry.timeout_s = timeout_s;
    mw.retry.heartbeat_timeout_s = timeout_s;
  }
  return mw;
}

/// Inputs of a single-run workload.  `timeout_s` is small_lossy's retry
/// timeout; 0 builds its fault-free twin instead.
Inputs make_single_inputs(const std::string& workload, double scale,
                          const Seeds& seeds, double timeout_s) {
  Inputs in;
  RunSpec r;
  r.p = kServers;
  r.platform = mach::cray_j90();
  r.cfg.seed = seeds.distribution;
  if (workload == "large_nocut") {  // Fig. 2a cell
    in.complexes.push_back(make_complex("large", scale, seeds.complex));
    r.cfg.steps = 10;
  } else if (workload == "medium_cut_full") {  // Fig. 1c cell
    in.complexes.push_back(make_complex("medium", scale, seeds.complex));
    r.cfg.steps = 60;
    r.cfg.cutoff = 10.0;
  } else if (workload == "small_lossy") {
    in.complexes.push_back(make_complex("small", scale, seeds.complex));
    r.cfg.steps = 400;
    r.cfg.cutoff = 10.0;
    r.cfg.update_every = 10;
    r.middleware = fault_tolerant(timeout_s);
    if (timeout_s > 0.0) {
      sim::FaultSpec fault;
      fault.seed = seeds.fault;
      fault.drop_rate = kLossRate;
      r.platform = mach::with_faults(r.platform, fault);
    }
  }
  r.mc = &in.complexes.front();
  in.runs.push_back(r);
  return in;
}

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of a non-empty sample.
double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

/// FNV-1a over the bit patterns of a run's results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const opal::ParallelRunResult& r) {
    const opal::RunMetrics& m = r.metrics;
    for (const double v : {m.par_update, m.par_nbint, m.seq_comp, m.call_upd,
                           m.return_upd, m.call_nbi, m.return_nbi, m.sync,
                           m.idle, m.recovery, m.wall}) {
      add(v);
    }
    for (const std::uint64_t v :
         {m.pairs_checked, m.pairs_evaluated, m.list_updates, m.retries,
          m.timeouts, m.heartbeats, m.failovers, m.servers_failed,
          m.msgs_dropped, m.msgs_duplicated, m.msgs_corrupted}) {
      add(v);
    }
    const opal::SimResult& s = r.physics;
    for (const double v : {s.evdw, s.ecoul, s.bonded.bond, s.bonded.angle,
                           s.bonded.dihedral, s.bonded.improper, s.kinetic,
                           s.temperature, s.pressure, s.volume}) {
      add(v);
    }
  }
  void add(const model::ModelParams& p) {
    for (const double v : {p.a1, p.b1, p.a2, p.a3, p.a4, p.b5}) add(v);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- spans ------------------------------------------------------------------

/// Seconds since process start, the time base of every span.
double now_s() {
  static const util::HostTimer epoch;
  return epoch.seconds();
}

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index in the same log, -1 for a root
};

/// One thread's spans, in opening order.  Spans nest strictly (a scope
/// closes before its parent), so a span's children cover disjoint parts of
/// it and self time = duration - sum of the children's durations.
class SpanLog {
 public:
  int open(const char* name) {
    spans_.push_back(Span{name, now_s(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now_s();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time summed per span name.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
      }
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name] += self[i];
    }
    return by_name;
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), index_(log.open(name)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

// ---- layer replay -----------------------------------------------------------

/// Counts and physics of one replayed run.
struct Replay {
  std::map<std::string, double> self_s;  ///< per layer span name
  std::uint64_t domain_pairs = 0;
  std::uint64_t update_rounds = 0;
  std::uint64_t update_calls = 0;
  std::uint64_t cut_updates = 0;   ///< update() calls with a cut-off
  std::uint64_t cell_updates = 0;  ///< ... served by the cell list
  std::uint64_t pairs_checked = 0;
  std::uint64_t pairs_evaluated = 0;
  std::uint64_t bonded_calls = 0;
  std::uint64_t messages = 0;  ///< RPC payload messages (calls + replies)
  double potential = 0.0;
};

/// Client -> server coordinate message: pack 3n f64, unpack on arrival.
std::vector<double> ship(SpanLog& log, const std::vector<double>& coords,
                         Replay& out) {
  const ScopedSpan span(log, "pvm.pack");
  pvm::PackBuffer msg;
  msg.pack_f64_array(coords);
  ++out.messages;
  return msg.unpack_f64_array();
}

/// Issues the call sequence of ParallelOpal::run on the same inputs — one
/// replica, CentersSoA and gradient per server, the client's reduction,
/// bonded terms and leapfrog step — with a span around every call.  The
/// physics is that of the real run, bit for bit.
Replay replay(const RunSpec& r, SpanLog& log) {
  Replay out;
  const ScopedSpan root(log, "replay");
  const opal::SimulationConfig& cfg = r.cfg;
  opal::MolecularComplex mc = *r.mc;
  const auto n = static_cast<std::uint32_t>(mc.n());

  std::vector<std::vector<opal::PairIdx>> domains;
  {
    const ScopedSpan span(log, "opal.build_domains");
    domains = opal::build_domains(n, r.p, cfg.strategy, cfg.seed);
  }
  out.domain_pairs = mc.num_pairs();

  struct Server {
    opal::MolecularComplex replica;
    opal::ServerDomain domain;
    opal::CentersSoA soa;
    std::vector<opal::Vec3> grad;
  };
  std::vector<Server> servers(static_cast<std::size_t>(r.p));
  for (std::size_t s = 0; s < servers.size(); ++s) {
    servers[s].replica = mc;
    servers[s].domain = opal::ServerDomain(std::move(domains[s]));
    servers[s].grad.resize(n);
    servers[s].soa.refresh_params(servers[s].replica);
  }

  std::vector<opal::Vec3> velocities(n), grad(n);
  opal::SimResult physics;
  hpm::OpCounts seq_ops;
  for (int step = 0; step < cfg.steps; ++step) {
    std::vector<double> coords;
    {
      const ScopedSpan span(log, "opal.client");
      coords = mc.flat_coordinates();
    }
    if (step % cfg.update_every == 0) {
      ++out.update_rounds;
      for (Server& sv : servers) {
        const std::vector<double> flat = ship(log, coords, out);
        const ScopedSpan span(log, "opal.update");
        sv.replica.set_flat_coordinates(flat);
        out.pairs_checked += sv.domain.update(sv.replica, cfg.cutoff,
                                              cfg.pair_path);
        ++out.update_calls;
        ++out.messages;  // the empty reply
      }
    }
    std::vector<pvm::PackBuffer> replies(servers.size());
    for (std::size_t s = 0; s < servers.size(); ++s) {
      Server& sv = servers[s];
      const std::vector<double> flat = ship(log, coords, out);
      double evdw = 0.0, ecoul = 0.0;
      {
        const ScopedSpan span(log, "opal.nbint");
        sv.replica.set_flat_coordinates(flat);
        sv.soa.refresh_positions(sv.replica);
        std::fill(sv.grad.begin(), sv.grad.end(), opal::Vec3{});
        opal::nonbonded_batch(sv.soa, sv.domain.active(), evdw, ecoul,
                              sv.grad);
        out.pairs_evaluated += sv.domain.active_size();
      }
      const ScopedSpan span(log, "pvm.pack");
      replies[s].pack_f64(evdw);
      replies[s].pack_f64(ecoul);
      std::vector<double> g(3 * static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < n; ++i) {
        g[3 * i] = sv.grad[i].x;
        g[3 * i + 1] = sv.grad[i].y;
        g[3 * i + 2] = sv.grad[i].z;
      }
      replies[s].pack_f64_array(g);
      ++out.messages;
    }
    {
      const ScopedSpan span(log, "opal.client");
      double evdw = 0.0, ecoul = 0.0;
      std::fill(grad.begin(), grad.end(), opal::Vec3{});
      for (pvm::PackBuffer& reply : replies) {
        std::vector<double> flat;
        {
          const ScopedSpan unpack(log, "pvm.pack");
          evdw += reply.unpack_f64();
          ecoul += reply.unpack_f64();
          flat = reply.unpack_f64_array();
        }
        for (std::size_t i = 0; i < n; ++i) {
          grad[i] += opal::Vec3{flat[3 * i], flat[3 * i + 1], flat[3 * i + 2]};
        }
      }
      physics.evdw = evdw;
      physics.ecoul = ecoul;
    }
    {
      const ScopedSpan span(log, "opal.bonded");
      physics.bonded = opal::evaluate_bonded(mc, grad, &seq_ops);
      ++out.bonded_calls;
    }
    const ScopedSpan span(log, "opal.client");
    opal::fill_observables(mc, velocities, grad, physics);
    opal::leapfrog_step(mc, velocities, grad, cfg.dt);
  }
  for (const Server& sv : servers) {
    out.cut_updates += sv.domain.stats().updates;
    out.cell_updates += sv.domain.stats().cell_updates;
  }
  out.potential = physics.potential();
  return out;
}

// ---- checks and results -----------------------------------------------------

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) failures_.push_back(what);
  }
  void attempted(std::uint64_t n) { attempted_ += n; }
  std::uint64_t attempted() const noexcept { return attempted_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::vector<double> samples;  ///< timings: the quartiles come from these
};

using Metrics = std::map<std::string, Metric>;

void put(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m[name] = Metric{value, unit, {}};
}

void put_timing(Metrics& m, const std::string& name,
                const std::vector<double>& samples) {
  m[name] = Metric{median(samples), "s", samples};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Value of `"key": <number>` in a MetricsRegistry JSON snapshot.
double snapshot_value(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    throw std::runtime_error("metrics snapshot lacks " + key);
  }
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// Engine, middleware and obs counters of traced runs, summed.
struct Counters {
  double events = 0, pushes = 0, cancels = 0, hit_rate_sum = 0;
  double messages = 0, bytes = 0, retries = 0, timeouts = 0, dropped = 0;
  double trace_bytes = 0;
  int runs = 0;

  void absorb(const std::string& metrics_path, const std::string& trace_path) {
    const std::string j = read_file(metrics_path);
    events += snapshot_value(j, "engine.events_processed");
    pushes += snapshot_value(j, "engine.queue.pushes");
    cancels += snapshot_value(j, "engine.queue.cancels");
    hit_rate_sum += snapshot_value(j, "engine.pool.hit_rate");
    messages += snapshot_value(j, "pvm.messages_sent");
    bytes += snapshot_value(j, "pvm.bytes_sent");
    retries += snapshot_value(j, "rpc.retries");
    timeouts += snapshot_value(j, "rpc.timeouts");
    dropped += snapshot_value(j, "fault.dropped");
    if (!trace_path.empty()) {
      trace_bytes +=
          static_cast<double>(std::filesystem::file_size(trace_path));
    }
    ++runs;
  }
};

/// Checks a replay against the run it mirrors.  `reference_messages` is
/// pvm.messages_sent of a fault-free run of the same configuration: in
/// barrier mode each payload is one message, in fault-tolerant mode it is
/// paired with a done or release message; the p stop messages come on top.
void check_replay(Checks& checks, const std::string& label, const Replay& rp,
                  const RunSpec& r, const opal::ParallelRunResult& run,
                  double reference_messages) {
  const opal::RunMetrics& m = run.metrics;
  checks.expect(rp.pairs_checked == m.pairs_checked,
                label + ": replay pairs_checked " +
                    std::to_string(rp.pairs_checked) + " != run " +
                    std::to_string(m.pairs_checked));
  checks.expect(rp.update_rounds == m.list_updates,
                label + ": replay update rounds " +
                    std::to_string(rp.update_rounds) + " != run " +
                    std::to_string(m.list_updates));
  const double per_payload = r.middleware.retry.enabled ? 2.0 : 1.0;
  const double expected =
      static_cast<double>(rp.messages) * per_payload + r.p;
  checks.expect(expected == reference_messages,
                label + ": replay implies " + std::to_string(expected) +
                    " messages, run sent " +
                    std::to_string(reference_messages));
  checks.expect(rel_diff(static_cast<double>(rp.pairs_evaluated),
                         static_cast<double>(m.pairs_evaluated)) <= 0.01,
                label + ": replay pairs_evaluated off by more than 1%");
  checks.expect(rp.potential == run.physics.potential(),
                label + ": replay physics differs from the run");
}

// ---- workloads --------------------------------------------------------------

/// One timed repetition of a workload.
struct Rep {
  double wall = 0.0;
  std::vector<double> run_s;     ///< per ParallelOpal run(s)
  double busy_s = 0.0;           ///< pool jobs' summed duration (sweep)
  double makespan = 0.0;         ///< pool phase wall (sweep)
  double fit_s = 0.0;            ///< model::calibrate, both variants (sweep)
  std::vector<opal::ParallelRunResult> results;
  model::CalibrationResult fit;          ///< consistent variant (sweep)
  model::CalibrationResult fit_literal;  ///< paper-literal variant (sweep)
  std::string digest;
};

/// Per-run output paths of a traced rep; empty = untraced.
std::string traced_path(const std::string& prefix, const char* kind,
                        std::size_t run) {
  if (prefix.empty()) return "";
  return prefix + "." + kind + "." + std::to_string(run) + ".json";
}

Rep run_rep(const std::string& workload, Inputs& in,
            const std::string& trace_prefix = "") {
  Rep rep;
  const std::size_t nruns = in.runs.size();
  rep.results.resize(nruns);
  rep.run_s.resize(nruns);
  const util::HostTimer total;
  if (!is_sweep(workload)) {
    RunSpec spec = in.runs.front();
    spec.cfg.trace_out = traced_path(trace_prefix, "trace", 0);
    spec.cfg.metrics_out = traced_path(trace_prefix, "metrics", 0);
    opal::ParallelOpal par(spec.platform, *spec.mc, spec.p, spec.cfg,
                           spec.middleware);
    const util::HostTimer run_timer;
    rep.results[0] = par.run();
    rep.run_s[0] = run_timer.seconds();
    rep.wall = total.seconds();
  } else {
    std::vector<model::Observation> obs(nruns);
    std::vector<double> app_s(nruns), job_s(nruns);
    util::parallel_for_indexed(*in.pool, nruns, [&](std::size_t i) {
      RunSpec spec = in.runs[i];
      spec.cfg.trace_out = traced_path(trace_prefix, "trace", i);
      spec.cfg.metrics_out = traced_path(trace_prefix, "metrics", i);
      const util::HostTimer job;
      obs[i].app = model::app_params_for(*spec.mc, spec.cfg, spec.p);
      app_s[i] = job.seconds();
      opal::ParallelOpal par(spec.platform, *spec.mc, spec.p, spec.cfg,
                             spec.middleware);
      rep.results[i] = par.run();
      obs[i].measured = rep.results[i].metrics;
      job_s[i] = job.seconds();
      rep.run_s[i] = job_s[i] - app_s[i];
    });
    rep.makespan = total.seconds();
    const util::HostTimer fit_timer;
    rep.fit = model::calibrate(obs, model::UpdateVariant::Consistent);
    rep.fit_literal =
        model::calibrate(obs, model::UpdateVariant::PaperLiteral);
    rep.fit_s = fit_timer.seconds();
    rep.wall = total.seconds();
    for (const double s : job_s) rep.busy_s += s;
  }
  Digest d;
  for (const auto& r : rep.results) d.add(r);
  d.add(rep.fit.params);
  d.add(rep.fit_literal.params);
  rep.digest = d.hex();
  return rep;
}

/// Replays every run of the workload; sweep runs are replayed on the pool
/// (one span log per run), like the sweep itself.
std::vector<Replay> replay_all(const std::string& workload, Inputs& in,
                               std::vector<SpanLog>& logs) {
  const std::size_t nruns = in.runs.size();
  logs.assign(nruns, SpanLog{});
  std::vector<Replay> out(nruns);
  auto one = [&](std::size_t i) {
    if (is_sweep(workload)) {
      const ScopedSpan span(logs[i], "model.app_params");
      (void)model::app_params_for(*in.runs[i].mc, in.runs[i].cfg,
                                  in.runs[i].p);
    }
    out[i] = replay(in.runs[i], logs[i]);
    out[i].self_s = logs[i].self_seconds();
  };
  if (in.pool) {
    util::parallel_for_indexed(*in.pool, nruns, one);
  } else {
    for (std::size_t i = 0; i < nruns; ++i) one(i);
  }
  return out;
}

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<SpanLog>& logs) {
  std::ofstream os(path);
  os << "{\"workload\": \"" << workload << "\", \"time_unit\": \"s\", "
     << "\"spans\": [";
  bool first = true;
  char buf[160];
  for (std::size_t k = 0; k < logs.size(); ++k) {
    for (const Span& s : logs[k].spans()) {
      std::snprintf(buf, sizeof buf,
                    "{\"log\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                    "\"end\": %.9f, \"parent\": %d}",
                    k, s.name, s.start, s.end, s.parent);
      os << (first ? "\n" : ",\n") << buf;
      first = false;
    }
  }
  os << "\n]}\n";
}

/// Threads that run the workload's jobs: parallel_for_indexed runs them on
/// every pool worker plus the calling thread, or inline on a 1-worker pool.
unsigned participants(const Inputs& in) {
  if (!in.pool || in.pool->size() <= 1) return 1;
  return in.pool->size() + 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Replay layers that make up a run's host time; everything else the run
/// spends is the DES core and middleware (des_mw).
const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "opal.build_domains", "opal.update", "opal.nbint", "opal.bonded",
      "opal.client",        "pvm.pack",    "model.app_params"};
  return names;
}

int run(const Args& args) {
  const std::string& w = args.workload;
  const bool sweep = is_sweep(w);
  const Seeds seeds = derive_seeds(args.seed);
  const double scale = args.scale * (sweep ? kSweepScale : 1.0);
  Checks checks;
  Metrics metrics;
  std::filesystem::create_directories(args.workdir);
  const std::string prefix = args.workdir + "/" + w;

  // small_lossy's retry timeout is fixed at 2x the fault-free step time (as
  // bench_fault_tolerance sizes it), measured on the fault-tolerant twin.
  double timeout_s = 0.0;
  opal::ParallelRunResult twin;
  double twin_messages = 0.0;
  if (w == "small_lossy") {
    Inputs tin = make_single_inputs(w, scale, seeds, 0.0);
    RunSpec spec = tin.runs.front();
    spec.cfg.metrics_out = prefix + ".twin.metrics.json";
    twin = opal::ParallelOpal(spec.platform, *spec.mc, spec.p, spec.cfg,
                              spec.middleware)
               .run();
    twin_messages = snapshot_value(read_file(spec.cfg.metrics_out),
                                   "pvm.messages_sent");
    timeout_s = 2.0 * twin.metrics.wall / spec.cfg.steps;
    checks.attempted(1);
  }

  // Set-up: inputs, specs, ParallelOpal construction, pool start.  It takes
  // well under a millisecond, so it is repeated for half a second; each
  // sample is the mean of 16 consecutive set-ups, and setup_s the median.
  Inputs in;
  std::vector<double> setup_s;
  const util::HostTimer setup_budget;
  while (setup_s.size() < 9 || setup_budget.seconds() < 0.5) {
    double batch = 0.0;
    for (int k = 0; k < 16; ++k) {
      const util::HostTimer t;
      Inputs next = sweep ? make_sweep_inputs(scale, seeds)
                          : make_single_inputs(w, scale, seeds, timeout_s);
      for (const RunSpec& r : next.runs) {
        const opal::ParallelOpal par(r.platform, *r.mc, r.p, r.cfg,
                                     r.middleware);
      }
      batch += t.seconds();
      in = std::move(next);  // the previous set is torn down untimed
    }
    setup_s.push_back(batch / 16.0);
  }

  // Warm-up rep (untimed): caches, allocator and frame pool reach steady
  // state; its digest is the reference every later rep must reproduce.
  const Rep first = run_rep(w, in);
  checks.attempted(in.runs.size());

  std::vector<double> walls, run_s, busy, makespan, fit_s, des_mw_samples;
  std::vector<std::map<std::string, double>> layer_samples;
  std::vector<SpanLog> logs;
  std::vector<Replay> replays;
  // A traced run takes at least three (rep, replay) pairs, so the des_mw
  // median survives one disturbed pair.
  const util::HostTimer budget;
  do {
    const Rep rep = run_rep(w, in);
    checks.attempted(in.runs.size());
    checks.expect(rep.digest == first.digest,
                  "rep " + std::to_string(walls.size()) + " digest " +
                      rep.digest + " != " + first.digest);
    walls.push_back(rep.wall);
    run_s.insert(run_s.end(), rep.run_s.begin(), rep.run_s.end());
    busy.push_back(sweep ? rep.busy_s : rep.wall);
    makespan.push_back(sweep ? rep.makespan : rep.wall);
    fit_s.push_back(rep.fit_s);
    if (args.trace) {
      replays = replay_all(w, in, logs);
      std::map<std::string, double> sum;
      for (const Replay& rp : replays) {
        for (const auto& [name, s] : rp.self_s) sum[name] += s;
      }
      double layers = 0.0;
      for (const std::string& name : layer_names()) layers += sum[name];
      des_mw_samples.push_back(busy.back() - layers);
      layer_samples.push_back(sum);
    }
  } while (budget.seconds() < args.seconds ||
           (args.trace && walls.size() < 3));
  const double rss = peak_rss_mb();

  // ---- output checks (untimed) --------------------------------------------
  if (!sweep) {
    const RunSpec& r = in.runs.front();
    const double serial =
        opal::SerialOpal(*r.mc, r.cfg).run().potential();
    const double par = first.results[0].physics.potential();
    checks.expect(rel_diff(par, serial) <= 1e-8,
                  "parallel potential differs from SerialOpal");
  }
  if (w == "small_lossy") {
    const opal::ParallelRunResult& lossy = first.results[0];
    checks.expect(rel_diff(lossy.physics.potential(),
                           twin.physics.potential()) <= 1e-12,
                  "lossy potential differs from the fault-free twin");
    checks.expect(lossy.metrics.retries > 0, "lossy run made no retries");
  }
  if (sweep) {
    checks.expect(std::isfinite(first.fit.fit_total.mean_abs_rel_err) &&
                      first.fit.fit_total.r_squared > 0.9,
                  "calibration fit failed");
  }
  if (args.check_f4 && sweep) {
    // EXPERIMENTS.md F4: TOTAL wall mean |rel err| 0.0146, max 0.0970.
    Inputs full = make_sweep_inputs(1.0, derive_seeds(42));
    const Rep f4 = run_rep(w, full);
    checks.attempted(full.runs.size());
    const util::FitQuality& q = f4.fit.fit_total;
    checks.expect(std::abs(q.mean_abs_rel_err - 0.0146) < 5e-5 &&
                      std::abs(q.max_abs_rel_err - 0.0970) < 5e-5,
                  "F4 fit quality " + std::to_string(q.mean_abs_rel_err) +
                      "/" + std::to_string(q.max_abs_rel_err) +
                      " != 0.0146/0.0970");
  }

  if (!args.trace) {
    put_timing(metrics, "wall_s", walls);
    put_timing(metrics, "setup_s", setup_s);
    put(metrics, "peak_rss_mb", rss, "MB");
  } else {
    // Traced run: one rep with trace_out and metrics_out set.
    const Rep traced = run_rep(w, in, prefix);
    checks.attempted(in.runs.size());
    checks.expect(traced.digest == first.digest,
                  "tracing changed the results");
    Counters c;
    for (std::size_t i = 0; i < in.runs.size(); ++i) {
      c.absorb(traced_path(prefix, "metrics", i),
               traced_path(prefix, "trace", i));
    }
    for (std::size_t i = 0; i < in.runs.size(); ++i) {
      const double ref_messages =
          w == "small_lossy"
              ? twin_messages
              : snapshot_value(read_file(traced_path(prefix, "metrics", i)),
                               "pvm.messages_sent");
      check_replay(checks, in.runs.size() > 1 ? "run " + std::to_string(i) : w,
                   replays[i], in.runs[i], first.results[i], ref_messages);
    }

    std::map<std::string, double> layer;
    for (const std::string& name : layer_names()) {
      std::vector<double> xs;
      for (const auto& sample : layer_samples) xs.push_back(sample.at(name));
      layer[name] = median(xs);
    }
    Replay total;
    for (const Replay& rp : replays) {
      total.domain_pairs += rp.domain_pairs;
      total.update_calls += rp.update_calls;
      total.cut_updates += rp.cut_updates;
      total.cell_updates += rp.cell_updates;
      total.pairs_checked += rp.pairs_checked;
      total.pairs_evaluated += rp.pairs_evaluated;
      total.bonded_calls += rp.bonded_calls;
    }
    // Host time the replay does not account for is the DES core plus the
    // middleware: each rep minus the replay that follows it (for the sweep,
    // both summed over the pool's jobs), as the median over those pairs so
    // that drift of the host between pairs cancels.
    const double wall = median(walls);
    const double run_total = median(busy);
    const double des_mw = median(des_mw_samples);
    // The sweep's replays run concurrently and meet other neighbours than
    // their jobs did, which moves a pair's difference by about +-5%, as
    // much as the DES share itself; its exact-count checks above remain.
    if (!sweep) {
      checks.expect(des_mw >= -0.05 * run_total,
                    "replayed layers exceed the run by more than 5%");
    }

    put(metrics, "opal.build_domains.s", layer["opal.build_domains"], "s");
    put(metrics, "opal.build_domains.pairs",
        static_cast<double>(total.domain_pairs), "count");
    put(metrics, "opal.update.s", layer["opal.update"], "s");
    put(metrics, "opal.update.calls", static_cast<double>(total.update_calls),
        "count");
    put(metrics, "opal.update.pairs_checked",
        static_cast<double>(total.pairs_checked), "count");
    put(metrics, "opal.update.cells_frac",
        total.cut_updates == 0 ? 0.0
                               : static_cast<double>(total.cell_updates) /
                                     static_cast<double>(total.cut_updates),
        "ratio");
    put(metrics, "opal.nbint.s", layer["opal.nbint"], "s");
    put(metrics, "opal.nbint.pairs", static_cast<double>(total.pairs_evaluated),
        "count");
    put(metrics, "opal.nbint.ns_per_pair",
        total.pairs_evaluated == 0
            ? 0.0
            : 1e9 * layer["opal.nbint"] /
                  static_cast<double>(total.pairs_evaluated),
        "ns");
    put(metrics, "opal.bonded.s", layer["opal.bonded"], "s");
    put(metrics, "opal.bonded.calls", static_cast<double>(total.bonded_calls),
        "count");
    put(metrics, "opal.client.s", layer["opal.client"], "s");
    put(metrics, "pvm.pack.s", layer["pvm.pack"], "s");
    put(metrics, "pvm.messages", c.messages, "count");
    put(metrics, "pvm.bytes", c.bytes, "bytes");
    put(metrics, "pvm.useful_frac",
        w == "small_lossy" ? twin_messages / c.messages : 1.0, "ratio");
    put(metrics, "des_mw.s", des_mw, "s");
    put(metrics, "des_mw.share", des_mw / run_total, "ratio");
    put(metrics, "des_mw.us_per_event", 1e6 * des_mw / c.events, "us");
    put(metrics, "sim.events", c.events, "count");
    put(metrics, "sim.queue.pushes", c.pushes, "count");
    put(metrics, "sim.queue.cancels", c.cancels, "count");
    put(metrics, "sim.frame_pool.hit_rate", c.hit_rate_sum / c.runs, "ratio");
    put(metrics, "sciddle.retries", c.retries, "count");
    put(metrics, "sciddle.timeouts", c.timeouts, "count");
    put(metrics, "fault.dropped", c.dropped, "count");
    put(metrics, "model.app_params.s", layer["model.app_params"], "s");
    put(metrics, "model.fit.s", median(fit_s), "s");
    const double threads = participants(in);
    put(metrics, "pool.threads", threads, "count");
    put(metrics, "pool.runs", static_cast<double>(in.runs.size()), "count");
    put(metrics, "pool.busy_s", run_total, "s");
    put(metrics, "pool.run_s.p50", quantile(run_s, 0.5), "s");
    put(metrics, "pool.run_s.p90", quantile(run_s, 0.9), "s");
    put(metrics, "pool.idle_frac",
        1.0 - run_total / (threads * median(makespan)), "ratio");
    put(metrics, "obs.overhead_frac", traced.wall / wall - 1.0, "ratio");
    put(metrics, "obs.trace_bytes", c.trace_bytes, "bytes");
    write_spans(args.workdir + "/BENCH_e2e.spans." + w + ".json", w, logs);
  }

  // ---- result line ----------------------------------------------------------
  std::ostringstream os;
  char num[40];
  auto fmt = [&num](double v) {
    std::snprintf(num, sizeof num, "%.17g", v);
    return std::string(num);
  };
  os << "{\"workload\": \"" << w << "\", \"seed\": " << args.seed
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"scale_pct\": " << fmt(100.0 * scale)
     << ", \"threads\": " << participants(in)
     << ", \"reps\": " << walls.size() << ", \"digest\": \"" << first.digest
     << "\", \"attempted\": " << checks.attempted()
     << ", \"failed\": " << checks.failures().size() << ", \"failures\": [";
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << checks.failures()[i] << "\"";
  }
  os << "], \"metrics\": {";
  bool first_metric = true;
  for (const auto& [name, m] : metrics) {
    os << (first_metric ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"";
    if (!m.samples.empty()) {
      os << ", \"p25\": " << fmt(quantile(m.samples, 0.25))
         << ", \"p75\": " << fmt(quantile(m.samples, 0.75))
         << ", \"n\": " << m.samples.size();
    }
    os << "}";
    first_metric = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return checks.failures().empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }
}
