// opalsim_cli — run a single Opal experiment from the command line.
//
//   ./examples/opalsim_cli --platform fast-cops --servers 4 --size medium
//       --steps 10 --cutoff 10 --update-every 10 --method rd [--trace]
//       [--minimize] [--overlap] [--strategy uniform] [--predict]
//
// Fault injection (enables the fault-tolerant middleware automatically):
//   --fault-seed X --loss-rate R --corrupt-rate R --dup-rate R
//   --kill-server S --kill-step K [--retry]
//
// Platforms: t3e | j90 | slow-cops | smp-cops | fast-cops | hippi-j90
// Sizes:     small | medium | large   (or --solute N --water M)
// Methods:   rd | sd | fd
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "mach/platforms_db.hpp"
#include "model/prediction.hpp"
#include "obs/trace.hpp"
#include "opal/decomp.hpp"
#include "opal/parallel.hpp"
#include "sim/fault.hpp"
#include "util/cli.hpp"
#include "util/fatal.hpp"
#include "util/table.hpp"

using namespace opalsim;

namespace {

int usage(const char* prog) {
  std::cerr
      << "usage: " << prog
      << " [--platform P] [--servers N] [--size S] [--steps K]\n"
         "       [--cutoff A] [--update-every U] [--method rd|sd|fd]\n"
         "       [--strategy historical|uniform|rowcyclic|folded]\n"
         "       [--minimize] [--overlap] [--trace] [--predict]\n"
         "       [--trace-out FILE] [--metrics-out FILE]\n"
         "       [--solute N --water M] [--seed X]\n"
         "       [--fault-seed X] [--loss-rate R] [--corrupt-rate R]\n"
         "       [--dup-rate R] [--kill-server S --kill-step K] [--retry]\n"
         "       [--checkpoint-out FILE] [--checkpoint-every-steps N]\n"
         "       [--checkpoint-at-step K] [--resume FILE] [--csv-out FILE]\n"
         "--trace prints a text Gantt chart of the RPC phases; --trace-out\n"
         "writes a Perfetto-loadable Chrome trace (.csv for CSV) instead\n"
         "(one run, one trace: the two are exclusive); --metrics-out\n"
         "snapshots the run's metrics registry as JSON.  OPALSIM_TRACE /\n"
         "OPALSIM_METRICS set defaults.\n"
         "--checkpoint-out (or OPALSIM_CHECKPOINT) snapshots run state at\n"
         "quiescent step boundaries; --resume restarts from such an image\n"
         "and reproduces the uninterrupted run byte for byte.  --csv-out\n"
         "writes a one-row full-precision results CSV (the crash-harness\n"
         "oracle).  Server kills and checkpoints are implemented for\n"
         "--method rd only; sd and fd refuse them.\n"
         "platforms: t3e j90 slow-cops smp-cops fast-cops hippi-j90\n";
  return 2;
}

/// One-row full-precision results CSV: every physics observable, the
/// measured breakdown, the robustness counters and the per-server busy
/// seconds, all printed with %.17g so the file is a bit-exact oracle for
/// the crash/resume harness (tools/chaos/crash_harness.py).
void write_results_csv(const std::string& path,
                       const opal::ParallelRunResult& r) {
  std::ofstream out(path);
  auto g = [&out](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << buf;
  };
  out << "evdw,ecoul,bond,angle,dihedral,improper,kinetic,temperature,"
         "pressure,volume,wall,par_update,par_nbint,seq_comp,sync,idle,"
         "recovery,pairs_checked,pairs_evaluated,list_updates,retries,"
         "timeouts,heartbeats,servers_failed,failovers";
  for (std::size_t s = 0; s < r.server_busy.size(); ++s) {
    out << ",server_busy_" << s;
  }
  out << "\n";
  const auto& p = r.physics;
  const auto& m = r.metrics;
  for (double v : {p.evdw, p.ecoul, p.bonded.bond, p.bonded.angle,
                   p.bonded.dihedral, p.bonded.improper, p.kinetic,
                   p.temperature, p.pressure, p.volume, m.wall, m.par_update,
                   m.par_nbint, m.seq_comp, m.sync, m.idle, m.recovery}) {
    g(v);
    out << ",";
  }
  out << m.pairs_checked << "," << m.pairs_evaluated << "," << m.list_updates
      << "," << m.retries << "," << m.timeouts << "," << m.heartbeats << ","
      << m.servers_failed << "," << m.failovers;
  for (double v : r.server_busy) {
    out << ",";
    g(v);
  }
  out << "\n";
}

/// A count flag: a non-negative integer (a negative one would wrap to a
/// huge size_t).
std::size_t size_arg(const util::CliArgs& args, const std::string& key,
                     long fallback) {
  const long v = args.get_long(key, fallback);
  if (v < 0) {
    throw util::ConfigError("cli", "--" + key + " must be >= 0, got " +
                                       std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

std::optional<mach::PlatformSpec> platform_by_name(const std::string& name) {
  if (name == "t3e") return mach::cray_t3e900();
  if (name == "j90") return mach::cray_j90();
  if (name == "slow-cops") return mach::slow_cops();
  if (name == "smp-cops") return mach::smp_cops();
  if (name == "fast-cops") return mach::fast_cops();
  if (name == "hippi-j90") return mach::hippi_j90_cluster();
  return std::nullopt;
}

std::optional<opal::DistributionStrategy> strategy_by_name(
    const std::string& name) {
  if (name == "historical") {
    return opal::DistributionStrategy::PseudoRandomHistorical;
  }
  if (name == "uniform") return opal::DistributionStrategy::PseudoRandomUniform;
  if (name == "rowcyclic") return opal::DistributionStrategy::RowCyclic;
  if (name == "folded") return opal::DistributionStrategy::Folded;
  return std::nullopt;
}

std::optional<opal::Method> method_by_name(const std::string& name) {
  if (name == "rd") return opal::Method::ReplicatedData;
  if (name == "sd") return opal::Method::SpaceDecomposition;
  if (name == "fd") return opal::Method::ForceDecomposition;
  return std::nullopt;
}

int run_cli(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  if (args.get_flag("help")) return usage(argv[0]);

  const auto platform = platform_by_name(args.get_or("platform", "j90"));
  if (!platform) {
    std::cerr << "unknown platform\n";
    return usage(argv[0]);
  }

  // Molecule: --solute picks a synthetic complex, else --size.
  const std::string size = args.get_or("size", "medium");
  const bool synthetic = args.has("solute");
  opal::SyntheticSpec spec;
  spec.n_solute = size_arg(args, "solute", 200);
  spec.n_water = size_arg(args, "water", 400);
  spec.seed = static_cast<std::uint64_t>(args.get_long("seed", 42));

  // Configuration.
  opal::SimulationConfig cfg;
  cfg.steps = static_cast<int>(args.get_long("steps", 10));
  cfg.cutoff = args.get_double("cutoff", -1.0);
  cfg.update_every = static_cast<int>(args.get_long("update-every", 1));
  cfg.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  if (args.get_flag("minimize")) cfg.mode = opal::RunMode::Minimization;
  const std::string strat = args.get_or("strategy", "historical");
  const auto strategy = strategy_by_name(strat);
  if (strategy) cfg.strategy = *strategy;

  const std::string method_name = args.get_or("method", "rd");
  const auto method_or = method_by_name(method_name);
  cfg.method = method_or.value_or(opal::Method::ReplicatedData);

  const int servers = static_cast<int>(args.get_long("servers", 4));

  // Fault injection.  Any fault on the wire (or a scheduled server kill)
  // switches on the fault-tolerant middleware: the legacy barrier protocol
  // deadlocks on the first lost message.
  mach::PlatformSpec plat = *platform;
  const double loss_rate = args.get_double("loss-rate", 0.0);
  const double corrupt_rate = args.get_double("corrupt-rate", 0.0);
  const double dup_rate = args.get_double("dup-rate", 0.0);
  const auto fault_seed =
      static_cast<std::uint64_t>(args.get_long("fault-seed", 1));
  if (loss_rate > 0.0 || corrupt_rate > 0.0 || dup_rate > 0.0) {
    sim::FaultSpec fault;
    fault.seed = fault_seed;
    fault.drop_rate = loss_rate;
    fault.corrupt_rate = corrupt_rate;
    fault.duplicate_rate = dup_rate;
    plat = mach::with_faults(plat, fault);
  }
  cfg.kill_server = static_cast<int>(args.get_long("kill-server", -1));
  cfg.kill_at_step = static_cast<int>(args.get_long("kill-step", -1));
  cfg.trace_out = args.get_or("trace-out", "");
  cfg.metrics_out = args.get_or("metrics-out", "");
  cfg.checkpoint_out = args.get_or("checkpoint-out", "");
  cfg.checkpoint_every_steps =
      static_cast<int>(args.get_long("checkpoint-every-steps", 0));
  cfg.checkpoint_at_step =
      static_cast<int>(args.get_long("checkpoint-at-step", -1));
  cfg.resume_from = args.get_or("resume", "");
  const std::string csv_out = args.get_or("csv-out", "");
  const bool gantt = args.get_flag("trace");
  const bool predict = args.get_flag("predict");
  sciddle::Options mw;
  mw.barrier_mode = !args.get_flag("overlap");
  mw.retry.enabled = args.get_flag("retry") || loss_rate > 0.0 ||
                     corrupt_rate > 0.0 || dup_rate > 0.0 ||
                     cfg.kill_server >= 0;

  // Every flag has been read: whatever is left is unknown.
  std::vector<std::string> errors;
  for (const auto& k : args.unused()) errors.push_back("unknown option --" + k);
  for (const auto& a : args.positional()) {
    errors.push_back("unexpected argument '" + a + "'");
  }
  if (!method_or) {
    errors.push_back("unknown --method '" + method_name +
                     "' (rd, sd or fd)");
  }
  if (!strategy) {
    errors.push_back("unknown --strategy '" + strat +
                     "' (historical, uniform, rowcyclic or folded)");
  }
  if (size != "small" && size != "medium" && size != "large") {
    errors.push_back("unknown --size '" + size + "' (small, medium or large)");
  }
  for (const auto& e : errors) std::cerr << "error: " << e << "\n";
  if (!errors.empty()) return 2;
  if (args.has("water") && !synthetic) {
    std::cerr << "error: --water needs --solute\n";
    return 2;
  }

  if (gantt &&
      (!cfg.trace_out.empty() || !obs::trace_path_from_env().empty())) {
    std::cerr << "error: --trace cannot be combined with --trace-out or "
                 "OPALSIM_TRACE (one run, one trace)\n";
    return 2;
  }

  const opal::MolecularComplex mc =
      synthetic         ? opal::make_synthetic_complex(spec)
      : size == "small" ? opal::make_small_complex()
      : size == "large" ? opal::make_large_complex()
                        : opal::make_medium_complex();

  std::cout << "platform: " << plat.name << ", method "
            << opal::to_string(cfg.method) << ", p = " << servers
            << ", n = " << mc.n() << ", steps = " << cfg.steps
            << (cfg.has_cutoff()
                    ? ", cut-off " + std::to_string(cfg.cutoff) + " A"
                    : ", no cut-off")
            << ", update every " << cfg.update_every << "\n\n";

  // A refused configuration (util::ConfigError) ends in main with exit 2,
  // any other failure of the run with exit 1.
  opal::ParallelRunResult r;
  obs::MemorySink sink;
  {
    std::optional<obs::ScopedSink> scope;
    if (gantt) scope.emplace(sink);
    r = opal::ParallelOpal(plat, mc, servers, cfg, mw).run();
  }

  if (!csv_out.empty()) write_results_csv(csv_out, r);

  util::Table phys({"observable", "value"});
  phys.row().add("vdW energy").add(r.physics.evdw, 3);
  phys.row().add("Coulomb energy").add(r.physics.ecoul, 3);
  phys.row().add("bonded energy").add(r.physics.bonded.total(), 3);
  phys.row().add("temperature [K]").add(r.physics.temperature, 3);
  phys.row().add("pressure").add(r.physics.pressure, 6);
  phys.row().add("volume [A^3]").add(r.physics.volume, 0);
  phys.print(std::cout);
  std::cout << "\n";

  util::Table brk({"component", "seconds"});
  const auto& m = r.metrics;
  brk.row().add("parallel computation").add(m.tot_par_comp(), 4);
  brk.row().add("sequential computation").add(m.seq_comp, 4);
  brk.row().add("comm: call update").add(m.call_upd, 4);
  brk.row().add("comm: return update").add(m.return_upd, 4);
  brk.row().add("comm: call nbint").add(m.call_nbi, 4);
  brk.row().add("comm: return nbint").add(m.return_nbi, 4);
  brk.row().add("synchronization").add(m.sync, 4);
  brk.row().add("idle (imbalance)").add(m.idle, 4);
  brk.row().add("recovery (faults)").add(m.recovery, 4);
  brk.row().add("TOTAL wall (virtual)").add(m.wall, 4);
  brk.print(std::cout);

  if (mw.retry.enabled) {
    util::Table ft({"robustness counter", "value"});
    ft.row().add("messages dropped").add(m.msgs_dropped);
    ft.row().add("messages duplicated").add(m.msgs_duplicated);
    ft.row().add("messages corrupted").add(m.msgs_corrupted);
    ft.row().add("RPC retries").add(m.retries);
    ft.row().add("RPC timeouts").add(m.timeouts);
    ft.row().add("heartbeat probes").add(m.heartbeats);
    ft.row().add("servers failed").add(m.servers_failed);
    ft.row().add("failovers").add(m.failovers);
    std::cout << "\n";
    ft.print(std::cout);
  }

  if (predict) {
    const auto params = model::theoretical_params(*platform);
    const auto app = model::app_params_for(mc, cfg, servers);
    std::cout << "\nanalytic model prediction: "
              << model::predict_total(params, app) << " s (datasheet-only)\n";
  }

  if (gantt) std::cout << "\n" << sink.to_gantt(76);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const util::ConfigError& e) {
    // A malformed flag value ("--steps 1e3", "--solute -1") or a
    // configuration the library refuses ("--cutoff nan", a server kill
    // under --method sd).
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
