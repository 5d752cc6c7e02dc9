// Golden-trace fixture: one fixed-seed barrier-mode run, traced end to end.
// Writes the Chrome trace JSON (argv[1]) and the run's own PerfMonitor
// bucket snapshot (argv[2]); argv[3], when given, picks the
// parallelization method (rd, the default, sd or fd).
// tools/trace/check_golden.py asserts that tools/trace/summarize_trace.py
// recomputes the same five-way breakdown from the trace alone (to 1e-9)
// and, for the RD run, that the summary matches the committed golden at
// tests/golden/trace_summary_medium.json.
#include <cstdio>
#include <string>
#include <utility>

#include "mach/platforms_db.hpp"
#include "obs/trace.hpp"
#include "opal/complex.hpp"
#include "opal/metrics.hpp"
#include "opal/parallel.hpp"
#include "sciddle/perf_monitor.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace opalsim;
  const std::string method = argc == 4 ? argv[3] : "rd";
  if ((argc != 3 && argc != 4) ||
      (method != "rd" && method != "sd" && method != "fd")) {
    std::fprintf(stderr, "usage: %s <trace.json> <buckets.json> [rd|sd|fd]\n",
                 argv[0]);
    return 2;
  }

  // The paper's medium complex at 10% — big enough for uneven server loads
  // (real idle time) and a mixed update/nbint round schedule, small enough
  // to keep the gate fast.
  opal::SyntheticSpec spec;
  spec.name = "golden-medium";
  spec.n_solute = 157;
  spec.n_water = 271;
  opal::MolecularComplex mc = opal::make_synthetic_complex(spec);

  opal::SimulationConfig cfg;
  cfg.steps = 4;
  cfg.update_every = 2;
  cfg.cutoff = 10.0;
  cfg.trace_out = argv[1];
  if (method == "sd") cfg.method = opal::Method::SpaceDecomposition;
  if (method == "fd") cfg.method = opal::Method::ForceDecomposition;
  opal::ParallelOpal run(mach::cray_j90(), std::move(mc), 3, cfg);
  const opal::RunMetrics m = run.run().metrics;

  // The run's own accounting, bucketed the way the figure benches report
  // the breakdown.
  sim::Engine scratch;
  sciddle::PerfMonitor monitor(scratch);
  monitor.add("parallel", m.tot_par_comp());
  monitor.add("sequential", m.seq_comp);
  monitor.add("communication", m.tot_comm());
  monitor.add("synchronization", m.sync);
  monitor.add("idle", m.idle);
  monitor.add("recovery", m.recovery);
  if (!obs::write_file(argv[2], monitor.to_json())) {
    std::fprintf(stderr, "failed to write %s\n", argv[2]);
    return 1;
  }
  return 0;
}
