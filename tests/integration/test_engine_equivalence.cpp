// Tracing is a pure observer of the engine: traced runs render the same
// results CSV as untraced ones, the trace bytes repeat run to run (the sink
// assigns seq in execution order, which the engine's (t, seq) contract
// fixes), and the exporter follows the trace file's extension.  The runs
// exercise the full stack: the PVM transport, the sciddle RPC rounds and
// the opal physics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mach/platforms_db.hpp"
#include "opal/complex.hpp"
#include "opal/metrics.hpp"
#include "opal/parallel.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace opalsim;

opal::MolecularComplex equivalence_complex() {
  opal::SyntheticSpec spec;
  spec.name = "equiv";
  spec.n_solute = 60;
  spec.n_water = 120;
  return opal::make_synthetic_complex(spec);
}

opal::RunMetrics run_case(int p, double cutoff) {
  opal::SimulationConfig cfg;
  cfg.steps = 3;
  cfg.cutoff = cutoff;
  cfg.strategy = opal::DistributionStrategy::PseudoRandomUniform;
  opal::ParallelOpal run(mach::cray_j90(), equivalence_complex(), p, cfg);
  return run.run().metrics;
}

/// Serializes a sweep the way a figure bench does: Table through CsvWriter.
std::string sweep_csv() {
  std::vector<std::pair<int, double>> cases;
  for (int p : {1, 2, 3, 5}) {
    for (double cutoff : {-1.0, 8.0}) cases.emplace_back(p, cutoff);
  }
  util::Table t({"servers", "cutoff", "par comp [s]", "comm [s]", "wall [s]",
                 "pairs checked"});
  for (const auto& [p, cutoff] : cases) {
    const opal::RunMetrics m = run_case(p, cutoff);
    t.row()
        .add(p)
        .add(cutoff, 1)
        .add(m.tot_par_comp(), 6)
        .add(m.tot_comm(), 6)
        .add(m.wall, 6)
        .add(static_cast<unsigned long>(m.pairs_checked));
  }
  std::ostringstream os;
  util::CsvWriter(os).write_table(t);
  return os.str();
}

opal::RunMetrics run_case_traced(int p, double cutoff,
                                 const std::string& trace_out) {
  opal::SimulationConfig cfg;
  cfg.steps = 3;
  cfg.cutoff = cutoff;
  cfg.strategy = opal::DistributionStrategy::PseudoRandomUniform;
  cfg.trace_out = trace_out;
  opal::ParallelOpal run(mach::cray_j90(), equivalence_complex(), p, cfg);
  return run.run().metrics;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// Tracing must be a pure observer: the same sweep with OPALSIM_TRACE set
// renders byte-identical results CSV.
TEST(TracingEquivalence, SweepCsvIdenticalWithTracingEnabled) {
  const std::string off = sweep_csv();
  ::setenv("OPALSIM_TRACE",
           (::testing::TempDir() + "opalsim-equiv-env.json").c_str(), 1);
  const std::string on = sweep_csv();
  ::unsetenv("OPALSIM_TRACE");
  EXPECT_EQ(off, on);
  // Sanity: the CSV actually contains the sweep (header + 8 case rows).
  EXPECT_EQ(static_cast<std::size_t>(std::count(off.begin(), off.end(), '\n')),
            9u);
}

// Deterministic emission: two traced same-seed runs export byte-identical
// trace files.
TEST(TracingEquivalence, TraceBytesIdenticalAcrossRuns) {
  const std::string dir = ::testing::TempDir();
  run_case_traced(3, 8.0, dir + "equiv-trace-a.json");
  run_case_traced(3, 8.0, dir + "equiv-trace-b.json");
  const std::string a = read_file(dir + "equiv-trace-a.json");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, read_file(dir + "equiv-trace-b.json"));
}

// A .csv trace_out selects the CSV exporter.
TEST(TracingEquivalence, CsvExtensionSelectsCsvExport) {
  const std::string path = ::testing::TempDir() + "equiv-trace.csv";
  run_case_traced(2, 8.0, path);
  const std::string csv = read_file(path);
  EXPECT_EQ(csv.rfind("t,seq,node,cat,ph,name", 0), 0u);
}

}  // namespace
