// Acceptance gate for the DES hot-path overhaul: swapping the event queue
// (ladder vs the seed binary heap) and toggling frame pooling must leave
// full simulation results — rendered to CSV exactly the way the figure
// benches render them — byte-for-byte identical.  The queue contract is a
// strict total order on (t, seq); these runs exercise it end to end through
// the PVM transport, the sciddle RPC rounds and the opal physics.
#include <gtest/gtest.h>

#include <cstdlib>
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mach/platforms_db.hpp"
#include "opal/complex.hpp"
#include "opal/metrics.hpp"
#include "opal/parallel.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/pool.hpp"
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

/// RAII guard restoring the process-default queue kind and pool switch.
struct ConfigGuard {
  sim::EventQueueKind kind = sim::default_event_queue();
  bool pool = sim::FramePool::enabled();
  ~ConfigGuard() {
    sim::set_default_event_queue(kind);
    sim::FramePool::set_enabled(pool);
  }
};

TEST(EngineEquivalence, CsvBytesIdenticalAcrossQueueKinds) {
  ConfigGuard guard;
  sim::set_default_event_queue(sim::EventQueueKind::kHeap);
  const std::string heap_csv = sweep_csv();
  sim::set_default_event_queue(sim::EventQueueKind::kLadder);
  const std::string ladder_csv = sweep_csv();
  EXPECT_EQ(heap_csv, ladder_csv);
  // Sanity: the CSV actually contains the sweep (header + 8 case rows).
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(heap_csv.begin(), heap_csv.end(), '\n')),
            9u);
}

TEST(EngineEquivalence, CsvBytesIdenticalWithPoolingDisabled) {
  ConfigGuard guard;
  sim::FramePool::set_enabled(true);
  const std::string pooled_csv = sweep_csv();
  sim::FramePool::set_enabled(false);
  const std::string heap_alloc_csv = sweep_csv();
  EXPECT_EQ(pooled_csv, heap_alloc_csv);
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
}

// Deterministic emission: two traced same-seed runs export byte-identical
// trace files, and the bytes survive an event-queue swap (the sink assigns
// seq in execution order, which the (t, seq) contract fixes).
TEST(TracingEquivalence, TraceBytesIdenticalAcrossRunsAndQueueKinds) {
  ConfigGuard guard;
  const std::string dir = ::testing::TempDir();
  sim::set_default_event_queue(sim::EventQueueKind::kHeap);
  run_case_traced(3, 8.0, dir + "equiv-trace-a.json");
  run_case_traced(3, 8.0, dir + "equiv-trace-b.json");
  const std::string a = read_file(dir + "equiv-trace-a.json");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, read_file(dir + "equiv-trace-b.json"));
  sim::set_default_event_queue(sim::EventQueueKind::kLadder);
  run_case_traced(3, 8.0, dir + "equiv-trace-c.json");
  EXPECT_EQ(a, read_file(dir + "equiv-trace-c.json"));
}

// A .csv trace_out selects the CSV exporter.
TEST(TracingEquivalence, CsvExtensionSelectsCsvExport) {
  const std::string path = ::testing::TempDir() + "equiv-trace.csv";
  run_case_traced(2, 8.0, path);
  const std::string csv = read_file(path);
  EXPECT_EQ(csv.rfind("t,seq,node,cat,ph,name", 0), 0u);
}

TEST(EngineEquivalence, SeedConfigurationMatchesNewDefault) {
  // The seed engine was binary heap + global-heap allocation; the new
  // default is ladder + pooled.  Both corners of the matrix must agree.
  ConfigGuard guard;
  sim::set_default_event_queue(sim::EventQueueKind::kHeap);
  sim::FramePool::set_enabled(false);
  const std::string seed_csv = sweep_csv();
  sim::set_default_event_queue(sim::EventQueueKind::kLadder);
  sim::FramePool::set_enabled(true);
  const std::string new_csv = sweep_csv();
  EXPECT_EQ(seed_csv, new_csv);
}

}  // namespace
