// Checkpoint/restart byte-identity oracle: a run checkpointed at a quiescent
// step boundary and resumed in a fresh process-equivalent (new engine, new
// task graph) must finish with bit-identical physics, byte-identical metrics
// JSON, and a trace that is exactly the golden trace's tail.
//
// The golden runs here carry the same checkpoint flags as the resumed runs,
// so both emit the checkpoint-stable metrics key set and the same kCkpt
// trace instants — any divergence is a replay bug, never a flag artifact.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "ckpt/store.hpp"
#include "mach/platforms_db.hpp"
#include "opal/parallel.hpp"
#include "sim/fault.hpp"
#include "util/fatal.hpp"

namespace {

namespace fs = std::filesystem;
using opalsim::ckpt::RunSnapshot;
using opalsim::mach::PlatformSpec;
using opalsim::mach::with_faults;
using opalsim::opal::make_large_complex;
using opalsim::opal::make_medium_complex;
using opalsim::opal::make_small_complex;
using opalsim::opal::MolecularComplex;
using opalsim::opal::ParallelOpal;
using opalsim::opal::ParallelRunResult;
using opalsim::opal::RunMode;
using opalsim::opal::SimResult;
using opalsim::opal::SimulationConfig;
using opalsim::sim::FaultSpec;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

opalsim::sciddle::Options ft_middleware() {
  opalsim::sciddle::Options opts;
  opts.retry.enabled = true;
  opts.retry.timeout_s = 2.0;
  opts.retry.heartbeat_timeout_s = 2.0;
  return opts;
}

struct RunOutputs {
  ParallelRunResult result;
  std::string trace;
  std::string metrics;
};

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("opalsim_ckpt_resume_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    image_ = (dir_ / "run.ckpt").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs ParallelOpal with per-run trace/metrics outputs under dir_.
  RunOutputs run(SimulationConfig cfg, const PlatformSpec& platform,
                 const MolecularComplex& mc, int servers,
                 opalsim::sciddle::Options mw, const std::string& tag) {
    cfg.trace_out = (dir_ / (tag + ".csv")).string();
    cfg.metrics_out = (dir_ / (tag + ".json")).string();
    ParallelOpal par(platform, mc, servers, cfg, mw);
    RunOutputs out;
    out.result = par.run();
    out.trace = slurp(cfg.trace_out);
    out.metrics = slurp(cfg.metrics_out);
    return out;
  }

  /// The oracle: golden = uninterrupted run writing an image at
  /// `checkpoint_at_step`; resumed = fresh construction restoring that image.
  /// Physics bits, RunMetrics, metrics JSON bytes must be identical; the
  /// resumed trace must be exactly the golden trace's tail.
  void expect_resume_identical(SimulationConfig cfg,
                               const PlatformSpec& platform,
                               const MolecularComplex& mc, int servers,
                               opalsim::sciddle::Options mw) {
    cfg.checkpoint_out = image_;
    const RunOutputs golden = run(cfg, platform, mc, servers, mw, "golden");
    ASSERT_TRUE(fs::exists(image_)) << "no checkpoint image written";

    SimulationConfig rcfg = cfg;
    rcfg.resume_from = image_;
    const RunOutputs resumed = run(rcfg, platform, mc, servers, mw, "resume");

    expect_bitwise_equal(golden.result.physics, resumed.result.physics);
    expect_metrics_equal(golden.result, resumed.result);
    EXPECT_EQ(golden.metrics, resumed.metrics) << "metrics JSON diverged";
    expect_trace_tail(golden.trace, resumed.trace);
  }

  static void expect_bitwise_equal(const SimResult& a, const SimResult& b) {
    EXPECT_EQ(a.evdw, b.evdw);
    EXPECT_EQ(a.ecoul, b.ecoul);
    EXPECT_EQ(a.bonded.bond, b.bonded.bond);
    EXPECT_EQ(a.bonded.angle, b.bonded.angle);
    EXPECT_EQ(a.bonded.dihedral, b.bonded.dihedral);
    EXPECT_EQ(a.bonded.improper, b.bonded.improper);
    EXPECT_EQ(a.kinetic, b.kinetic);
    EXPECT_EQ(a.temperature, b.temperature);
    EXPECT_EQ(a.pressure, b.pressure);
    EXPECT_EQ(a.volume, b.volume);
  }

  static void expect_metrics_equal(const ParallelRunResult& a,
                                   const ParallelRunResult& b) {
    EXPECT_EQ(a.metrics.par_update, b.metrics.par_update);
    EXPECT_EQ(a.metrics.par_nbint, b.metrics.par_nbint);
    EXPECT_EQ(a.metrics.seq_comp, b.metrics.seq_comp);
    EXPECT_EQ(a.metrics.sync, b.metrics.sync);
    EXPECT_EQ(a.metrics.idle, b.metrics.idle);
    EXPECT_EQ(a.metrics.recovery, b.metrics.recovery);
    EXPECT_EQ(a.metrics.wall, b.metrics.wall);
    EXPECT_EQ(a.metrics.pairs_checked, b.metrics.pairs_checked);
    EXPECT_EQ(a.metrics.pairs_evaluated, b.metrics.pairs_evaluated);
    EXPECT_EQ(a.metrics.list_updates, b.metrics.list_updates);
    EXPECT_EQ(a.metrics.retries, b.metrics.retries);
    EXPECT_EQ(a.metrics.timeouts, b.metrics.timeouts);
    EXPECT_EQ(a.metrics.failovers, b.metrics.failovers);
    EXPECT_EQ(a.metrics.servers_failed, b.metrics.servers_failed);
    EXPECT_EQ(a.metrics.msgs_dropped, b.metrics.msgs_dropped);
    EXPECT_EQ(a.metrics.msgs_duplicated, b.metrics.msgs_duplicated);
    EXPECT_EQ(a.metrics.msgs_corrupted, b.metrics.msgs_corrupted);
    EXPECT_EQ(a.server_busy, b.server_busy);
    EXPECT_EQ(a.server_counted_mflop, b.server_counted_mflop);
  }

  /// The resumed trace (header + tail rows) must match the golden trace's
  /// header and final rows byte for byte — same events, same virtual times,
  /// same sequence numbers.
  static void expect_trace_tail(const std::string& golden,
                                const std::string& resumed) {
    const std::vector<std::string> g = lines_of(golden);
    const std::vector<std::string> r = lines_of(resumed);
    ASSERT_GE(g.size(), 1u);
    ASSERT_GE(r.size(), 2u) << "resumed trace has no data rows";
    EXPECT_EQ(g[0], r[0]) << "CSV header diverged";
    ASSERT_LE(r.size(), g.size()) << "resumed trace longer than golden";
    const std::size_t tail = r.size() - 1;  // data rows in the resumed trace
    for (std::size_t i = 0; i < tail; ++i) {
      ASSERT_EQ(g[g.size() - tail + i], r[i + 1])
          << "trace tail diverged at resumed row " << i;
    }
  }

  /// Writes an image of a small-complex run on p = 3 fault-tolerant
  /// servers, lets `forge` edit its decoded snapshot, re-encodes it (so the
  /// CRC is valid) and resumes from it.  The resume must be refused with
  /// FatalError("ckpt"), not crash or run on.
  void expect_forged_image_refused(
      const std::function<void(RunSnapshot&)>& forge,
      RunMode mode = RunMode::Dynamics) {
    SimulationConfig cfg;
    cfg.steps = 4;
    cfg.cutoff = 10.0;
    cfg.mode = mode;
    cfg.checkpoint_at_step = 2;
    cfg.checkpoint_out = image_;
    const MolecularComplex mc = make_small_complex();
    ParallelOpal golden(opalsim::mach::fast_cops(), mc, 3, cfg,
                        ft_middleware());
    (void)golden.run();
    RunSnapshot s = opalsim::ckpt::load_snapshot(image_);
    ASSERT_EQ(s.servers.size(), 3u);
    ASSERT_TRUE(s.servers[0].lists.materialized);
    forge(s);
    opalsim::ckpt::write_image_atomic(image_, opalsim::ckpt::encode(s));

    SimulationConfig rcfg = cfg;
    rcfg.resume_from = image_;
    ParallelOpal resumed(opalsim::mach::fast_cops(), mc, 3, rcfg,
                         ft_middleware());
    try {
      (void)resumed.run();
      FAIL() << "resume accepted a forged checkpoint";
    } catch (const opalsim::util::FatalError& e) {
      EXPECT_EQ(e.subsystem(), "ckpt") << e.what();
    }
  }

  fs::path dir_;
  std::string image_;
};

TEST_F(CheckpointResumeTest, MediumFaultFreeByteIdentical) {
  SimulationConfig cfg;
  cfg.steps = 6;
  cfg.cutoff = 10.0;
  cfg.update_every = 2;
  cfg.checkpoint_at_step = 3;
  expect_resume_identical(cfg, opalsim::mach::fast_cops(),
                          make_medium_complex(), 4, {});
}

TEST_F(CheckpointResumeTest, MediumFaultProfileByteIdentical) {
  // Message loss + duplication before AND after the checkpoint, plus a
  // server killed after it: the resumed run must replay the identical fault
  // decisions (all three RNG streams restored mid-sequence).
  SimulationConfig cfg;
  cfg.steps = 8;
  cfg.cutoff = 10.0;
  cfg.update_every = 2;
  cfg.checkpoint_at_step = 3;
  cfg.kill_server = 2;
  cfg.kill_at_step = 5;
  FaultSpec fault;
  fault.seed = 7;
  fault.drop_rate = 0.02;
  fault.duplicate_rate = 0.02;
  expect_resume_identical(cfg,
                          with_faults(opalsim::mach::fast_cops(), fault),
                          make_medium_complex(), 4, ft_middleware());
}

TEST_F(CheckpointResumeTest, ResumeAfterNodeKilledBeforeFirstCheckpoint) {
  // The server dies before the image is taken: the snapshot carries a dead
  // failure-detector entry, a grown survivor assignment and a dynamic node
  // fault.  The resumed run must not resurrect or re-kill it.
  SimulationConfig cfg;
  cfg.steps = 7;
  cfg.cutoff = 10.0;
  cfg.update_every = 2;
  cfg.kill_server = 1;
  cfg.kill_at_step = 1;
  cfg.checkpoint_at_step = 4;
  expect_resume_identical(cfg, opalsim::mach::fast_cops(),
                          make_medium_complex(), 4, ft_middleware());
}

TEST_F(CheckpointResumeTest, LargeComplexByteIdentical) {
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 8.0;
  cfg.update_every = 2;
  cfg.checkpoint_at_step = 2;
  expect_resume_identical(cfg, opalsim::mach::fast_cops(),
                          make_large_complex(), 4, {});
}

TEST_F(CheckpointResumeTest, PeriodicCheckpointsUnderDuplicationByteIdentical) {
  // Every boundary is a checkpoint candidate; heavy duplication makes
  // stale in-flight transfers (and hence deferrals) likely.  Resume from
  // whatever image survived last.
  SimulationConfig cfg;
  cfg.steps = 6;
  cfg.cutoff = 10.0;
  cfg.update_every = 2;
  cfg.checkpoint_every_steps = 1;
  FaultSpec fault;
  fault.seed = 11;
  fault.duplicate_rate = 0.08;
  expect_resume_identical(cfg,
                          with_faults(opalsim::mach::fast_cops(), fault),
                          make_medium_complex(), 3, ft_middleware());
}

TEST_F(CheckpointResumeTest, MinimizationModeByteIdentical) {
  // The minimizer's adaptive state (step size, previous energy/position)
  // rides in the image.
  SimulationConfig cfg;
  cfg.steps = 6;
  cfg.cutoff = 10.0;
  cfg.mode = opalsim::opal::RunMode::Minimization;
  cfg.checkpoint_at_step = 3;
  expect_resume_identical(cfg, opalsim::mach::fast_cops(),
                          make_medium_complex(), 2, {});
}

TEST_F(CheckpointResumeTest, CheckpointAtStepZeroByteIdentical) {
  // The image holds no update coordinates and no minimizer history yet.
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 10.0;
  cfg.update_every = 2;
  cfg.checkpoint_at_step = 0;
  expect_resume_identical(cfg, opalsim::mach::fast_cops(),
                          make_small_complex(), 3, ft_middleware());
}

TEST_F(CheckpointResumeTest, CheckpointStableMetricsKeySet) {
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 10.0;
  cfg.checkpoint_at_step = 2;
  cfg.checkpoint_out = image_;
  const RunOutputs out =
      run(cfg, opalsim::mach::fast_cops(), make_medium_complex(), 2, {}, "g");
  EXPECT_NE(out.metrics.find("ckpt.images_written"), std::string::npos);
  EXPECT_NE(out.metrics.find("ckpt.bytes_written"), std::string::npos);
  EXPECT_NE(out.metrics.find("ckpt.deferred"), std::string::npos);
  // Process-lifetime pool stats cannot survive a resume: omitted.
  EXPECT_EQ(out.metrics.find("engine.pool."), std::string::npos);
}

TEST_F(CheckpointResumeTest, EnvKnobEnablesCheckpointing) {
  ::setenv("OPALSIM_CHECKPOINT", image_.c_str(), 1);
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 10.0;
  cfg.checkpoint_at_step = 2;
  ParallelOpal par(opalsim::mach::fast_cops(), make_medium_complex(), 2, cfg);
  (void)par.run();
  ::unsetenv("OPALSIM_CHECKPOINT");
  EXPECT_TRUE(fs::exists(image_));
}

TEST_F(CheckpointResumeTest, FingerprintMismatchRefusesResume) {
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 10.0;
  cfg.checkpoint_at_step = 2;
  cfg.checkpoint_out = image_;
  ParallelOpal par(opalsim::mach::fast_cops(), make_medium_complex(), 2, cfg);
  (void)par.run();

  SimulationConfig other = cfg;
  other.resume_from = image_;
  other.steps = 5;  // different run identity
  ParallelOpal bad(opalsim::mach::fast_cops(), make_medium_complex(), 2,
                   other);
  try {
    (void)bad.run();
    FAIL() << "resume accepted a foreign checkpoint";
  } catch (const opalsim::util::FatalError& e) {
    EXPECT_EQ(e.subsystem(), "ckpt");
    EXPECT_NE(std::string(e.what()).find("different run configuration"),
              std::string::npos);
  }
}

// Forged images: CRC-valid, so only the resume's own checks stand between
// them and an out-of-bounds access.

TEST_F(CheckpointResumeTest, ForgedDomainIndexIsRefused) {
  expect_forged_image_refused([](RunSnapshot& s) {
    s.servers[0].lists.domain.at(0).j = 50'000'000;  // j of the first pair
  });
}

TEST_F(CheckpointResumeTest, ForgedActivePairIsRefused) {
  expect_forged_image_refused([](RunSnapshot& s) {
    std::vector<opalsim::opal::PairIdx>& active = s.servers[1].lists.active;
    ASSERT_GE(active.size(), 1u);
    std::swap(active[0].i, active[0].j);  // (j, i): i > j
  });
}

TEST_F(CheckpointResumeTest, ForgedActiveLongerThanDomainIsRefused) {
  expect_forged_image_refused([](RunSnapshot& s) {
    opalsim::opal::ServerDomain::Snapshot& ss = s.servers[2].lists;
    ss.active = ss.domain;
    ss.active.insert(ss.active.end(), ss.domain.begin(),
                     ss.domain.begin() + 1);
  });
}

TEST_F(CheckpointResumeTest, ForgedActivePairOutsideDomainIsRefused) {
  // In range, but another server's pair: it would be evaluated twice.
  expect_forged_image_refused([](RunSnapshot& s) {
    s.servers[1].lists.active.at(0) = s.servers[0].lists.domain.at(0);
  });
}

TEST_F(CheckpointResumeTest, ForgedPairOnTwoLiveServersIsRefused) {
  expect_forged_image_refused([](RunSnapshot& s) {
    s.servers[1].lists.domain.push_back(s.servers[0].lists.domain.at(0));
  });
}

TEST_F(CheckpointResumeTest, ForgedMissingCpuSnapIsRefused) {
  expect_forged_image_refused(
      [](RunSnapshot& s) { s.machine.cpus.pop_back(); });
}

TEST_F(CheckpointResumeTest, ForgedNonFiniteBusyTimeIsRefused) {
  expect_forged_image_refused([](RunSnapshot& s) {
    s.machine.cpus.at(1).busy_seconds = std::nan("");
  });
}

TEST_F(CheckpointResumeTest, ForgedExtraMailboxesAreRefused) {
  expect_forged_image_refused([](RunSnapshot& s) {
    s.pvm.mailboxes.resize(s.pvm.mailboxes.size() + 50);
  });
}

TEST_F(CheckpointResumeTest, ForgedServerAliveAndAssignmentCountsAreRefused) {
  expect_forged_image_refused(
      [](RunSnapshot& s) { s.servers.pop_back(); });
  expect_forged_image_refused(
      [](RunSnapshot& s) { s.rpc.alive.push_back(true); });
  expect_forged_image_refused(
      [](RunSnapshot& s) { s.client.assignment.pop_back(); });
}

TEST_F(CheckpointResumeTest, ForgedFailureDetectorStateIsRefused) {
  // A dead server the totals do not count, and no live server at all.
  expect_forged_image_refused(
      [](RunSnapshot& s) { s.rpc.alive.at(0) = false; });
  expect_forged_image_refused([](RunSnapshot& s) {
    s.rpc.alive.assign(s.rpc.alive.size(), false);
    s.rpc.totals.servers_failed = s.rpc.alive.size();
  });
}

TEST_F(CheckpointResumeTest, ForgedAssignedPairIsRefused) {
  expect_forged_image_refused([](RunSnapshot& s) {
    s.client.assignment.at(0).at(0).j = 50'000'000;
  });
}

TEST_F(CheckpointResumeTest, ForgedShortVelocitiesAreRefused) {
  // Overflowed the heap in fill_observables.
  expect_forged_image_refused(
      [](RunSnapshot& s) { s.client.velocities.pop_back(); });
}

TEST_F(CheckpointResumeTest, ForgedEmptyVelocitiesAreRefused) {
  // Bound a reference to a null element in fill_observables.
  expect_forged_image_refused(
      [](RunSnapshot& s) { s.client.velocities.clear(); });
}

TEST_F(CheckpointResumeTest, ForgedShortPositionsAreRefused) {
  // Escaped as std::invalid_argument from set_flat_coordinates.
  expect_forged_image_refused([](RunSnapshot& s) {
    s.client.positions.resize(s.client.positions.size() - 3);
  });
}

TEST_F(CheckpointResumeTest, ForgedShortUpdateCoordinatesAreRefused) {
  // A failover-forced update ships them to every server.
  expect_forged_image_refused([](RunSnapshot& s) {
    s.client.update_coords.resize(s.client.update_coords.size() - 3);
  });
}

TEST_F(CheckpointResumeTest, ForgedShortMinimizerHistoryIsRefused) {
  // A previous energy below any reached forces the rejecting branch, which
  // backtracks through n previous positions and gradients.
  expect_forged_image_refused(
      [](RunSnapshot& s) {
        opalsim::opal::SteepestDescent::Snapshot& m = s.client.minimizer;
        ASSERT_TRUE(m.has_prev);
        m.prev_pos.pop_back();
        m.prev_grad.pop_back();
        m.prev_energy = -1e300;
      },
      RunMode::Minimization);
}

TEST_F(CheckpointResumeTest, ForgedStepOutsideRunIsRefused) {
  // Step -5 ran 5 steps more than configured; step 4 of 4 ran none.
  expect_forged_image_refused([](RunSnapshot& s) { s.client.step = -5; });
  expect_forged_image_refused([](RunSnapshot& s) { s.client.step = 4; });
}

TEST_F(CheckpointResumeTest, ForgedClockIsRefused) {
  // A NaN clock escaped as "all servers failed".
  expect_forged_image_refused(
      [](RunSnapshot& s) { s.engine.now = std::nan(""); });
  expect_forged_image_refused([](RunSnapshot& s) { s.engine.now = -1.0; });
}

TEST_F(CheckpointResumeTest, ForgedRegressedEventSeqIsRefused) {
  expect_forged_image_refused([](RunSnapshot& s) { --s.engine.next_seq; });
}

}  // namespace
