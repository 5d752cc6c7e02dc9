#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "util/fatal.hpp"

namespace {

using opalsim::sim::FaultModel;
using opalsim::sim::FaultSpec;
using opalsim::sim::LinkDegradation;
using opalsim::sim::MessageFault;
using opalsim::sim::NodeFault;

TEST(FaultSpec, DefaultIsDisabled) {
  FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  FaultModel model(spec);
  EXPECT_FALSE(model.enabled());
}

TEST(FaultSpec, AnyRateEnables) {
  FaultSpec spec;
  spec.drop_rate = 0.01;
  EXPECT_TRUE(spec.enabled());
  spec = FaultSpec{};
  spec.node_faults.push_back(NodeFault{2, 5.0});
  EXPECT_TRUE(spec.enabled());
}

TEST(FaultModel, DisabledModelIsIdentity) {
  FaultModel model;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.next_message_fault(0, 1), MessageFault::None);
  }
  EXPECT_DOUBLE_EQ(model.bandwidth_factor(123.0), 1.0);
  EXPECT_DOUBLE_EQ(model.latency_factor(123.0), 1.0);
  EXPECT_DOUBLE_EQ(model.next_daemon_stall(0.0), 0.0);
  EXPECT_FALSE(model.node_dead(0, 1e9));
  EXPECT_EQ(model.counters().messages_seen, 0u);
}

TEST(FaultModel, RejectsInvalidRates) {
  FaultSpec spec;
  spec.drop_rate = 0.6;
  spec.duplicate_rate = 0.5;  // sums to 1.1
  EXPECT_THROW(FaultModel{spec}, std::invalid_argument);
  spec = FaultSpec{};
  spec.corrupt_rate = -0.1;
  EXPECT_THROW(FaultModel{spec}, std::invalid_argument);
  spec = FaultSpec{};
  spec.daemon_stall_rate = 1.5;
  EXPECT_THROW(FaultModel{spec}, std::invalid_argument);
}

TEST(FaultModel, RefusesNanAndOutOfRangeRatesAsConfigErrors) {
  // NaN compares false both ways, so a check written as r < 0 would let it
  // through and leave the faults silently off.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    double FaultSpec::*rate;
    double value;
    const char* named;
  };
  const Case cases[] = {
      {&FaultSpec::drop_rate, nan, "drop_rate must be >= 0"},
      {&FaultSpec::duplicate_rate, -0.1, "duplicate_rate must be >= 0"},
      {&FaultSpec::corrupt_rate, nan, "corrupt_rate must be >= 0"},
      {&FaultSpec::drop_rate, 1.5, "must be <= 1"},
      {&FaultSpec::corrupt_rate, inf, "must be <= 1"},
      {&FaultSpec::daemon_stall_rate, nan, "daemon_stall_rate"},
      {&FaultSpec::daemon_stall_rate, -1.0, "daemon_stall_rate"},
  };
  for (const Case& c : cases) {
    FaultSpec spec;
    spec.*c.rate = c.value;
    SCOPED_TRACE(c.named);
    try {
      FaultModel model(spec);
      ADD_FAILURE() << "accepted " << c.value;
    } catch (const opalsim::util::ConfigError& e) {
      EXPECT_EQ(e.subsystem(), "sim");
      EXPECT_NE(std::string(e.what()).find(c.named), std::string::npos)
          << e.what();
    }
  }
  // The edges stay valid: every rate at 0, and rates summing to exactly 1.
  FaultSpec edge;
  edge.drop_rate = 0.5;
  edge.duplicate_rate = 0.25;
  edge.corrupt_rate = 0.25;
  edge.daemon_stall_rate = 1.0;
  EXPECT_NO_THROW(FaultModel{edge});
}

TEST(FaultModel, SameSeedReplaysIdenticalDecisions) {
  FaultSpec spec;
  spec.seed = 42;
  spec.drop_rate = 0.1;
  spec.duplicate_rate = 0.05;
  spec.corrupt_rate = 0.05;
  FaultModel a(spec), b(spec);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(a.next_message_fault(0, 1), b.next_message_fault(0, 1));
    EXPECT_EQ(a.next_corrupt_position(97), b.next_corrupt_position(97));
  }
  EXPECT_EQ(a.counters().dropped, b.counters().dropped);
}

TEST(FaultModel, DifferentSeedsDiverge) {
  FaultSpec spec;
  spec.drop_rate = 0.5;
  spec.seed = 1;
  FaultModel a(spec);
  spec.seed = 2;
  FaultModel b(spec);
  int differ = 0;
  for (int i = 0; i < 1000; ++i) {
    differ += a.next_message_fault(0, 1) != b.next_message_fault(0, 1);
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultModel, FaultFrequenciesMatchRates) {
  FaultSpec spec;
  spec.seed = 7;
  spec.drop_rate = 0.30;
  spec.duplicate_rate = 0.20;
  spec.corrupt_rate = 0.10;
  FaultModel model(spec);
  const int n = 100000;
  for (int i = 0; i < n; ++i) (void)model.next_message_fault(0, 1);
  const auto& c = model.counters();
  EXPECT_EQ(c.messages_seen, static_cast<std::uint64_t>(n));
  EXPECT_NEAR(static_cast<double>(c.dropped) / n, 0.30, 0.01);
  EXPECT_NEAR(static_cast<double>(c.duplicated) / n, 0.20, 0.01);
  EXPECT_NEAR(static_cast<double>(c.corrupted) / n, 0.10, 0.01);
}

TEST(FaultModel, StreamsAreIndependent) {
  // Drawing message faults must not shift the corruption-position stream:
  // each concern has its own RNG, so adding consumers to one stream leaves
  // the other decisions untouched.
  FaultSpec spec;
  spec.seed = 9;
  spec.drop_rate = 0.5;
  FaultModel a(spec), b(spec);
  for (int i = 0; i < 1000; ++i) (void)a.next_message_fault(0, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.next_corrupt_position(1024), b.next_corrupt_position(1024));
  }
}

TEST(FaultModel, CorruptPositionIsInRange) {
  FaultSpec spec;
  spec.seed = 3;
  spec.corrupt_rate = 1.0;
  FaultModel model(spec);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(model.next_corrupt_position(17), 17u);
  }
  EXPECT_EQ(model.next_corrupt_position(0), 0u);
}

TEST(FaultModel, DegradationWindowAppliesOnlyInside) {
  FaultSpec spec;
  spec.degradations.push_back(LinkDegradation{10.0, 20.0, 0.5, 3.0});
  FaultModel model(spec);
  EXPECT_DOUBLE_EQ(model.bandwidth_factor(5.0), 1.0);
  EXPECT_DOUBLE_EQ(model.bandwidth_factor(10.0), 0.5);
  EXPECT_DOUBLE_EQ(model.bandwidth_factor(19.999), 0.5);
  EXPECT_DOUBLE_EQ(model.bandwidth_factor(20.0), 1.0);
  EXPECT_DOUBLE_EQ(model.latency_factor(15.0), 3.0);
  EXPECT_DOUBLE_EQ(model.latency_factor(25.0), 1.0);
}

TEST(FaultModel, OverlappingWindowsCompose) {
  FaultSpec spec;
  spec.degradations.push_back(LinkDegradation{0.0, 10.0, 0.5, 2.0});
  spec.degradations.push_back(LinkDegradation{5.0, 15.0, 0.5, 2.0});
  FaultModel model(spec);
  EXPECT_DOUBLE_EQ(model.bandwidth_factor(7.0), 0.25);
  EXPECT_DOUBLE_EQ(model.latency_factor(7.0), 4.0);
}

TEST(FaultModel, ZeroBandwidthWindowIsFloored) {
  FaultSpec spec;
  spec.degradations.push_back(LinkDegradation{0.0, 10.0, 0.0, 1.0});
  FaultModel model(spec);
  EXPECT_GT(model.bandwidth_factor(5.0), 0.0);  // progress is never fully cut
}

TEST(FaultSpec, AddFlapAlternatesWindows) {
  FaultSpec spec;
  spec.add_flap(0.0, 10.0, 2.0, 0.5);
  // Down phases: [0,2), [4,6), [8,10).
  ASSERT_EQ(spec.degradations.size(), 3u);
  FaultModel model(spec);
  EXPECT_DOUBLE_EQ(model.bandwidth_factor(1.0), 0.5);
  EXPECT_DOUBLE_EQ(model.bandwidth_factor(3.0), 1.0);
  EXPECT_DOUBLE_EQ(model.bandwidth_factor(5.0), 0.5);
  EXPECT_DOUBLE_EQ(model.bandwidth_factor(7.0), 1.0);
  EXPECT_DOUBLE_EQ(model.bandwidth_factor(9.0), 0.5);
  EXPECT_THROW(spec.add_flap(0.0, 1.0, 0.0, 0.5), std::invalid_argument);
}

TEST(FaultModel, ScheduledNodeDeath) {
  FaultSpec spec;
  spec.node_faults.push_back(NodeFault{2, 5.0});
  FaultModel model(spec);
  EXPECT_FALSE(model.node_dead(2, 4.999));
  EXPECT_TRUE(model.node_dead(2, 5.0));
  EXPECT_TRUE(model.node_dead(2, 100.0));
  EXPECT_FALSE(model.node_dead(1, 100.0));
}

TEST(FaultModel, KillNodeEnablesAndKills) {
  FaultModel model;  // starts disabled
  EXPECT_FALSE(model.enabled());
  model.kill_node(3, 7.5);
  EXPECT_TRUE(model.enabled());
  EXPECT_FALSE(model.node_dead(3, 7.0));
  EXPECT_TRUE(model.node_dead(3, 8.0));
}

TEST(FaultModel, DaemonStallRespectsRateAndDuration) {
  FaultSpec spec;
  spec.seed = 11;
  spec.daemon_stall_rate = 1.0;
  spec.daemon_stall_s = 0.25;
  FaultModel always(spec);
  EXPECT_DOUBLE_EQ(always.next_daemon_stall(0.0), 0.25);
  spec.daemon_stall_rate = 0.0;
  FaultModel never(spec);
  EXPECT_DOUBLE_EQ(never.next_daemon_stall(0.0), 0.0);
}

}  // namespace
