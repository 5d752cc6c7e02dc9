#include "mach/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "mach/platform.hpp"
#include "mach/platforms_db.hpp"
#include "util/fatal.hpp"

namespace {

using opalsim::mach::DaemonNetwork;
using opalsim::mach::Machine;
using opalsim::mach::make_network;
using opalsim::mach::NetSpec;
using opalsim::mach::SharedBusNetwork;
using opalsim::mach::SwitchedNetwork;
using opalsim::sim::Engine;
using opalsim::sim::Task;

NetSpec spec_of(NetSpec::Kind kind, double mbps, double lat) {
  NetSpec s;
  s.kind = kind;
  s.name = "test-net";
  s.observed_MBps = mbps;
  s.hw_peak_MBps = mbps * 2;
  s.latency_s = lat;
  return s;
}

TEST(NetSpec, UnloadedTimeIsLatencyPlusBytesOverBandwidth) {
  Engine eng;
  SwitchedNetwork net(eng, spec_of(NetSpec::Kind::Switched, 10.0, 0.001), 2);
  EXPECT_NEAR(net.unloaded_time(10'000'000), 0.001 + 1.0, 1e-12);
}

TEST(SwitchedNetwork, DisjointPairsTransferConcurrently) {
  Engine eng;
  auto s = spec_of(NetSpec::Kind::Switched, 1.0, 0.0);  // 1 MB/s, no latency
  SwitchedNetwork net(eng, s, 4);
  std::vector<double> done;
  auto proc = [&](int src, int dst) -> Task<void> {
    co_await net.transfer(src, dst, 1'000'000);  // 1 s each
    done.push_back(eng.now());
  };
  eng.spawn(proc(0, 1));
  eng.spawn(proc(2, 3));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 1.0);  // concurrent, not 2.0
}

TEST(SwitchedNetwork, SameSenderSerializes) {
  Engine eng;
  auto s = spec_of(NetSpec::Kind::Switched, 1.0, 0.0);
  SwitchedNetwork net(eng, s, 3);
  std::vector<double> done;
  auto proc = [&](int dst) -> Task<void> {
    co_await net.transfer(0, dst, 1'000'000);
    done.push_back(eng.now());
  };
  eng.spawn(proc(1));
  eng.spawn(proc(2));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);  // send link shared
}

TEST(SwitchedNetwork, SameReceiverSerializes) {
  Engine eng;
  auto s = spec_of(NetSpec::Kind::Switched, 1.0, 0.0);
  SwitchedNetwork net(eng, s, 3);
  std::vector<double> done;
  auto proc = [&](int src) -> Task<void> {
    co_await net.transfer(src, 0, 1'000'000);
    done.push_back(eng.now());
  };
  eng.spawn(proc(1));
  eng.spawn(proc(2));
  eng.run();
  EXPECT_DOUBLE_EQ(done[1], 2.0);  // recv link shared
}

TEST(SharedBusNetwork, AllTransfersSerialize) {
  Engine eng;
  auto s = spec_of(NetSpec::Kind::SharedBus, 1.0, 0.0);
  SharedBusNetwork net(eng, s);
  std::vector<double> done;
  auto proc = [&](int src, int dst) -> Task<void> {
    co_await net.transfer(src, dst, 1'000'000);
    done.push_back(eng.now());
  };
  eng.spawn(proc(0, 1));
  eng.spawn(proc(2, 3));  // disjoint pair, still serialized on the bus
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
}

TEST(DaemonNetwork, AllTransfersSerializeThroughDaemon) {
  Engine eng;
  auto s = spec_of(NetSpec::Kind::Daemon, 3.0, 0.01);  // J90-like
  DaemonNetwork net(eng, s);
  std::vector<double> done;
  auto proc = [&]() -> Task<void> {
    co_await net.transfer(0, 1, 3'000'000);  // 1 s + 10 ms
    done.push_back(eng.now());
  };
  eng.spawn(proc());
  eng.spawn(proc());
  eng.run();
  EXPECT_NEAR(done[0], 1.01, 1e-9);
  EXPECT_NEAR(done[1], 2.02, 1e-9);
}

TEST(NetworkModel, LatencyPaidPerMessage) {
  Engine eng;
  auto s = spec_of(NetSpec::Kind::SharedBus, 1000.0, 0.5);
  SharedBusNetwork net(eng, s);
  auto proc = [&]() -> Task<void> {
    co_await net.transfer(0, 1, 0);  // empty message: pure latency
  };
  eng.spawn(proc());
  eng.run();
  EXPECT_NEAR(eng.now(), 0.5, 1e-12);
}

TEST(NetworkModel, AccountsMessagesAndBytes) {
  Engine eng;
  auto s = spec_of(NetSpec::Kind::SharedBus, 1.0, 0.0);
  SharedBusNetwork net(eng, s);
  auto proc = [&]() -> Task<void> {
    co_await net.transfer(0, 1, 100);
    co_await net.transfer(1, 0, 200);
  };
  eng.spawn(proc());
  eng.run();
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.bytes_sent(), 300u);
}

TEST(MakeNetwork, DispatchesOnKind) {
  Engine eng;
  auto sw = make_network(eng, spec_of(NetSpec::Kind::Switched, 1, 0), 2);
  auto bus = make_network(eng, spec_of(NetSpec::Kind::SharedBus, 1, 0), 2);
  auto dmn = make_network(eng, spec_of(NetSpec::Kind::Daemon, 1, 0), 2);
  EXPECT_NE(dynamic_cast<SwitchedNetwork*>(sw.get()), nullptr);
  EXPECT_NE(dynamic_cast<SharedBusNetwork*>(bus.get()), nullptr);
  EXPECT_NE(dynamic_cast<DaemonNetwork*>(dmn.get()), nullptr);
}

TEST(Machine, BuildsNodesAndNetwork) {
  Engine eng;
  Machine m(eng, opalsim::mach::fast_cops(), 8);
  EXPECT_EQ(m.num_nodes(), 8);
  EXPECT_EQ(m.spec().name, "Fast CoPs");
  EXPECT_EQ(m.network().spec().name, "switched Myrinet");
  EXPECT_DOUBLE_EQ(m.cpu(3).spec().adjusted_mflops, 102.0);
}

TEST(Machine, RejectsZeroNodes) {
  Engine eng;
  EXPECT_THROW(Machine(eng, opalsim::mach::fast_cops(), 0),
               std::invalid_argument);
}

/// Requires Machine to refuse `spec` with a ConfigError from "mach" whose
/// message names `field`.
void expect_rejected(const opalsim::mach::PlatformSpec& spec,
                     const std::string& field, int nodes = 2) {
  Engine eng;
  try {
    Machine m(eng, spec, nodes);
    ADD_FAILURE() << field << ": spec accepted";
  } catch (const opalsim::util::ConfigError& e) {
    EXPECT_EQ(e.subsystem(), "mach");
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Machine, NonPositiveNodesIsConfigError) {
  for (const int nodes : {0, -1}) {
    SCOPED_TRACE(nodes);
    expect_rejected(opalsim::mach::fast_cops(), "nodes", nodes);
  }
}

TEST(Machine, RejectsBadObservedBandwidth) {
  for (const double v : {0.0, -0.0, -3.0, kNaN, kInf}) {
    SCOPED_TRACE(v);
    auto spec = opalsim::mach::fast_cops();
    spec.net.observed_MBps = v;
    expect_rejected(spec, "net.observed_MBps");
  }
}

TEST(Machine, RejectsBadLatency) {
  for (const double v : {-1e-6, kNaN, kInf, -kInf}) {
    SCOPED_TRACE(v);
    auto spec = opalsim::mach::fast_cops();
    spec.net.latency_s = v;
    expect_rejected(spec, "net.latency_s");
  }
}

TEST(Machine, RejectsBadSyncTime) {
  for (const double v : {-1e-6, kNaN, kInf}) {
    SCOPED_TRACE(v);
    auto spec = opalsim::mach::fast_cops();
    spec.sync_time_s = v;
    expect_rejected(spec, "sync_time_s");
  }
}

TEST(Machine, RejectsBadAdjustedRate) {
  for (const double v : {0.0, -80.0, kNaN, kInf}) {
    SCOPED_TRACE(v);
    auto spec = opalsim::mach::fast_cops();
    spec.cpu.adjusted_mflops = v;
    expect_rejected(spec, "cpu.adjusted_mflops");
  }
}

TEST(Machine, RejectsScalarFractionOutsideUnitInterval) {
  for (const double v : {0.0, -0.5, 1.0000001, kNaN, kInf}) {
    SCOPED_TRACE(v);
    auto spec = opalsim::mach::cray_j90();
    spec.cpu.scalar_fraction = v;
    expect_rejected(spec, "cpu.scalar_fraction");
  }
}

TEST(Machine, AcceptsZeroLatencyAndFullScalarFraction) {
  // The closed ends of the ranges are valid: an ideal zero-latency link,
  // no sync cost, and a scalar rate equal to the vector rate.
  auto spec = opalsim::mach::fast_cops();
  spec.net.latency_s = 0.0;
  spec.sync_time_s = 0.0;
  spec.cpu.scalar_fraction = 1.0;
  Engine eng;
  EXPECT_NO_THROW(Machine(eng, spec, 2));
}

TEST(Machine, AcceptsEveryDatabasePlatform) {
  using namespace opalsim::mach;
  for (const PlatformSpec& spec :
       {cray_j90(), cray_t3e900(), slow_cops(), smp_cops(), fast_cops(),
        pentium200(), hippi_j90_cluster()}) {
    SCOPED_TRACE(spec.name);
    Engine eng;
    EXPECT_NO_THROW(Machine(eng, spec, 8));
  }
}

TEST(Machine, TransferUsesPlatformNetwork) {
  Engine eng;
  auto spec = opalsim::mach::slow_cops();  // 3 MB/s shared bus, 10 ms
  Machine m(eng, spec, 2);
  auto proc = [&]() -> Task<void> { co_await m.transfer(0, 1, 3'000'000); };
  eng.spawn(proc());
  eng.run();
  EXPECT_NEAR(eng.now(), 1.01, 1e-9);
}

}  // namespace
