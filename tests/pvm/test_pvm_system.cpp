#include "pvm/pvm_system.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mach/platforms_db.hpp"
#include "util/fatal.hpp"

namespace {

using opalsim::mach::Machine;
using opalsim::mach::NetSpec;
using opalsim::mach::PlatformSpec;
using opalsim::pvm::kAny;
using opalsim::pvm::Message;
using opalsim::pvm::PackBuffer;
using opalsim::pvm::PvmSystem;
using opalsim::pvm::PvmTask;
using opalsim::sim::Engine;
using opalsim::sim::Task;

// A simple test platform: switched 1 MB/s links, 1 ms latency, 0.5 ms sync.
PlatformSpec test_platform() {
  PlatformSpec p;
  p.name = "test";
  p.cpu.name = "test-cpu";
  p.cpu.clock_mhz = 100;
  p.cpu.adjusted_mflops = 100;
  p.net.kind = NetSpec::Kind::Switched;
  p.net.observed_MBps = 1.0;
  p.net.hw_peak_MBps = 2.0;
  p.net.latency_s = 1e-3;
  p.sync_time_s = 5e-4;
  return p;
}

class PvmSystemTest : public ::testing::Test {
 protected:
  PvmSystemTest() : machine(engine, test_platform(), 4), pvm(machine) {}
  Engine engine;
  Machine machine;
  PvmSystem pvm;
};

TEST_F(PvmSystemTest, SpawnAssignsSequentialTids) {
  auto noop = [](PvmTask&) -> Task<void> { co_return; };
  EXPECT_EQ(pvm.spawn(0, noop), 0);
  EXPECT_EQ(pvm.spawn(1, noop), 1);
  EXPECT_EQ(pvm.spawn(1, noop), 2);
  engine.run();
  EXPECT_EQ(pvm.num_tasks(), 3);
}

TEST_F(PvmSystemTest, SpawnRejectsBadNode) {
  auto noop = [](PvmTask&) -> Task<void> { co_return; };
  EXPECT_THROW(pvm.spawn(99, noop), std::out_of_range);
  EXPECT_THROW(pvm.spawn(-1, noop), std::out_of_range);
}

TEST_F(PvmSystemTest, SendRecvDeliversPayload) {
  std::string got;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_string("hello");
    co_await t.send(1, 7, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    Message m = co_await t.recv(kAny, 7);
    got = m.body.unpack_string();
    EXPECT_EQ(m.src, 0);
    EXPECT_EQ(m.tag, 7);
  });
  engine.run();
  EXPECT_EQ(got, "hello");
}

TEST_F(PvmSystemTest, SendChargesWireTime) {
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_f64_array(std::vector<double>(125'000, 1.0));  // 1 MB + 8 bytes
    co_await t.send(1, 0, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    (void)co_await t.recv();
  });
  engine.run();
  // 1 MB at 1 MB/s + 1 ms latency, plus the 8-byte length header.
  EXPECT_NEAR(engine.now(), 1.001, 1e-4);
}

TEST_F(PvmSystemTest, RecvFiltersBySource) {
  std::vector<int> order;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_i32(1);
    co_await t.send(2, 5, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    co_await t.engine().delay(0.5);
    PackBuffer b;
    b.pack_i32(2);
    co_await t.send(2, 5, std::move(b));
  });
  pvm.spawn(2, [&](PvmTask& t) -> Task<void> {
    // Receive specifically from tid 1 first, although tid 0's message
    // arrives earlier.
    Message m1 = co_await t.recv(1, 5);
    order.push_back(m1.body.unpack_i32());
    Message m0 = co_await t.recv(0, 5);
    order.push_back(m0.body.unpack_i32());
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(PvmSystemTest, TryRecvNonBlocking) {
  // recv_timeout with a zero timeout is the non-blocking poll: it answers
  // at once, with or without a message, and never advances the clock.
  bool checked = false;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    EXPECT_FALSE((co_await t.recv_timeout(kAny, kAny, 0.0)).has_value());
    EXPECT_DOUBLE_EQ(t.engine().now(), 0.0);
    PackBuffer b;
    b.pack_i32(9);
    co_await t.send(0, 3, std::move(b));  // self-send
    const double t_sent = t.engine().now();
    auto m = co_await t.recv_timeout(kAny, 3, 0.0);
    EXPECT_DOUBLE_EQ(t.engine().now(), t_sent);
    EXPECT_TRUE(m.has_value());
    if (m.has_value()) {
      EXPECT_EQ(m->body.unpack_i32(), 9);
      checked = true;
    }
  });
  engine.run();
  EXPECT_TRUE(checked);
}

TEST_F(PvmSystemTest, BarrierReleasesAllAfterSyncTime) {
  std::vector<double> times;
  for (int i = 0; i < 3; ++i) {
    pvm.spawn(i, [&, i](PvmTask& t) -> Task<void> {
      co_await t.engine().delay(static_cast<double>(i));  // arrive 0,1,2
      co_await t.barrier("grp", 3);
      times.push_back(t.engine().now());
    });
  }
  engine.run();
  ASSERT_EQ(times.size(), 3u);
  // Last arrival at t=2; release b5=0.5ms later.
  for (double t : times) EXPECT_NEAR(t, 2.0005, 1e-9);
}

TEST_F(PvmSystemTest, BarrierIsReusableAcrossGenerations) {
  std::vector<double> times;
  for (int i = 0; i < 2; ++i) {
    pvm.spawn(i, [&, i](PvmTask& t) -> Task<void> {
      for (int round = 0; round < 2; ++round) {
        co_await t.engine().delay(1.0 + i);
        co_await t.barrier("grp", 2);
        if (i == 0) times.push_back(t.engine().now());
      }
    });
  }
  engine.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[0], 2.0005, 1e-9);
  EXPECT_NEAR(times[1], 4.001, 1e-9);
}

TEST_F(PvmSystemTest, BarrierInconsistentCountThrows) {
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    co_await t.barrier("g", 2);
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    co_await t.engine().delay(0.1);
    co_await t.barrier("g", 3);  // wrong count
  });
  try {
    engine.run();
    FAIL() << "expected FatalError";
  } catch (const opalsim::util::FatalError& e) {
    EXPECT_EQ(e.subsystem(), "pvm");
    EXPECT_DOUBLE_EQ(e.vtime(), 0.1);
    EXPECT_NE(std::string(e.what()).find("inconsistent party count"),
              std::string::npos);
  }
}

TEST_F(PvmSystemTest, ProcessJoinWorks) {
  int tid = pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    co_await t.engine().delay(2.0);
  });
  bool joined = false;
  // The closure must outlive engine.run(): a coroutine reads its captures
  // through the lambda object, so an immediately-invoked temporary would
  // dangle once the statement ends.
  auto waiter = [&]() -> Task<void> {
    co_await pvm.process(tid).join();
    joined = true;
    EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  };
  engine.spawn(waiter());
  engine.run();
  EXPECT_TRUE(joined);
}

TEST_F(PvmSystemTest, AccountsTraffic) {
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_f64(1.0);
    co_await t.send(1, 0, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> { (void)co_await t.recv(); });
  engine.run();
  EXPECT_EQ(pvm.messages_sent(), 1u);
  EXPECT_EQ(pvm.bytes_sent(), 8u);
}

}  // namespace
