// recv_timeout: the bounded receive the fault-tolerant RPC layer builds its
// timeout/retry machinery on.  The hard part is the race between the parked
// mailbox getter and the timer process — both resolutions must be clean, and
// the losing side must never resume the receiver a second time.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mach/platforms_db.hpp"
#include "pvm/pvm_system.hpp"
#include "sim/fault.hpp"

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

class RecvTimeoutTest : public ::testing::Test {
 protected:
  RecvTimeoutTest() : machine(engine, test_platform(), 4), pvm(machine) {}
  Engine engine;
  Machine machine;
  PvmSystem pvm;
};

TEST_F(RecvTimeoutTest, DeliversWhenMessageArrivesInTime) {
  std::optional<Message> got;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_i32(7);
    co_await t.send(1, 5, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    got = co_await t.recv_timeout(0, 5, 10.0);
  });
  engine.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body.unpack_i32(), 7);
  EXPECT_EQ(got->src, 0);
}

TEST_F(RecvTimeoutTest, TimesOutWhenNothingArrives) {
  std::optional<Message> got = Message{};
  double t_resumed = -1.0;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    got = co_await t.recv_timeout(kAny, kAny, 2.5);
    t_resumed = t.engine().now();
  });
  engine.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_DOUBLE_EQ(t_resumed, 2.5);  // resumes exactly at the deadline
}

TEST_F(RecvTimeoutTest, TimesOutWhenOnlyNonMatchingArrives) {
  std::optional<Message> got;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    co_await t.send(1, 99, std::move(b));  // wrong tag
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    got = co_await t.recv_timeout(0, 5, 1.0);
    // The non-matching message must still be queued for a later recv.
    auto other = co_await t.recv_timeout(0, 99, 0.0);
    EXPECT_TRUE(other.has_value());
  });
  engine.run();
  EXPECT_FALSE(got.has_value());
}

TEST_F(RecvTimeoutTest, ImmediateWhenAlreadyQueued) {
  // A matching message already in the mailbox completes without suspension
  // (and without spawning a timer at all).
  std::optional<Message> got;
  double t_resumed = -1.0;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_i32(1);
    co_await t.send(1, 5, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    co_await t.engine().delay(1.0);  // let the message land first
    got = co_await t.recv_timeout(0, 5, 100.0);
    t_resumed = t.engine().now();
  });
  engine.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(t_resumed, 1.0);
}

TEST_F(RecvTimeoutTest, NonPositiveTimeoutIsTryRecv) {
  std::optional<Message> got = Message{};
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    got = co_await t.recv_timeout(kAny, kAny, 0.0);
  });
  engine.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);  // no time passed
}

TEST_F(RecvTimeoutTest, ReceiverUsableAfterTimeout) {
  // After a timeout the task must be able to recv again and get a message
  // that arrives later — the cancelled getter must not linger.
  std::vector<int> values;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    co_await t.engine().delay(5.0);
    PackBuffer b;
    b.pack_i32(42);
    co_await t.send(1, 5, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    auto first = co_await t.recv_timeout(0, 5, 1.0);
    EXPECT_FALSE(first.has_value());
    auto second = co_await t.recv_timeout(0, 5, 100.0);
    EXPECT_TRUE(second.has_value());
    if (second) values.push_back(second->body.unpack_i32());
  });
  engine.run();
  EXPECT_EQ(values, std::vector<int>{42});
}

TEST_F(RecvTimeoutTest, BackToBackTimeoutsAreClean) {
  // Regression guard for getter-pointer reuse: consecutive recv_timeout
  // calls park awaiters at (likely) the same stack address, so a stale timer
  // from round k must not cancel the round k+1 getter.
  int timeouts = 0;
  std::optional<Message> got;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    co_await t.engine().delay(3.5);
    PackBuffer b;
    b.pack_i32(1);
    co_await t.send(1, 5, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto m = co_await t.recv_timeout(0, 5, 1.0);
      if (!m) ++timeouts;
    }
    got = co_await t.recv_timeout(0, 5, 10.0);
  });
  engine.run();
  EXPECT_EQ(timeouts, 3);
  ASSERT_TRUE(got.has_value());
}

TEST_F(RecvTimeoutTest, ArrivalJustBeforeDeadlineWins) {
  std::optional<Message> got;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    // Arrives at 1e-3 (latency) + transfer; timeout is well above that.
    PackBuffer b;
    b.pack_i32(9);
    co_await t.send(1, 5, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    got = co_await t.recv_timeout(0, 5, 1.1e-3 + 1.0);
  });
  engine.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body.unpack_i32(), 9);
}

TEST_F(RecvTimeoutTest, ManyWaitersTimeOutIndependently) {
  // Several tasks parked on their own mailboxes with different deadlines.
  std::vector<double> resumed(3, -1.0);
  for (int i = 0; i < 3; ++i) {
    pvm.spawn(i, [&resumed, i](PvmTask& t) -> Task<void> {
      auto m = co_await t.recv_timeout(kAny, kAny, 1.0 + i);
      EXPECT_FALSE(m.has_value());
      resumed[i] = t.engine().now();
    });
  }
  engine.run();
  EXPECT_DOUBLE_EQ(resumed[0], 1.0);
  EXPECT_DOUBLE_EQ(resumed[1], 2.0);
  EXPECT_DOUBLE_EQ(resumed[2], 3.0);
}

TEST(RecvTimeoutDeterminism, SameFaultSeedReplaysIdentically) {
  // Same fault seed => identical loss pattern => identical timeout/receive
  // trace, virtual times included.
  auto run_once = [](std::uint64_t seed) {
    Engine engine;
    PlatformSpec p = test_platform();
    p.fault.seed = seed;
    p.fault.drop_rate = 0.3;
    Machine machine(engine, p, 4);
    PvmSystem pvm(machine);
    std::vector<double> trace;
    pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
      for (int i = 0; i < 20; ++i) {
        PackBuffer b;
        b.pack_i32(i);
        co_await t.send(1, 5, std::move(b));
      }
    });
    pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
      for (int i = 0; i < 20; ++i) {
        auto m = co_await t.recv_timeout(0, 5, 0.5);
        trace.push_back(m ? t.engine().now() : -t.engine().now());
      }
    });
    engine.run();
    return trace;
  };
  const auto a = run_once(13);
  const auto b = run_once(13);
  const auto c = run_once(14);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed, different loss pattern
}


// A successful delivery must cancel the still-armed timer event: otherwise
// the dead timer wakes later and the engine queue is never empty at the
// step boundaries the checkpoint layer declares quiescent.
TEST_F(RecvTimeoutTest, SuccessfulDeliveryCancelsArmedTimer) {
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_i32(1);
    co_await t.send(1, 5, std::move(b));
  });
  bool checked = false;
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    const auto m = co_await t.recv_timeout(0, 5, 50.0);
    EXPECT_TRUE(m.has_value());
    // The 50 s timer must be gone the moment the receive completes.
    EXPECT_EQ(t.engine().pending_events(), 0u);
    checked = true;
  });
  engine.run();
  EXPECT_TRUE(checked);
  EXPECT_GE(engine.counters().queue.cancels, 1u);
  // And the run ends at delivery time, not at the abandoned deadline.
  EXPECT_LT(engine.now(), 50.0);
}

// recv_timeout racing a node kill: the sender dies mid-run, so a wait that
// a delivery would have satisfied must fall back to a clean timeout, and
// the receiver must remain usable afterwards.
TEST_F(RecvTimeoutTest, TimeoutRacesNodeKill) {
  std::vector<int> received;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      PackBuffer b;
      b.pack_i32(i);
      co_await t.send(1, 5, std::move(b));
      // The fault layer suppresses every send after the kill instant.
    }
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    // First message arrives; then the sender's node dies at a time chosen
    // to land between deliveries, so the remaining waits time out.
    for (int i = 0; i < 3; ++i) {
      auto m = co_await t.recv_timeout(0, 5, 0.5);
      if (m.has_value()) {
        received.push_back(m->body.unpack_i32());
        if (received.size() == 1) {
          machine.fault().kill_node(0, t.engine().now());
        }
      }
    }
  });
  engine.run();
  ASSERT_GE(received.size(), 1u);
  EXPECT_EQ(received[0], 0);
  // Dead sender => at most the messages already on the wire arrive; the
  // loop completed via timeouts, not deliveries.
  EXPECT_LT(received.size(), 3u);
  EXPECT_EQ(engine.pending_events(), 0u);
}

}  // namespace
