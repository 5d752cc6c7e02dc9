// The RPC layer's phase spans, as the obs trace sink records them.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "hpm/op_counts.hpp"
#include "mach/platforms_db.hpp"
#include "obs/trace.hpp"
#include "pvm/pvm_system.hpp"
#include "sciddle/rpc.hpp"
#include "sim/engine.hpp"

namespace {

TEST(RpcTracing, RecordsCallComputeReturnSpans) {
  using namespace opalsim;
  obs::MemorySink sink;
  {
    obs::ScopedSink scope(sink);
    sim::Engine engine;
    mach::Machine machine(engine, mach::fast_cops(), 3);
    pvm::PvmSystem pvm(machine);
    sciddle::Rpc rpc(pvm, 2);
    rpc.register_proc("work", [](pvm::PackBuffer args,
                                 sciddle::ServerContext& ctx)
                                  -> sim::Task<pvm::PackBuffer> {
      (void)args;
      co_await ctx.task.cpu().compute(
          hpm::OpCounts{10'000'000, 0, 0, 0, 0, 0}, 1024);
      co_return pvm::PackBuffer{};
    });
    rpc.start();
    pvm.spawn(0, [&](pvm::PvmTask& client) -> sim::Task<void> {
      std::vector<pvm::PackBuffer> args(2);
      co_await rpc.call_all(client, "work", std::move(args), nullptr);
      co_await rpc.shutdown(client);
    });
    engine.run();
  }

  // Summed span time per (node, phase); one compute span per server node.
  auto span_time = [&](int node, const char* phase) {
    double t = 0.0;
    for (const obs::TraceEvent& e : sink.events()) {
      if (e.cat != obs::Cat::kRpc || e.node != node ||
          std::strcmp(e.name, phase) != 0) {
        continue;
      }
      t += e.ph == obs::Ph::kBegin ? -e.t : e.t;
    }
    return t;
  };
  auto span_count = [&](int node, const char* phase) {
    int n = 0;
    for (const obs::TraceEvent& e : sink.events()) {
      n += e.cat == obs::Cat::kRpc && e.node == node &&
           e.ph == obs::Ph::kBegin && std::strcmp(e.name, phase) == 0;
    }
    return n;
  };
  EXPECT_GT(span_time(0, "call"), 0.0);
  EXPECT_GT(span_time(0, "sync"), 0.0);
  EXPECT_GT(span_time(0, "return"), 0.0);
  for (int node : {1, 2}) {
    EXPECT_EQ(span_count(node, "compute"), 1) << "node " << node;
    EXPECT_GT(span_time(node, "compute"), 0.0) << "node " << node;
  }
  // The Gantt export draws the client and both servers.
  const std::string gantt = sink.to_gantt(60);
  for (const char* row : {"node 0 |", "node 1 |", "node 2 |"}) {
    EXPECT_NE(gantt.find(row), std::string::npos) << row;
  }
}

}  // namespace
