// Timeline tracing: run a few Opal-like RPC rounds under an obs::MemorySink
// and render its RPC spans as a text Gantt chart — the visual counterpart
// of the paper's phase accounting (who was doing what, when).
//
//   ./examples/trace_timeline
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "hpm/op_counts.hpp"
#include "mach/platforms_db.hpp"
#include "obs/trace.hpp"
#include "pvm/pvm_system.hpp"
#include "sciddle/rpc.hpp"
#include "sim/engine.hpp"

using namespace opalsim;

int main() {
  sim::Engine engine;
  mach::Machine machine(engine, mach::slow_cops(), 4);  // slow net: visible comm
  pvm::PvmSystem pvm(machine);

  obs::MemorySink sink;
  obs::ScopedSink scope(sink);
  sciddle::Rpc rpc(pvm, 3);

  // Imbalanced servers: rank r does (r+1) units of work.
  rpc.register_proc(
      "work", [](pvm::PackBuffer args, sciddle::ServerContext& ctx)
                  -> sim::Task<pvm::PackBuffer> {
        const std::uint64_t units = args.unpack_u64();
        co_await ctx.task.cpu().compute(
            hpm::OpCounts{units * 4'000'000, 0, 0, 0, 0, 0}, 64 * 1024);
        co_return pvm::PackBuffer{};
      });
  rpc.start();

  pvm.spawn(0, [&](pvm::PvmTask& client) -> sim::Task<void> {
    for (int round = 0; round < 2; ++round) {
      std::vector<pvm::PackBuffer> args(3);
      for (int s = 0; s < 3; ++s) args[s].pack_u64(s + 1);
      co_await rpc.call_all(client, "work", std::move(args), nullptr);
    }
    co_await rpc.shutdown(client);
  });
  engine.run();

  std::cout << "Two RPC rounds on a simulated Ethernet cluster; servers do\n"
               "1x/2x/3x work.  Node 0 is the client: c = call, then compute\n"
               "(waiting on the servers), s = sync, r = return.  Nodes 1-3\n"
               "are the servers: c = compute.  . = idle.\n\n"
            << sink.to_gantt(76) << "\n"
            << "CSV export (first lines):\n";
  std::istringstream csv(sink.to_csv());
  std::string line;
  for (int i = 0; i < 4 && std::getline(csv, line); ++i) {
    std::cout << line << '\n';
  }
  return 0;
}
