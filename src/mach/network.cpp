#include "mach/network.hpp"

#include <cassert>

namespace opalsim::mach {

SwitchedNetwork::SwitchedNetwork(sim::Engine& engine, NetSpec spec, int nodes)
    : NetworkModel(std::move(spec)), engine_(&engine) {
  assert(nodes > 0);
  send_links_.reserve(nodes);
  recv_links_.reserve(nodes);
  for (int i = 0; i < nodes; ++i) {
    send_links_.push_back(std::make_unique<sim::Resource>(engine, 1));
    recv_links_.push_back(std::make_unique<sim::Resource>(engine, 1));
  }
}

sim::Task<void> SwitchedNetwork::transfer(int src, int dst,
                                          std::size_t bytes) {
  assert(src >= 0 && src < static_cast<int>(send_links_.size()));
  assert(dst >= 0 && dst < static_cast<int>(recv_links_.size()));
  account(bytes);
  auto send_lock = co_await send_links_[src]->scoped_acquire();
  auto recv_lock = co_await recv_links_[dst]->scoped_acquire();
  co_await engine_->delay(effective_time(bytes, engine_->now()));
}

SharedBusNetwork::SharedBusNetwork(sim::Engine& engine, NetSpec spec)
    : NetworkModel(std::move(spec)), engine_(&engine), bus_(engine, 1) {}

sim::Task<void> SharedBusNetwork::transfer(int /*src*/, int /*dst*/,
                                           std::size_t bytes) {
  account(bytes);
  auto lock = co_await bus_.scoped_acquire();
  co_await engine_->delay(effective_time(bytes, engine_->now()));
}

DaemonNetwork::DaemonNetwork(sim::Engine& engine, NetSpec spec)
    : NetworkModel(std::move(spec)), engine_(&engine), daemon_(engine, 1) {}

sim::Task<void> DaemonNetwork::transfer(int /*src*/, int /*dst*/,
                                        std::size_t bytes) {
  account(bytes);
  auto lock = co_await daemon_.scoped_acquire();
  double t = effective_time(bytes, engine_->now());
  // The daemon can stall mid-service (paper §3.1's pathological path); the
  // stall is paid while holding the daemon, so it backs up all traffic.
  if (auto* fault = fault_model(); fault != nullptr && fault->enabled()) {
    t += fault->next_daemon_stall(engine_->now());
  }
  co_await engine_->delay(t);
}

std::unique_ptr<NetworkModel> make_network(sim::Engine& engine, NetSpec spec,
                                           int nodes) {
  switch (spec.kind) {
    case NetSpec::Kind::Switched:
      return std::make_unique<SwitchedNetwork>(engine, std::move(spec), nodes);
    case NetSpec::Kind::SharedBus:
      return std::make_unique<SharedBusNetwork>(engine, std::move(spec));
    case NetSpec::Kind::Daemon:
      return std::make_unique<DaemonNetwork>(engine, std::move(spec));
  }
  return nullptr;  // unreachable
}

}  // namespace opalsim::mach
