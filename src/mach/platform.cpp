#include "mach/platform.hpp"

#include <cmath>
#include <string>

#include "util/fatal.hpp"

namespace opalsim::mach {

void validate(const PlatformSpec& spec) {
  const auto fail = [&](const std::string& what) {
    throw util::ConfigError("mach", "platform '" + spec.name + "': " + what);
  };
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  if (!positive(spec.net.observed_MBps)) {
    fail("net.observed_MBps must be finite and > 0");
  }
  if (!non_negative(spec.net.latency_s)) {
    fail("net.latency_s must be finite and >= 0");
  }
  if (!non_negative(spec.sync_time_s)) {
    fail("sync_time_s must be finite and >= 0");
  }
  if (!positive(spec.cpu.adjusted_mflops)) {
    fail("cpu.adjusted_mflops must be finite and > 0");
  }
  if (!(spec.cpu.scalar_fraction > 0.0 && spec.cpu.scalar_fraction <= 1.0)) {
    fail("cpu.scalar_fraction must be in (0, 1]");
  }
}

Machine::Machine(sim::Engine& engine, const PlatformSpec& spec, int nodes)
    : engine_(&engine), spec_(spec), fault_(spec.fault) {
  if (nodes <= 0) {
    throw util::ConfigError("mach", "platform '" + spec.name +
                                        "': nodes must be > 0, got " +
                                        std::to_string(nodes));
  }
  validate(spec);
  cpus_.reserve(nodes);
  for (int i = 0; i < nodes; ++i)
    cpus_.push_back(std::make_unique<Cpu>(engine, spec.cpu));
  network_ = make_network(engine, spec.net, nodes);
  network_->set_fault_model(&fault_);
}

Machine::Snapshot Machine::snapshot() const {
  Snapshot s{fault_.snapshot(), {}, network_->messages_,
             network_->bytes_total_};
  for (const auto& cpu : cpus_) s.cpus.push_back(cpu->counter().snapshot());
  return s;
}

void Machine::restore(const Snapshot& s) {
  if (s.cpus.size() != cpus_.size()) {
    util::fatal("ckpt", "restore: " + std::to_string(s.cpus.size()) +
                            " HPM counters for " +
                            std::to_string(cpus_.size()) + " nodes");
  }
  const auto elapsed = [](double v) { return std::isfinite(v) && v >= 0.0; };
  for (const hpm::HpmCounter::Snapshot& c : s.cpus) {
    if (!elapsed(c.busy_seconds) || !elapsed(c.cycles)) {
      util::fatal("ckpt", "restore: an HPM counter's busy time or cycles "
                          "are not finite and >= 0");
    }
  }
  fault_.restore(s.fault);
  for (std::size_t node = 0; node < cpus_.size(); ++node) {
    cpus_[node]->counter().restore(s.cpus[node]);
  }
  network_->messages_ = s.net_messages;
  network_->bytes_total_ = s.net_bytes;
}

}  // namespace opalsim::mach
