#include "mach/platform.hpp"

#include <stdexcept>

namespace opalsim::mach {

Machine::Machine(sim::Engine& engine, const PlatformSpec& spec, int nodes)
    : engine_(&engine), spec_(spec), fault_(spec.fault) {
  if (nodes <= 0) throw std::invalid_argument("Machine: nodes must be > 0");
  cpus_.reserve(nodes);
  for (int i = 0; i < nodes; ++i)
    cpus_.push_back(std::make_unique<Cpu>(engine, spec.cpu));
  network_ = make_network(engine, spec.net, nodes);
  network_->set_fault_model(&fault_);
}

}  // namespace opalsim::mach
