#include "sim/event_queue.hpp"

namespace opalsim::sim {

void EventQueue::compact() {
  std::erase_if(heap_, [this](const ScheduledEvent& ev) {
    return cancelled_.count(ev.seq) != 0;
  });
  cancelled_.clear();
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  ++compactions_;
}

}  // namespace opalsim::sim
