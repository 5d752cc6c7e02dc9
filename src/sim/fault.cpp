#include "sim/fault.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "util/fatal.hpp"

namespace opalsim::sim {

void FaultSpec::add_flap(double t_start, double t_end, double period_s,
                         double bw_factor, double lat_factor) {
  if (period_s <= 0.0)
    throw std::invalid_argument("FaultSpec::add_flap: period must be > 0");
  for (double t = t_start; t < t_end; t += 2.0 * period_s) {
    LinkDegradation d;
    d.t_start = t;
    d.t_end = t + period_s < t_end ? t + period_s : t_end;
    d.bandwidth_factor = bw_factor;
    d.latency_factor = lat_factor;
    degradations.push_back(d);
  }
}

namespace {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  // One SplitMix64 step per stream id gives decorrelated sub-seeds.
  util::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return sm.next();
}

}  // namespace

FaultModel::FaultModel(FaultSpec spec)
    : spec_(std::move(spec)),
      enabled_(spec_.enabled()),
      message_faults_(spec_.drop_rate > 0.0 || spec_.duplicate_rate > 0.0 ||
                      spec_.corrupt_rate > 0.0),
      message_rng_(stream_seed(spec_.seed, 1)),
      corrupt_rng_(stream_seed(spec_.seed, 2)),
      stall_rng_(stream_seed(spec_.seed, 3)) {
  // Written as !(r >= 0) so that NaN, which compares false both ways and
  // would otherwise leave the faults silently off, is refused too.
  const auto refuse = [](const std::string& what, double r) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", r);
    throw util::ConfigError("sim", "FaultSpec: " + what + ", got " + buf);
  };
  const auto non_negative = [&](const char* name, double r) {
    if (!(r >= 0.0)) refuse(std::string(name) + " must be >= 0", r);
  };
  non_negative("drop_rate", spec_.drop_rate);
  non_negative("duplicate_rate", spec_.duplicate_rate);
  non_negative("corrupt_rate", spec_.corrupt_rate);
  const double total =
      spec_.drop_rate + spec_.duplicate_rate + spec_.corrupt_rate;
  if (!(total <= 1.0)) {
    refuse("drop_rate + duplicate_rate + corrupt_rate must be <= 1", total);
  }
  if (!(spec_.daemon_stall_rate >= 0.0 && spec_.daemon_stall_rate <= 1.0)) {
    refuse("daemon_stall_rate must be in [0, 1]", spec_.daemon_stall_rate);
  }
}

MessageFault FaultModel::next_message_fault(int /*src*/, int /*dst*/) {
  if (!message_faults_) return MessageFault::None;
  ++counters_.messages_seen;
  // One draw partitions [0,1) into [drop | duplicate | corrupt | none].
  const double u = message_rng_.uniform();
  if (u < spec_.drop_rate) {
    ++counters_.dropped;
    return MessageFault::Drop;
  }
  if (u < spec_.drop_rate + spec_.duplicate_rate) {
    ++counters_.duplicated;
    return MessageFault::Duplicate;
  }
  if (u < spec_.drop_rate + spec_.duplicate_rate + spec_.corrupt_rate) {
    ++counters_.corrupted;
    return MessageFault::Corrupt;
  }
  return MessageFault::None;
}

std::size_t FaultModel::next_corrupt_position(std::size_t payload_bytes) {
  if (payload_bytes == 0) return 0;
  return static_cast<std::size_t>(corrupt_rng_.below(payload_bytes));
}

double FaultModel::next_daemon_stall(double now) {
  if (spec_.daemon_stall_rate <= 0.0 || spec_.daemon_stall_s <= 0.0)
    return 0.0;
  if (stall_rng_.uniform() < spec_.daemon_stall_rate) {
    ++counters_.daemon_stalls;
    obs::instant(obs::Cat::kFault, "stall", now, -1,
                 {"seconds", spec_.daemon_stall_s});
    return spec_.daemon_stall_s;
  }
  return 0.0;
}

double FaultModel::bandwidth_factor(double now) const noexcept {
  double f = 1.0;
  for (const auto& d : spec_.degradations) {
    if (now >= d.t_start && now < d.t_end) f *= d.bandwidth_factor;
  }
  return f > 0.0 ? f : 1e-12;  // a fully-dead window still makes progress
}

double FaultModel::latency_factor(double now) const noexcept {
  double f = 1.0;
  for (const auto& d : spec_.degradations) {
    if (now >= d.t_start && now < d.t_end) f *= d.latency_factor;
  }
  return f;
}

bool FaultModel::node_dead(int node, double now) const noexcept {
  for (const auto& nf : spec_.node_faults) {
    if (nf.node == node && now >= nf.t_fail) return true;
  }
  return false;
}

void FaultModel::kill_node(int node, double t) {
  spec_.node_faults.push_back(NodeFault{node, t});
  enabled_ = true;
  obs::instant(obs::Cat::kFault, "kill", t, node);
}

}  // namespace opalsim::sim
