#include "model/prediction.hpp"

#include "hpm/op_counts.hpp"
#include "opal/forcefield.hpp"

namespace opalsim::model {

double measured_ntilde(const opal::MolecularComplex& mc, double cutoff) {
  const auto n = mc.n();
  if (cutoff <= 0.0 || n == 0) return static_cast<double>(n);
  const double c2 = cutoff * cutoff;
  std::uint64_t within = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const opal::Vec3 pi = mc.centers[i].position;
    for (std::size_t j = i + 1; j < n; ++j) {
      const opal::Vec3 d = pi - mc.centers[j].position;
      if (d.norm2() <= c2) ++within;
    }
  }
  return 2.0 * static_cast<double>(within) / static_cast<double>(n);
}

AppParams app_params_for(const opal::MolecularComplex& mc,
                         const opal::SimulationConfig& cfg, int servers) {
  AppParams a;
  a.s = cfg.steps;
  a.p = servers;
  a.u = cfg.u();
  a.n = static_cast<double>(mc.n());
  a.gamma = mc.gamma();
  a.ntilde = cfg.has_cutoff() ? measured_ntilde(mc, cfg.cutoff) : a.n;
  return a;
}

ModelParams derive_platform_params(const ModelParams& reference_fit,
                                   const mach::PlatformSpec& reference,
                                   const mach::PlatformSpec& target) {
  mach::validate(reference);
  mach::validate(target);
  ModelParams m = reference_fit;
  const double scale =
      reference.cpu.adjusted_mflops / target.cpu.adjusted_mflops;
  m.a2 = reference_fit.a2 * scale;
  m.a3 = reference_fit.a3 * scale;
  m.a4 = reference_fit.a4 * scale;
  m.a1 = target.net.observed_MBps * 1e6;
  m.b1 = target.net.latency_s;
  m.b5 = target.sync_time_s;
  return m;
}

ModelParams theoretical_params(const mach::PlatformSpec& spec,
                               double a4_flops_per_center) {
  mach::validate(spec);
  const auto& canon = hpm::canonical_cost_table();
  const double rate = spec.cpu.adjusted_mflops * 1e6;
  ModelParams m;
  m.a2 = canon.counted_flops(opal::OpMixes::update_pair) / rate;
  m.a3 = canon.counted_flops(opal::OpMixes::nbint_pair) / rate;
  m.a4 = a4_flops_per_center / rate;
  m.a1 = spec.net.observed_MBps * 1e6;
  m.b1 = spec.net.latency_s;
  m.b5 = spec.sync_time_s;
  return m;
}

}  // namespace opalsim::model
