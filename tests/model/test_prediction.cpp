#include "model/prediction.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "mach/platforms_db.hpp"
#include "opal/complex.hpp"
#include "util/fatal.hpp"

namespace {

using opalsim::mach::cray_j90;
using opalsim::mach::cray_t3e900;
using opalsim::mach::fast_cops;
using opalsim::mach::slow_cops;
using opalsim::mach::smp_cops;
using opalsim::model::AppParams;
using opalsim::model::app_params_for;
using opalsim::model::derive_platform_params;
using opalsim::model::ModelParams;
using opalsim::model::predict_speedup;
using opalsim::model::predict_total;
using opalsim::model::theoretical_params;
using opalsim::opal::make_medium_complex;
using opalsim::opal::SimulationConfig;

ModelParams j90_fit() {
  // A plausible J90 calibration (close to theoretical_params(cray_j90())).
  ModelParams m;
  m.a1 = 3e6;
  m.b1 = 0.01;
  m.a2 = 1.1e-7;
  m.a3 = 5.5e-7;
  m.a4 = 7.5e-7;
  m.b5 = 5e-3;
  return m;
}

TEST(AppParamsFor, ExtractsRunSetup) {
  auto mc = make_medium_complex();
  SimulationConfig cfg;
  cfg.steps = 10;
  cfg.update_every = 10;
  cfg.cutoff = 10.0;
  const AppParams a = app_params_for(mc, cfg, 7);
  EXPECT_DOUBLE_EQ(a.s, 10.0);
  EXPECT_DOUBLE_EQ(a.p, 7.0);
  EXPECT_DOUBLE_EQ(a.u, 0.1);
  EXPECT_DOUBLE_EQ(a.n, 4289.0);
  EXPECT_NEAR(a.gamma, 2714.0 / 4289.0, 1e-12);
  EXPECT_TRUE(a.has_cutoff());
  EXPECT_GT(a.ntilde, 50.0);
  EXPECT_LT(a.ntilde, 500.0);
}

TEST(AppParamsFor, NoCutoffHasNtildeN) {
  auto mc = make_medium_complex();
  SimulationConfig cfg;
  const AppParams a = app_params_for(mc, cfg, 3);
  EXPECT_FALSE(a.has_cutoff());
  EXPECT_DOUBLE_EQ(a.ntilde, 4289.0);
}

TEST(DerivePlatformParams, ScalesComputeByAdjustedRate) {
  const ModelParams ref = j90_fit();
  const ModelParams t3e =
      derive_platform_params(ref, cray_j90(), cray_t3e900());
  // J90 80 MFlop/s vs T3E 52: compute constants grow by 80/52.
  EXPECT_NEAR(t3e.a3 / ref.a3, 80.0 / 52.0, 1e-12);
  EXPECT_NEAR(t3e.a2 / ref.a2, 80.0 / 52.0, 1e-12);
  // Communication straight from Table 2.
  EXPECT_DOUBLE_EQ(t3e.a1, 100e6);
  EXPECT_DOUBLE_EQ(t3e.b1, 12e-6);
}

TEST(DerivePlatformParams, FastCopsFasterComputeThanJ90) {
  const ModelParams ref = j90_fit();
  const ModelParams fc = derive_platform_params(ref, cray_j90(), fast_cops());
  EXPECT_LT(fc.a3, ref.a3);  // 102 > 80 MFlop/s
}

TEST(TheoreticalParams, MatchesKernelCostOverRate) {
  const ModelParams m = theoretical_params(cray_j90());
  // nbint pair: canonical 44 flops at 80 MFlop/s -> 0.55 us.
  EXPECT_NEAR(m.a3, 44.0 / 80e6, 1e-9);
  EXPECT_NEAR(m.a2, 8.8 / 80e6, 1e-10);
  EXPECT_DOUBLE_EQ(m.a1, 3e6);
}

TEST(Prediction, Figure5NoCutoffComputeBoundOrdering) {
  // No cut-off at p=1: execution time ordered by adjusted compute rate:
  // fast/SMP CoPs < J90 < slow CoPs ~ T3E.
  auto mc = make_medium_complex();
  SimulationConfig cfg;
  AppParams app = app_params_for(mc, cfg, 1);
  const ModelParams ref = theoretical_params(cray_j90());
  auto total = [&](const opalsim::mach::PlatformSpec& spec) {
    return predict_total(derive_platform_params(ref, cray_j90(), spec), app);
  };
  EXPECT_LT(total(fast_cops()), total(cray_j90()));
  EXPECT_LT(total(smp_cops()), total(cray_j90()));
  EXPECT_LT(total(cray_j90()), total(slow_cops()));
  EXPECT_LT(total(cray_j90()), total(cray_t3e900()));
}

TEST(Prediction, Figure5CutoffCommBoundSlowdown) {
  // With the 10 A cut-off, J90 and slow CoPs slow down past ~3 servers
  // (paper §4.2) while the T3E keeps speeding up.
  auto mc = make_medium_complex();
  SimulationConfig cfg;
  cfg.cutoff = 10.0;
  cfg.update_every = 10;
  const ModelParams ref = theoretical_params(cray_j90());
  auto speedup = [&](const opalsim::mach::PlatformSpec& spec, double p) {
    AppParams app = app_params_for(mc, cfg, 1);
    return predict_speedup(derive_platform_params(ref, cray_j90(), spec), app,
                           p);
  };
  EXPECT_LT(speedup(cray_j90(), 7), speedup(cray_j90(), 3));
  EXPECT_LT(speedup(slow_cops(), 7), speedup(slow_cops(), 3));
  EXPECT_GT(speedup(cray_t3e900(), 7), speedup(cray_t3e900(), 3));
  EXPECT_GT(speedup(cray_t3e900(), 7), 4.0);
}

TEST(Prediction, Figure5T3EBestSpeedupButNotBestTime) {
  // "While the Cray T3E has by few the best speed-up, it still ends behind
  // Fast and SMP CoPs for seven servers."  This holds in the full-update
  // cut-off regime, where the CoPs' faster processors still matter.
  auto mc = make_medium_complex();
  SimulationConfig cfg;
  cfg.cutoff = 10.0;
  cfg.update_every = 1;
  const ModelParams ref = theoretical_params(cray_j90());
  AppParams app7 = app_params_for(mc, cfg, 7);
  auto total7 = [&](const opalsim::mach::PlatformSpec& spec) {
    return predict_total(derive_platform_params(ref, cray_j90(), spec), app7);
  };
  auto speed7 = [&](const opalsim::mach::PlatformSpec& spec) {
    AppParams a = app7;
    return predict_speedup(derive_platform_params(ref, cray_j90(), spec), a,
                           7.0);
  };
  EXPECT_GT(speed7(cray_t3e900()), speed7(fast_cops()));
  EXPECT_GT(speed7(cray_t3e900()), speed7(smp_cops()));
  EXPECT_LT(total7(fast_cops()), total7(cray_t3e900()));
  EXPECT_LT(total7(smp_cops()), total7(cray_t3e900()));
}

TEST(Prediction, LargerProblemPushesBreakdownOutward) {
  // §4.2: the large molecule moves the slow-down point outward — speedup at
  // 7 servers improves relative to the medium molecule on the J90.
  SimulationConfig cfg;
  cfg.cutoff = 10.0;
  cfg.update_every = 10;
  const ModelParams ref = theoretical_params(cray_j90());
  const ModelParams j90 = ref;
  auto speed = [&](double n) {
    AppParams a;
    a.s = 10;
    a.u = 0.1;
    a.n = n;
    a.gamma = 0.65;
    a.ntilde = 210.0;  // same cut-off
    return predict_speedup(j90, a, 7.0);
  };
  EXPECT_GT(speed(6289), speed(4289));
}

/// Every field mach::validate checks, each with the values it refuses.
struct BadField {
  std::string name;
  std::function<void(opalsim::mach::PlatformSpec&, double)> set;
  std::vector<double> values;
};

std::vector<BadField> bad_fields() {
  using Spec = opalsim::mach::PlatformSpec;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {
      {"net.observed_MBps", [](Spec& s, double v) { s.net.observed_MBps = v; },
       {0.0, -3.0, kNaN, kInf}},
      {"net.latency_s", [](Spec& s, double v) { s.net.latency_s = v; },
       {-1e-6, kNaN, kInf}},
      {"sync_time_s", [](Spec& s, double v) { s.sync_time_s = v; },
       {-1e-6, kNaN, kInf}},
      {"cpu.adjusted_mflops",
       [](Spec& s, double v) { s.cpu.adjusted_mflops = v; },
       {0.0, -80.0, kNaN, kInf}},
      {"cpu.scalar_fraction",
       [](Spec& s, double v) { s.cpu.scalar_fraction = v; },
       {0.0, 1.5, kNaN}},
  };
}

/// Requires `call` to end in a ConfigError from "mach" naming `field`.
void expect_mach_error(const std::function<void()>& call,
                       const std::string& field) {
  try {
    call();
    ADD_FAILURE() << field << ": spec accepted";
  } catch (const opalsim::util::ConfigError& e) {
    EXPECT_EQ(e.subsystem(), "mach");
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(ModelEntryPoints, RefuseEveryBadSpecField) {
  // A zero or non-finite field would otherwise become an infinite or NaN
  // prediction with no error.  derive_platform_params checks both specs.
  const ModelParams ref = j90_fit();
  for (const BadField& f : bad_fields()) {
    for (const double v : f.values) {
      SCOPED_TRACE(f.name + " = " + std::to_string(v));
      auto bad = fast_cops();
      f.set(bad, v);
      expect_mach_error([&] { theoretical_params(bad); }, f.name);
      expect_mach_error(
          [&] { derive_platform_params(ref, cray_j90(), bad); }, f.name);
      expect_mach_error(
          [&] { derive_platform_params(ref, bad, cray_j90()); }, f.name);
    }
  }
}

TEST(ModelEntryPoints, AcceptEveryPaperPlatform) {
  const ModelParams ref = j90_fit();
  std::vector<opalsim::mach::PlatformSpec> specs =
      opalsim::mach::prediction_platforms();
  specs.push_back(opalsim::mach::pentium200());
  specs.push_back(opalsim::mach::hippi_j90_cluster());
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.name);
    EXPECT_NO_THROW(theoretical_params(spec));
    EXPECT_NO_THROW(derive_platform_params(ref, cray_j90(), spec));
    EXPECT_NO_THROW(derive_platform_params(ref, spec, cray_j90()));
  }
}

}  // namespace
