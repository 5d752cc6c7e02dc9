// The nonbonded kernel's pipeline hands chunks computed by pool helpers to
// the calling thread through a ring of result slots (opal/soa.cpp).  This
// suite is in the TSan leg's label set, so the handoff runs under the race
// detector there; tests/opal/test_soa.cpp covers every span shape.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "mach/platforms_db.hpp"
#include "opal/complex.hpp"
#include "opal/parallel.hpp"
#include "opal/soa.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace opalsim;

opal::MolecularComplex pipeline_complex(std::size_t n_solute,
                                        std::size_t n_water) {
  opal::SyntheticSpec spec;
  spec.name = "pipeline";
  spec.n_solute = n_solute;
  spec.n_water = n_water;
  return opal::make_synthetic_complex(spec);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(KernelPipeline, PooledCallsMatchInlineBitForBit) {
  // 600 centers, the full triangle: 179,700 pairs, 88 chunks, so helpers
  // fill and recycle every ring slot many times per call.
  const auto mc = pipeline_complex(200, 400);
  opal::CentersSoA soa;
  soa.refresh(mc);
  std::vector<opal::PairIdx> pairs;
  const auto n = static_cast<std::uint32_t>(mc.n());
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) pairs.push_back({i, j});
  }
  util::ThreadPool one(1), pool(3);
  double evdw_ref = 0.0, ecoul_ref = 0.0;
  std::vector<opal::Vec3> grad_ref(mc.n());
  opal::nonbonded_batch(soa, pairs, evdw_ref, ecoul_ref, grad_ref, one);
  for (int call = 0; call < 4; ++call) {
    double evdw = 0.0, ecoul = 0.0;
    std::vector<opal::Vec3> grad(mc.n());
    opal::nonbonded_batch(soa, pairs, evdw, ecoul, grad, pool);
    SCOPED_TRACE("call " + std::to_string(call));
    ASSERT_EQ(bits(evdw), bits(evdw_ref));
    ASSERT_EQ(bits(ecoul), bits(ecoul_ref));
    for (std::size_t c = 0; c < grad.size(); ++c) {
      ASSERT_EQ(bits(grad[c].x), bits(grad_ref[c].x)) << "center " << c;
      ASSERT_EQ(bits(grad[c].y), bits(grad_ref[c].y)) << "center " << c;
      ASSERT_EQ(bits(grad[c].z), bits(grad_ref[c].z)) << "center " << c;
    }
  }
  // At least the first call took the pipeline; on a loaded host a late
  // helper makes the pool run some later calls without helpers.
  EXPECT_GE(pool.dispatch_stats().assists, 1u);
}

TEST(KernelPipeline, SingleRunMatchesTheSameRunInsideASweep) {
  // 300 centers at p = 2 without cut-off: ~22,000 pairs per server, so a
  // run outside any dispatch pipelines every nbint call on the shared
  // pool, while the same run as a sweep index stays inline.
  const auto run_once = [] {
    opal::SimulationConfig cfg;
    cfg.steps = 3;
    opal::ParallelOpal run(mach::cray_j90(), pipeline_complex(100, 200), 2,
                           cfg);
    return run.run();
  };
  const auto alone = run_once();
  util::ThreadPool sweep(2);
  std::vector<opal::ParallelRunResult> swept(2);
  util::parallel_for_indexed(sweep, swept.size(),
                             [&](std::size_t i) { swept[i] = run_once(); });
  for (const auto& r : swept) {
    EXPECT_EQ(bits(r.physics.evdw), bits(alone.physics.evdw));
    EXPECT_EQ(bits(r.physics.ecoul), bits(alone.physics.ecoul));
    EXPECT_EQ(bits(r.physics.total_energy()), bits(alone.physics.total_energy()));
    EXPECT_EQ(bits(r.metrics.wall), bits(alone.metrics.wall));
  }
}

}  // namespace
