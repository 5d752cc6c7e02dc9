// Host-side kernel throughput (google-benchmark): the real execution speed
// of this implementation's dominant loops — nonbonded pair evaluation, the
// update distance sweep and Verlet-list rebuild, bonded terms and
// pair-domain construction.  These are supporting numbers (the paper's
// figures use *virtual* time); they document the cost of running the
// simulator itself.
#include <benchmark/benchmark.h>

#include "opal/complex.hpp"
#include "opal/forcefield.hpp"
#include "opal/pairs.hpp"
#include "opal/serial.hpp"
#include "opal/soa.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace opalsim;

opal::MolecularComplex& bench_complex() {
  static opal::MolecularComplex mc = [] {
    opal::SyntheticSpec s;
    s.n_solute = 504;
    s.n_water = 996;
    return opal::make_synthetic_complex(s);
  }();
  return mc;
}

void BM_NonbondedPairKernel(benchmark::State& state) {
  const auto& mc = bench_complex();
  const auto pairs = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto kr = opal::nbint_kernel(mc, pairs);
    benchmark::DoNotOptimize(kr.evdw);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_NonbondedPairKernel)->Arg(100000)->Arg(1000000);

/// Steady-state updates of the full triangle at cut-off 10 A on `pool`:
/// brute force (Arg 0) or the Verlet list's filter (Arg 1).
void run_update_sweep(benchmark::State& state, util::ThreadPool& pool) {
  const auto& mc = bench_complex();
  auto domains = opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                                     opal::DistributionStrategy::Folded, 1);
  opal::ServerDomain dom(std::move(domains[0]));
  const auto path = state.range(0) == 0 ? opal::PairUpdatePath::Brute
                                        : opal::PairUpdatePath::Auto;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dom.update(mc, 10.0, path, pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dom.domain_size()));
}

/// One block on the calling thread, as a sweep's runs update.
void BM_UpdateSweep(benchmark::State& state) {
  util::ThreadPool one(1);
  run_update_sweep(state, one);
}
BENCHMARK(BM_UpdateSweep)->Arg(0)->Arg(1);  // 0 = brute force, 1 = list

/// The list's filter in run blocks on the process-wide pool.
void BM_UpdateSweepPooled(benchmark::State& state) {
  run_update_sweep(state, util::ThreadPool::shared());
}
BENCHMARK(BM_UpdateSweepPooled)->Arg(1)->UseRealTime();

/// The two kernel shapes.  Arg 0: a cut-off 10 A active list of the full
/// triangle (rows of ~12 pairs, the list-served workloads' shape).  Arg 1:
/// server 0's whole domain under the default hashed distribution at p = 7
/// with no cut-off (rows of ~n/14 pairs, large_nocut's shape).
opal::ServerDomain kernel_shape(const opal::MolecularComplex& mc,
                                bool long_rows) {
  auto domains = opal::build_domains(
      static_cast<std::uint32_t>(mc.n()), long_rows ? 7 : 1,
      long_rows ? opal::DistributionStrategy::PseudoRandomHistorical
                : opal::DistributionStrategy::RowCyclic,
      1);
  opal::ServerDomain dom(std::move(domains[0]));
  dom.update(mc, long_rows ? 0.0 : 10.0);
  return dom;
}

/// Times nonbonded_batch on `pool`: a one-thread pool runs the inline
/// 32-lane block loop, a larger one the pipeline (both shapes exceed its
/// four-chunk threshold).
void run_nonbonded_batch(benchmark::State& state, util::ThreadPool& pool) {
  const auto& mc = bench_complex();
  const opal::ServerDomain dom = kernel_shape(mc, state.range(0) == 1);
  opal::CentersSoA soa;
  soa.refresh(mc);
  std::vector<opal::Vec3> grad(mc.n());
  for (auto _ : state) {
    std::fill(grad.begin(), grad.end(), opal::Vec3{});
    double evdw = 0.0, ecoul = 0.0;
    opal::nonbonded_batch(soa, dom.active(), evdw, ecoul, grad, pool);
    benchmark::DoNotOptimize(evdw);
    benchmark::DoNotOptimize(ecoul);
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dom.active_size()));
}

void BM_NonbondedBatchSoA(benchmark::State& state) {
  util::ThreadPool one(1);
  run_nonbonded_batch(state, one);
}
BENCHMARK(BM_NonbondedBatchSoA)->Arg(0)->Arg(1);  // 0 = cut-off, 1 = long rows

/// The pipeline on the process-wide pool (OPALSIM_THREADS workers, else
/// one per hardware thread), as single runs use it.
void BM_NonbondedBatchSoAPooled(benchmark::State& state) {
  run_nonbonded_batch(state, util::ThreadPool::shared());
}
BENCHMARK(BM_NonbondedBatchSoAPooled)->Arg(0)->Arg(1)->UseRealTime();

void BM_BondedTerms(benchmark::State& state) {
  const auto& mc = bench_complex();
  std::vector<opal::Vec3> grad(mc.n());
  for (auto _ : state) {
    std::fill(grad.begin(), grad.end(), opal::Vec3{});
    auto e = opal::evaluate_bonded(mc, grad);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_BondedTerms);

/// The workloads' strategy (PseudoRandomHistorical) at p = 1, which skips
/// hashing, and p = 7, which hashes every pair twice, built on `pool`.
void run_build_domains(benchmark::State& state, util::ThreadPool& pool) {
  const auto n = static_cast<std::uint32_t>(bench_complex().n());
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto d = opal::build_domains(
        n, p, opal::DistributionStrategy::PseudoRandomHistorical, 1, pool);
    benchmark::DoNotOptimize(d.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * (n - 1) / 2);
}

/// One block on the calling thread, as a sweep's runs build.
void BM_BuildDomains(benchmark::State& state) {
  util::ThreadPool one(1);
  run_build_domains(state, one);
}
BENCHMARK(BM_BuildDomains)->Arg(1)->Arg(7);

/// Row blocks on the process-wide pool, as single runs build.
void BM_BuildDomainsPooled(benchmark::State& state) {
  run_build_domains(state, util::ThreadPool::shared());
}
BENCHMARK(BM_BuildDomainsPooled)->Arg(1)->Arg(7)->UseRealTime();

/// One Verlet-list rebuild per iteration (the cut-off alternates by
/// 1e-9 A, which invalidates the list) of the full triangle (Arg 1) or
/// server 0's hashed p = 7 domain (Arg 7) at cut-off 10 A, on `pool`.
void run_verlet_rebuild(benchmark::State& state, util::ThreadPool& pool) {
  const auto& mc = bench_complex();
  auto domains = opal::build_domains(
      static_cast<std::uint32_t>(mc.n()), static_cast<int>(state.range(0)),
      opal::DistributionStrategy::PseudoRandomHistorical, 1);
  opal::ServerDomain dom(std::move(domains[0]));
  bool nudge = false;
  for (auto _ : state) {
    nudge = !nudge;
    benchmark::DoNotOptimize(dom.update(mc, nudge ? 10.0 + 1e-9 : 10.0,
                                        opal::PairUpdatePath::Auto, pool));
  }
  if (dom.stats().verlet_rebuilds != dom.stats().updates) {
    state.SkipWithError("an update did not rebuild the list");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dom.domain_size()));
}

/// One sweep on the calling thread, as a sweep's runs rebuild.
void BM_VerletRebuild(benchmark::State& state) {
  util::ThreadPool one(1);
  run_verlet_rebuild(state, one);
}
BENCHMARK(BM_VerletRebuild)->Arg(1)->Arg(7);

/// Row blocks of the domain on the process-wide pool.
void BM_VerletRebuildPooled(benchmark::State& state) {
  run_verlet_rebuild(state, util::ThreadPool::shared());
}
BENCHMARK(BM_VerletRebuildPooled)->Arg(1)->Arg(7)->UseRealTime();

void BM_SerialStep(benchmark::State& state) {
  for (auto _ : state) {
    opal::SimulationConfig cfg;
    cfg.steps = 1;
    opal::SerialOpal eng(bench_complex(), cfg);
    benchmark::DoNotOptimize(eng.run());
  }
}
BENCHMARK(BM_SerialStep);

}  // namespace

BENCHMARK_MAIN();
