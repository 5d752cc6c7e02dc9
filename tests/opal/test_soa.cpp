// SoA nonbonded kernel: the lane-blocked batch must be bit-identical to
// the AoS per-pair loop — same energies, same gradients, to the last ulp —
// for every pair-count shape (empty, single, partial tail blocks, exact
// multiples of the lane block).  The batch feeds positions, which feed
// pair lists, which feed virtual time: one flipped bit here would fan out
// into every golden oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "opal/complex.hpp"
#include "opal/forcefield.hpp"
#include "opal/soa.hpp"
#include "util/rng.hpp"

namespace {

using namespace opalsim;

opal::MolecularComplex test_complex(std::size_t n_solute, std::size_t n_water,
                                    std::uint64_t seed) {
  opal::SyntheticSpec s;
  s.n_solute = n_solute;
  s.n_water = n_water;
  s.seed = seed;
  return opal::make_synthetic_complex(s);
}

/// All pairs of the first `n` centers in lex order (the serial domain).
std::vector<opal::PairIdx> all_pairs(std::uint32_t n) {
  std::vector<opal::PairIdx> pairs;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) pairs.push_back({i, j});
  }
  return pairs;
}

/// AoS reference: the original per-pair loop over the same list.
void reference(const opal::MolecularComplex& mc,
               const std::vector<opal::PairIdx>& pairs, double& evdw,
               double& ecoul, std::vector<opal::Vec3>& grad) {
  evdw = ecoul = 0.0;
  std::fill(grad.begin(), grad.end(), opal::Vec3{});
  for (const opal::PairIdx& pr : pairs) {
    opal::nonbonded_pair(mc, pr.i, pr.j, evdw, ecoul, grad);
  }
}

/// Runs the batch and requires exact equality with the AoS loop —
/// EXPECT_EQ on doubles deliberately: bit identity is the contract, not
/// closeness.
void expect_batch_identical(const opal::MolecularComplex& mc,
                            const std::vector<opal::PairIdx>& pairs) {
  double evdw_ref = 0.0, ecoul_ref = 0.0;
  std::vector<opal::Vec3> grad_ref(mc.n());
  reference(mc, pairs, evdw_ref, ecoul_ref, grad_ref);

  opal::CentersSoA soa;
  soa.refresh(mc);
  double evdw = 0.0, ecoul = 0.0;
  std::vector<opal::Vec3> grad(mc.n());
  opal::nonbonded_batch(soa, pairs, evdw, ecoul, grad);

  EXPECT_EQ(evdw, evdw_ref);
  EXPECT_EQ(ecoul, ecoul_ref);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_EQ(grad[i].x, grad_ref[i].x) << "grad.x of center " << i;
    EXPECT_EQ(grad[i].y, grad_ref[i].y) << "grad.y of center " << i;
    EXPECT_EQ(grad[i].z, grad_ref[i].z) << "grad.z of center " << i;
  }
}

TEST(SoABatch, BitIdenticalOnFullPairList) {
  const auto mc = test_complex(60, 120, 7);
  const auto pairs = all_pairs(static_cast<std::uint32_t>(mc.n()));
  expect_batch_identical(mc, pairs);
}

TEST(SoABatch, BitIdenticalAtEveryTailShape) {
  // Pair counts straddling the lane-block boundaries: empty, one lane, one
  // short of a block, exact blocks, one into the next block.  The blocked
  // kernel's epilogue handles the partial tail — every shape must replay
  // the scalar sequence exactly.
  const auto mc = test_complex(40, 40, 3);
  const auto full = all_pairs(static_cast<std::uint32_t>(mc.n()));
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{31},
        std::size_t{32}, std::size_t{33}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{127}, std::size_t{128},
        std::size_t{129}, full.size()}) {
    ASSERT_LE(count, full.size());
    const std::vector<opal::PairIdx> pairs(full.begin(),
                                           full.begin() + count);
    SCOPED_TRACE("pairs = " + std::to_string(count));
    expect_batch_identical(mc, pairs);
  }
}

TEST(SoABatch, TinyComplexes) {
  // 0, 1 and 2 centers: no pairs, no pairs, one pair.  The batch must not
  // touch anything out of range and must produce the exact single-pair
  // result.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}}) {
    opal::MolecularComplex mc;
    mc.name = "tiny";
    util::Xoshiro256 rng(11 + n);
    for (std::size_t i = 0; i < n; ++i) {
      opal::MassCenter c;
      c.position = {rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0),
                    rng.uniform(0.0, 8.0)};
      c.mass = 12.0;
      c.charge = rng.uniform(-0.5, 0.5);
      c.c12 = rng.uniform(100.0, 2000.0);
      c.c6 = rng.uniform(10.0, 100.0);
      mc.centers.push_back(c);
    }
    SCOPED_TRACE("n = " + std::to_string(n));
    const auto pairs = all_pairs(static_cast<std::uint32_t>(n));
    expect_batch_identical(mc, pairs);
  }
}

TEST(SoABatch, GradientsAccumulateAcrossSharedCenters) {
  // A pair list where a few centers appear in many pairs (the realistic
  // shape: center i accumulates gradient contributions from every partner).
  // Cross-pair accumulation order is where a reordering bug would show.
  const auto mc = test_complex(30, 0, 5);
  const auto n = static_cast<std::uint32_t>(mc.n());
  std::vector<opal::PairIdx> pairs;
  for (std::uint32_t j = 1; j < n; ++j) pairs.push_back({0, j});  // star
  for (std::uint32_t j = 2; j < n; ++j) pairs.push_back({1, j});
  expect_batch_identical(mc, pairs);
}

TEST(SoABatch, RefreshSplitMatchesCombinedRefresh) {
  // refresh() == refresh_params() + refresh_positions(); the split form is
  // what the run loop uses (params mirrored once, positions per step).
  const auto mc = test_complex(25, 50, 9);
  opal::CentersSoA combined, split;
  combined.refresh(mc);
  split.refresh_params(mc);
  split.refresh_positions(mc);
  EXPECT_EQ(combined.x, split.x);
  EXPECT_EQ(combined.y, split.y);
  EXPECT_EQ(combined.z, split.z);
  EXPECT_EQ(combined.charge, split.charge);
  EXPECT_EQ(combined.c12, split.c12);
  EXPECT_EQ(combined.c6, split.c6);
}

TEST(SoABatch, PositionsRefreshAloneTracksMovement) {
  // Params mirrored once, then only positions refreshed across moves — the
  // per-step contract of the run loop.  Results must stay bit-identical to
  // the AoS loop evaluated on the moved complex.
  auto mc = test_complex(35, 70, 13);
  const auto pairs = all_pairs(static_cast<std::uint32_t>(mc.n()));
  opal::CentersSoA soa;
  soa.refresh_params(mc);
  util::Xoshiro256 rng(99);
  for (int step = 0; step < 3; ++step) {
    for (auto& c : mc.centers) {
      c.position.x += rng.uniform(-0.1, 0.1);
      c.position.y += rng.uniform(-0.1, 0.1);
      c.position.z += rng.uniform(-0.1, 0.1);
    }
    soa.refresh_positions(mc);

    double evdw_ref = 0.0, ecoul_ref = 0.0;
    std::vector<opal::Vec3> grad_ref(mc.n());
    reference(mc, pairs, evdw_ref, ecoul_ref, grad_ref);
    double evdw = 0.0, ecoul = 0.0;
    std::vector<opal::Vec3> grad(mc.n());
    opal::nonbonded_batch(soa, pairs, evdw, ecoul, grad);
    SCOPED_TRACE("step " + std::to_string(step));
    EXPECT_EQ(evdw, evdw_ref);
    EXPECT_EQ(ecoul, ecoul_ref);
    EXPECT_TRUE(std::equal(grad.begin(), grad.end(), grad_ref.begin()));
  }
}

}  // namespace
