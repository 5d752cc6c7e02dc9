// SoA nonbonded kernel: the lane-blocked batch must be bit-identical to
// the AoS per-pair loop — same energies, same gradients, to the last ulp —
// for every pair-count shape (empty, single, partial tail blocks, exact
// multiples of the lane block), for every row shape the row-accumulated
// commit sees (rows that cross a lane block, rows that stop and resume
// after a failover adoption), and on both LJ paths (type-pair table and
// per-pair combination).  The batch feeds positions, which feed pair
// lists, which feed virtual time: one flipped bit here would fan out into
// every golden oracle.  The pipelined driver (helpers computing chunks
// ahead of one in-order committer) must give the inline driver's bits at
// every pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "opal/complex.hpp"
#include "opal/forcefield.hpp"
#include "opal/pairs.hpp"
#include "opal/soa.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "nonbonded_oracle.hpp"

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
               std::span<const opal::PairIdx> pairs, double& evdw,
               double& ecoul, std::vector<opal::Vec3>& grad) {
  evdw = ecoul = 0.0;
  std::fill(grad.begin(), grad.end(), opal::Vec3{});
  for (const opal::PairIdx& pr : pairs) {
    opal::nonbonded_pair(mc, pr.i, pr.j, evdw, ecoul, grad);
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Requires the batch's results to equal the reference's bit for bit —
/// compared as bit patterns, so -0.0 vs +0.0 and NaN payloads count.
void expect_bits_equal(double evdw, double ecoul,
                       const std::vector<opal::Vec3>& grad, double evdw_ref,
                       double ecoul_ref,
                       const std::vector<opal::Vec3>& grad_ref) {
  EXPECT_EQ(bits(evdw), bits(evdw_ref)) << evdw << " vs " << evdw_ref;
  EXPECT_EQ(bits(ecoul), bits(ecoul_ref)) << ecoul << " vs " << ecoul_ref;
  ASSERT_EQ(grad.size(), grad_ref.size());
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_EQ(bits(grad[i].x), bits(grad_ref[i].x)) << "grad.x of " << i;
    EXPECT_EQ(bits(grad[i].y), bits(grad_ref[i].y)) << "grad.y of " << i;
    EXPECT_EQ(bits(grad[i].z), bits(grad_ref[i].z)) << "grad.z of " << i;
  }
}

/// Runs the batch and requires bit identity with the AoS loop: bit
/// identity is the contract, not closeness.
void expect_batch_identical(const opal::MolecularComplex& mc,
                            std::span<const opal::PairIdx> pairs) {
  double evdw_ref = 0.0, ecoul_ref = 0.0;
  std::vector<opal::Vec3> grad_ref(mc.n());
  reference(mc, pairs, evdw_ref, ecoul_ref, grad_ref);

  opal::CentersSoA soa;
  soa.refresh(mc);
  double evdw = 0.0, ecoul = 0.0;
  std::vector<opal::Vec3> grad(mc.n());
  opal::nonbonded_batch(soa, pairs, evdw, ecoul, grad);

  expect_bits_equal(evdw, ecoul, grad, evdw_ref, ecoul_ref, grad_ref);
}

/// A complex of `n` centers with independent random charge and LJ
/// coefficients per center (n LJ types).
opal::MolecularComplex random_lj_complex(std::size_t n, std::uint64_t seed) {
  opal::MolecularComplex mc;
  mc.name = "random-lj";
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    opal::MassCenter c;
    c.position = {rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0),
                  rng.uniform(0.0, 20.0)};
    c.mass = 12.0;
    c.charge = rng.uniform(-0.5, 0.5);
    c.c12 = rng.uniform(100.0, 2000.0);
    c.c6 = rng.uniform(10.0, 100.0);
    mc.centers.push_back(c);
  }
  return mc;
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

TEST(SoABatch, PostFailoverPairOrder) {
  // Server 0 adopts server 1's share: its domain is two lex-sorted runs
  // back to back, so a row of the hashed distribution stops at the end of
  // its run in the first share and resumes in the adopted one.  The row
  // accumulator must store the row when it stops and reload it on resume.
  const auto mc = test_complex(50, 100, 17);
  const auto n = static_cast<std::uint32_t>(mc.n());
  auto domains = opal::build_domains(
      n, 3, opal::DistributionStrategy::PseudoRandomUniform, 4);
  opal::ServerDomain dom(std::move(domains[0]));
  dom.adopt(domains[1]);
  const auto pairs = dom.active();
  ASSERT_EQ(pairs.size(), dom.domain_size());
  std::vector<bool> row_closed(n, false);
  std::size_t resumed = 0;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    if (k > 0 && pairs[k].i != pairs[k - 1].i) {
      row_closed[pairs[k - 1].i] = true;
      if (row_closed[pairs[k].i]) ++resumed;
    }
  }
  ASSERT_GT(resumed, 10u) << "the adopted share must resume earlier rows";
  expect_batch_identical(mc, pairs);
}

TEST(SoABatch, RowRunCrossesLaneBlocks) {
  // One row of 79 pairs starting at pair 10 spans lane blocks 0..2, so its
  // accumulator is carried across two block boundaries before it stores.
  const auto mc = test_complex(60, 60, 21);
  std::vector<opal::PairIdx> pairs;
  for (std::uint32_t j = 1; j <= 10; ++j) pairs.push_back({0, j});
  for (std::uint32_t j = 2; j <= 80; ++j) pairs.push_back({1, j});
  for (std::uint32_t j = 3; j <= 7; ++j) pairs.push_back({2, j});
  const auto first = static_cast<std::size_t>(
      std::find_if(pairs.begin(), pairs.end(),
                   [](const opal::PairIdx& p) { return p.i == 1; }) -
      pairs.begin());
  ASSERT_EQ(first, 10u);
  ASSERT_EQ((first + 79) / 32, 2u);  // ends in block 2
  expect_batch_identical(mc, pairs);
}

/// One complex per LJ path: the synthetic complex (two types, table) and
/// per-center coefficients (direct combination).
std::vector<opal::MolecularComplex> both_lj_paths() {
  std::vector<opal::MolecularComplex> out;
  out.push_back(test_complex(60, 60, 51));
  out.push_back(random_lj_complex(120, 53));
  return out;
}

TEST(SoABatch, RowLengthsAroundTheLaneBlock) {
  // A row of `len` pairs, then a row of 32 and a short one, starting at
  // the span's first pair or one pair in: rows that fill a lane block
  // exactly, fall one short or one over, or span whole blocks take the
  // one-row block form, with or without a row change at its start.
  for (const auto& mc : both_lj_paths()) {
    opal::CentersSoA soa;
    soa.refresh(mc);
    for (const std::uint32_t lead : {0u, 1u}) {
      for (const std::uint32_t len : {1u, 31u, 32u, 33u, 65u}) {
        std::vector<opal::PairIdx> pairs(lead, opal::PairIdx{0, 1});
        for (std::uint32_t j = 4; j < 4 + len; ++j) pairs.push_back({3, j});
        for (std::uint32_t j = 6; j < 38; ++j) pairs.push_back({5, j});
        for (std::uint32_t j = 9; j < 12; ++j) pairs.push_back({8, j});
        SCOPED_TRACE("table " + std::to_string(soa.lj_ntypes) + ", lead " +
                     std::to_string(lead) + ", row of " +
                     std::to_string(len));
        expect_batch_identical(mc, pairs);
      }
    }
  }
}

TEST(SoABatch, EmptySpanLeavesEverythingUntouched) {
  for (const auto& mc : both_lj_paths()) {
    opal::CentersSoA soa;
    soa.refresh(mc);
    double evdw = -0.0, ecoul = 1.5;
    std::vector<opal::Vec3> grad(mc.n(), opal::Vec3{1.0, -2.0, 3.0});
    opal::nonbonded_batch(soa, {}, evdw, ecoul, grad);
    EXPECT_EQ(bits(evdw), bits(-0.0));
    EXPECT_EQ(bits(ecoul), bits(1.5));
    for (const opal::Vec3& g : grad) {
      EXPECT_EQ(g.x, 1.0);
      EXPECT_EQ(g.y, -2.0);
      EXPECT_EQ(g.z, 3.0);
    }
  }
}

TEST(SoABatch, RowReopensAfterItsCenterWasAPartner) {
  // Row 7 stops, pair (2, 7) subtracts from g[7] as a partner, then row 7
  // re-opens: the re-opened run must load g[7] with that update in it.
  // With `gap` 40 the re-open falls inside a mixed block; with 63 the pair
  // (2, 7) ends block 1 and the re-opened run begins a one-row block.
  for (const auto& mc : both_lj_paths()) {
    for (const std::uint32_t gap : {40u, 63u}) {
      std::vector<opal::PairIdx> pairs;
      for (std::uint32_t j = 8; j < 8 + gap; ++j) pairs.push_back({7, j});
      pairs.push_back({2, 7});
      for (std::uint32_t j = 8 + gap; j < 48 + gap; ++j) {
        pairs.push_back({7, j});
      }
      pairs.push_back({7, 8});
      SCOPED_TRACE("centers " + std::to_string(mc.n()) + ", gap " +
                   std::to_string(gap));
      expect_batch_identical(mc, pairs);
    }
  }
}

TEST(SoABatch, SyntheticComplexTakesLjTable) {
  // Solute and water centers: two LJ types, so the type-pair table
  // replaces the two per-pair LJ sqrts.
  const auto mc = test_complex(45, 90, 23);
  opal::CentersSoA soa;
  soa.refresh(mc);
  EXPECT_EQ(soa.lj_ntypes, 2u);
  EXPECT_EQ(soa.lj_type.size(), mc.n());
  EXPECT_EQ(soa.lj_c12.size(), 4u);
  EXPECT_EQ(soa.lj_c6.size(), 4u);
  expect_batch_identical(mc, all_pairs(static_cast<std::uint32_t>(mc.n())));
}

TEST(SoABatch, PerCenterLjTakesDirectPath) {
  // Every center its own LJ type: T·T > n, so no table is built and the
  // math block combines the per-center coefficients per pair.
  const auto mc = random_lj_complex(150, 31);
  opal::CentersSoA soa;
  soa.refresh(mc);
  EXPECT_EQ(soa.lj_ntypes, 0u);
  EXPECT_TRUE(soa.lj_type.empty());
  EXPECT_TRUE(soa.lj_c12.empty());
  expect_batch_identical(mc, all_pairs(static_cast<std::uint32_t>(mc.n())));
}

TEST(SoABatch, LjTableBuiltExactlyWhileTypesSquaredFitCenters) {
  // Three LJ types: 9 centers hold the 3x3 table (T·T == n), 8 do not.
  for (const std::size_t n : {std::size_t{8}, std::size_t{9}}) {
    auto mc = random_lj_complex(n, 41);
    for (std::size_t i = 0; i < n; ++i) {
      mc.centers[i].c12 = 300.0 + 100.0 * static_cast<double>(i % 3);
      mc.centers[i].c6 = 20.0 + 10.0 * static_cast<double>(i % 3);
    }
    opal::CentersSoA soa;
    soa.refresh(mc);
    SCOPED_TRACE("n = " + std::to_string(n));
    EXPECT_EQ(soa.lj_ntypes, n == 9 ? 3u : 0u);
    expect_batch_identical(mc, all_pairs(static_cast<std::uint32_t>(n)));
  }
}

TEST(SoABatch, SignedZeroLjCoefficientsAreDistinctTypes) {
  // c12 = +0.0 and -0.0 compare equal but are different operands:
  // sqrt(+0 * -0) is -0, sqrt(+0 * +0) is +0.  Grouping by bit pattern
  // keeps them apart (two types, so four centers take the table); grouping
  // by == would tabulate +0 for the mixed pairs.  With c6 = 0 each mixed
  // pair's LJ term is -0, visible in an energy sum that starts at -0.
  auto mc = random_lj_complex(4, 43);
  for (std::size_t i = 0; i < 4; ++i) {
    mc.centers[i].c12 = i < 2 ? 0.0 : -0.0;
    mc.centers[i].c6 = 0.0;
  }
  opal::CentersSoA soa;
  soa.refresh(mc);
  ASSERT_EQ(soa.lj_ntypes, 2u);
  EXPECT_NE(soa.lj_type[0], soa.lj_type[2]);

  const std::vector<opal::PairIdx> mixed{{0, 2}, {0, 3}, {1, 2}, {1, 3}};
  double evdw_ref = -0.0, ecoul_ref = -0.0;
  std::vector<opal::Vec3> grad_ref(mc.n());
  for (const opal::PairIdx& pr : mixed) {
    opal::nonbonded_pair(mc, pr.i, pr.j, evdw_ref, ecoul_ref, grad_ref);
  }
  ASSERT_TRUE(std::signbit(evdw_ref));
  double evdw = -0.0, ecoul = -0.0;
  std::vector<opal::Vec3> grad(mc.n());
  opal::nonbonded_batch(soa, mixed, evdw, ecoul, grad);
  expect_bits_equal(evdw, ecoul, grad, evdw_ref, ecoul_ref, grad_ref);
  expect_batch_identical(mc, all_pairs(4));
}

/// Runs the batch on `pool` and on the inline driver (a one-thread pool)
/// and requires the same bits from both, starting from a nonzero gradient
/// and signed energies so the carried-in state counts too.
void expect_pooled_identical(const opal::CentersSoA& soa,
                             std::span<const opal::PairIdx> pairs,
                             util::ThreadPool& pool) {
  util::ThreadPool one(1);
  double evdw_ref = -0.0, ecoul_ref = 0.25;
  std::vector<opal::Vec3> grad_ref(soa.size(), opal::Vec3{0.5, -1.0, 2.0});
  opal::nonbonded_batch(soa, pairs, evdw_ref, ecoul_ref, grad_ref, one);
  double evdw = -0.0, ecoul = 0.25;
  std::vector<opal::Vec3> grad(soa.size(), opal::Vec3{0.5, -1.0, 2.0});
  opal::nonbonded_batch(soa, pairs, evdw, ecoul, grad, pool);
  expect_bits_equal(evdw, ecoul, grad, evdw_ref, ecoul_ref, grad_ref);
}

/// 300 centers: 44,850 pairs, room for spans past the pipeline's ring.
std::vector<opal::MolecularComplex> pipeline_complexes() {
  std::vector<opal::MolecularComplex> out;
  out.push_back(test_complex(100, 200, 61));  // two LJ types: table
  out.push_back(random_lj_complex(300, 67));  // per-center LJ: direct
  return out;
}

TEST(SoABatchPooled, BitIdenticalAtEverySpanLengthAndPoolSize) {
  // Spans of 0 and 1 pairs, and around the pipeline's 2,048-pair chunks,
  // its four-chunk threshold (8,192) and its eight-slot ring (16,384), and
  // two that end in a partial lane block (9 chunks and 33 pairs; 16 chunks
  // and 31 pairs); the full triangle's rows cross chunk boundaries.  Pools
  // of 1 (inline), 2, 3 and 8 threads.
  for (const auto& mc : pipeline_complexes()) {
    opal::CentersSoA soa;
    soa.refresh(mc);
    const auto full = all_pairs(static_cast<std::uint32_t>(mc.n()));
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      util::ThreadPool pool(threads);
      for (const std::size_t count :
           {std::size_t{0}, std::size_t{1}, std::size_t{2047},
            std::size_t{2048}, std::size_t{8191}, std::size_t{8192},
            std::size_t{8193}, std::size_t{16383}, std::size_t{16384},
            std::size_t{16385}, std::size_t{18465}, std::size_t{32799},
            full.size()}) {
        SCOPED_TRACE("table " + std::to_string(soa.lj_ntypes) + ", pool " +
                     std::to_string(threads) + ", pairs " +
                     std::to_string(count));
        expect_pooled_identical(
            soa, std::span<const opal::PairIdx>(full).first(count), pool);
      }
      if (threads > 1) {
        EXPECT_GT(pool.dispatch_stats().assists, 0u)
            << "large spans must take the pipeline";
      } else {
        EXPECT_EQ(pool.dispatch_stats().assists, 0u);
      }
    }
    expect_batch_identical(mc, full);
  }
}

TEST(SoABatchPooled, RowCrossingAChunkBoundary) {
  // Rows of 32 pairs, then one row of 280 that straddles pair 4,096 (the
  // end of chunk 1), then rows of 32 again: row blocks on both sides of
  // the cut, and an accumulator the committer carries from one chunk into
  // the next.
  for (const auto& mc : pipeline_complexes()) {
    opal::CentersSoA soa;
    soa.refresh(mc);
    const auto n = static_cast<std::uint32_t>(mc.n());
    std::vector<opal::PairIdx> pairs;
    const auto add_row = [&](std::uint32_t i, std::uint32_t len) {
      for (std::uint32_t k = 1; k <= len; ++k) {
        pairs.push_back({i % n, (i + k) % n});
      }
    };
    std::uint32_t i = 0;
    while (pairs.size() < 3900) add_row(i++, 32);
    const std::size_t row_start = pairs.size();
    add_row(i++, 280);
    ASSERT_LT(row_start, 4096u);
    ASSERT_GT(pairs.size(), 4096u);
    while (pairs.size() < 12000) add_row(i++, 32);
    for (const unsigned threads : {2u, 3u, 8u}) {
      util::ThreadPool pool(threads);
      SCOPED_TRACE("pool " + std::to_string(threads));
      expect_pooled_identical(soa, pairs, pool);
    }
    expect_batch_identical(mc, pairs);
  }
}

TEST(SoABatchPooled, PostFailoverRowsReopenInLaterChunks) {
  // Server 0 after adopting server 1's share: two lex-sorted runs, so rows
  // of the first run re-open chunks later in the adopted one.
  for (const auto& mc : pipeline_complexes()) {
    opal::CentersSoA soa;
    soa.refresh(mc);
    auto domains = opal::build_domains(
        static_cast<std::uint32_t>(mc.n()), 3,
        opal::DistributionStrategy::PseudoRandomHistorical, 5);
    opal::ServerDomain dom(std::move(domains[0]));
    const std::size_t first_share = dom.domain_size();
    dom.adopt(domains[1]);
    const auto pairs = dom.active();
    ASSERT_GT(first_share, std::size_t{4096});
    ASSERT_GT(pairs.size(), first_share + std::size_t{4096});
    ASSERT_EQ(pairs[first_share].i, pairs[0].i)
        << "the adopted run re-opens row " << pairs[0].i;
    for (const unsigned threads : {2u, 3u, 8u}) {
      util::ThreadPool pool(threads);
      SCOPED_TRACE("pool " + std::to_string(threads));
      expect_pooled_identical(soa, pairs, pool);
    }
  }
}

TEST(SoABatchPooled, InsideADispatchStaysInline) {
  // A sweep's runs call the kernel inside a dispatch: the call must run
  // the inline driver (no assisted call on the kernel's pool) and still
  // give the same bits.
  const auto mc = pipeline_complexes().front();
  opal::CentersSoA soa;
  soa.refresh(mc);
  const auto pairs = all_pairs(static_cast<std::uint32_t>(mc.n()));
  util::ThreadPool sweep(3), kernel_pool(3);
  util::parallel_for_indexed(sweep, 4, [&](std::size_t) {
    EXPECT_TRUE(util::ThreadPool::in_dispatch());
    expect_pooled_identical(soa, pairs, kernel_pool);
  });
  EXPECT_EQ(kernel_pool.dispatch_stats().assists, 0u);
}

}  // namespace
