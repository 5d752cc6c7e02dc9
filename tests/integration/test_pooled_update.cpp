// ServerDomain::update on a thread pool: the Verlet list's filter runs in
// blocks of whole runs and its rebuild in blocks that start where the
// domain's row changes, each block staging its output on the calling
// thread's scratch before the blocks are joined in order (opal/pairs.cpp).
// Every case checks the active list against the brute-force oracle and the
// list's shape against the one-thread pool's, which runs the inline sweep.
// This suite is in the TSan leg's label set, so the block handoff runs
// under the race detector there; tests/opal/test_cells.cpp pins the inline
// list against the oracle and a reference builder.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "opal/complex.hpp"
#include "opal/pairs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace opalsim;

constexpr opal::DistributionStrategy kStrategies[] = {
    opal::DistributionStrategy::PseudoRandomHistorical,
    opal::DistributionStrategy::PseudoRandomUniform,
    opal::DistributionStrategy::RowCyclic,
    opal::DistributionStrategy::Folded,
    opal::DistributionStrategy::EvenMultiplierBug,
};

constexpr double kCutoff = 10.0;
/// Half the Verlet skin at kCutoff (kVerletSkinFactor = 0.3).
constexpr double kHalfSkin = 0.5 * 0.3 * kCutoff;

opal::MolecularComplex test_complex(std::size_t n, std::uint64_t seed) {
  opal::SyntheticSpec s;
  s.n_solute = (n + 2) / 3;
  s.n_water = n - s.n_solute;
  s.seed = seed;
  return opal::make_synthetic_complex(s);
}

std::vector<opal::PairIdx> active_of(const opal::ServerDomain& dom) {
  return {dom.active().begin(), dom.active().end()};
}

/// Moves every center by up to `step` along each axis (a displacement of at
/// most step·√3), so pairs near the cut-off cross it.
void jiggle(opal::MolecularComplex& mc, double step, util::Xoshiro256& rng) {
  for (auto& c : mc.centers) {
    c.position.x += step * (2.0 * rng.uniform() - 1.0);
    c.position.y += step * (2.0 * rng.uniform() - 1.0);
    c.position.z += step * (2.0 * rng.uniform() - 1.0);
  }
}

/// One domain updated on pools of 1, 2, 3 and 8 threads beside the brute
/// oracle, step after step.
class PoolSet {
 public:
  explicit PoolSet(const std::vector<opal::PairIdx>& domain)
      : oracle_(domain) {
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      pools_.push_back(std::make_unique<util::ThreadPool>(threads));
      doms_.emplace_back(domain);
    }
  }

  void adopt(const std::vector<opal::PairIdx>& extra) {
    oracle_.adopt(extra);
    for (auto& d : doms_) d.adopt(extra);
  }

  /// Updates every domain at mc's positions and checks them.
  void step(const opal::MolecularComplex& mc, const std::string& what) {
    SCOPED_TRACE(what);
    oracle_.update(mc, kCutoff, opal::PairUpdatePath::Brute);
    const auto want = active_of(oracle_);
    for (std::size_t k = 0; k < doms_.size(); ++k) {
      SCOPED_TRACE("threads=" + std::to_string(pools_[k]->size()));
      doms_[k].update(mc, kCutoff, opal::PairUpdatePath::Auto, *pools_[k]);
      ASSERT_EQ(active_of(doms_[k]), want);
      const opal::ServerDomain& one = doms_.front();
      EXPECT_EQ(doms_[k].verlet_items(), one.verlet_items());
      EXPECT_EQ(doms_[k].verlet_runs(), one.verlet_runs());
      EXPECT_EQ(doms_[k].stats().verlet_rebuilds,
                one.stats().verlet_rebuilds);
    }
  }

  std::uint64_t rebuilds() const {
    return doms_.front().stats().verlet_rebuilds;
  }

 private:
  opal::ServerDomain oracle_;
  std::vector<std::unique_ptr<util::ThreadPool>> pools_;
  std::vector<opal::ServerDomain> doms_;
};

TEST(PooledUpdate, MatchesBruteAndInlineShapeOnEveryPool) {
  // n = 2 .. 17 gives a pool of 8 (36 blocks) more blocks than pairs or
  // rows; 1,500 centers is the small complex's triangle (1.1 M pairs).
  for (const std::size_t n : {2u, 3u, 17u, 150u, 1500u}) {
    const auto mc0 = test_complex(n, 42 + n);
    for (const auto strategy : kStrategies) {
      for (const int p : {1, 2, 7}) {
        const auto domains = opal::build_domains(
            static_cast<std::uint32_t>(n), p, strategy, 3);
        for (int s = 0; s < p; ++s) {
          if (domains[s].empty()) continue;
          SCOPED_TRACE(opal::to_string(strategy) + " n=" + std::to_string(n) +
                       " p=" + std::to_string(p) + " server " +
                       std::to_string(s));
          auto mc = mc0;
          util::Xoshiro256 rng(n * 31 + static_cast<std::uint64_t>(s));
          PoolSet set(domains[s]);
          set.step(mc, "first update builds the list");
          // Under half the skin in all: the list filters.
          jiggle(mc, 0.2 * kHalfSkin, rng);
          set.step(mc, "filter");
          EXPECT_EQ(set.rebuilds(), 1u);
          // One center crosses the skin boundary: the list rebuilds.
          mc.centers[0].position.x += 1.5 * kHalfSkin;
          set.step(mc, "rebuild after a skin crossing");
          EXPECT_EQ(set.rebuilds(), 2u);
          jiggle(mc, 0.2 * kHalfSkin, rng);
          set.step(mc, "filter after the rebuild");
          EXPECT_EQ(set.rebuilds(), 2u);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(PooledUpdate, PostAdoptDomains) {
  // Server 0 adopts the others' shares in turn (two failovers): rows recur
  // in the domain, so a block may start a row that an earlier block ends.
  const auto mc0 = test_complex(400, 11);
  for (const auto strategy : kStrategies) {
    SCOPED_TRACE(opal::to_string(strategy));
    const auto domains = opal::build_domains(400, 3, strategy, 5);
    auto mc = mc0;
    util::Xoshiro256 rng(9);
    PoolSet set(domains[0]);
    set.step(mc, "before adoption");
    set.adopt(domains[2]);
    set.step(mc, "after the first adoption");
    jiggle(mc, 0.2 * kHalfSkin, rng);
    set.step(mc, "filter after the first adoption");
    set.adopt(domains[1]);
    set.step(mc, "after the second adoption");
    jiggle(mc, 0.2 * kHalfSkin, rng);
    set.step(mc, "filter after the second adoption");
    EXPECT_EQ(set.rebuilds(), 3u);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PooledUpdate, NonFiniteCoordinates) {
  // A NaN or infinite center fails every distance test it enters and
  // counts as moved, so each update rebuilds; the blocks must agree.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (const int p : {1, 7}) {
      SCOPED_TRACE("bad=" + std::to_string(bad) + " p=" + std::to_string(p));
      auto mc = test_complex(300, 4);
      const auto domains = opal::build_domains(
          300, p, opal::DistributionStrategy::PseudoRandomHistorical, 8);
      PoolSet set(domains[0]);
      set.step(mc, "finite");
      mc.centers[3].position.x = bad;
      mc.centers[200].position.z = -bad;
      set.step(mc, "non-finite");
      set.step(mc, "non-finite again");
      EXPECT_EQ(set.rebuilds(), 3u);
      mc.centers[3].position.x = 0.0;
      mc.centers[200].position.z = 0.0;
      set.step(mc, "finite again");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(PooledUpdate, PooledCallsDispatchOnce) {
  // On a pool of more than one thread each list-served update is two
  // dispatches, filter and rebuild alike: the blocks, then their join.
  const auto mc = test_complex(400, 21);
  const auto domains = opal::build_domains(
      400, 2, opal::DistributionStrategy::PseudoRandomHistorical, 1);
  util::ThreadPool pool(3);
  opal::ServerDomain dom(domains[0]);
  for (int k = 0; k < 3; ++k) {
    const std::uint64_t before = pool.dispatch_stats().dispatches;
    dom.update(mc, kCutoff, opal::PairUpdatePath::Auto, pool);
    EXPECT_EQ(pool.dispatch_stats().dispatches - before, 2u) << "update " << k;
  }
  EXPECT_EQ(dom.stats().verlet_rebuilds, 1u);
}

TEST(PooledUpdate, InsideADispatchRunsInline) {
  // A sweep's runs update inside the sweep's dispatch: both overloads run
  // there inline, leaving their pools untouched, even past the shared
  // pool's thresholds (this domain has 1.1 M pairs and ~200 k listed).
  util::ThreadPool sweep(2);
  util::ThreadPool other(3);
  util::ThreadPool& shared = util::ThreadPool::shared();
  const auto mc = test_complex(1500, 6);
  const auto domains = opal::build_domains(
      1500, 1, opal::DistributionStrategy::PseudoRandomHistorical, 1);
  opal::ServerDomain oracle(domains[0]);
  oracle.update(mc, kCutoff, opal::PairUpdatePath::Brute);
  std::vector<opal::ServerDomain> doms(4, opal::ServerDomain(domains[0]));
  // After the build, which pools this triangle (2^20 pairs or more).
  const std::uint64_t other_before = other.dispatch_stats().dispatches;
  const std::uint64_t shared_before = shared.dispatch_stats().dispatches;
  util::parallel_for_indexed(sweep, doms.size(), [&](std::size_t r) {
    for (int k = 0; k < 2; ++k) {  // a rebuild, then a filter
      if (r % 2 == 0) {
        doms[r].update(mc, kCutoff, opal::PairUpdatePath::Auto, other);
      } else {
        doms[r].update(mc, kCutoff);
      }
    }
  });
  EXPECT_EQ(other.dispatch_stats().dispatches, other_before);
  EXPECT_EQ(shared.dispatch_stats().dispatches, shared_before);
  for (std::size_t r = 0; r < doms.size(); ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    EXPECT_EQ(active_of(doms[r]), active_of(oracle));
    EXPECT_EQ(doms[r].stats().verlet_rebuilds, 1u);
    EXPECT_GE(doms[r].verlet_items(), std::size_t{1} << 15);
  }
}

/// A complex of n centers packed inside one cut-off sphere, so every pair
/// of a domain is listed and active.
opal::MolecularComplex packed_complex(std::size_t n) {
  auto mc = test_complex(n, 2);
  for (std::size_t k = 0; k < n; ++k) {
    const double t = static_cast<double>(k) / static_cast<double>(n);
    mc.centers[k].position = {t, 2.0 * t, 0.5 * t};
  }
  return mc;
}

/// The first `count` pairs of the n-center triangle in lex order.
std::vector<opal::PairIdx> triangle_prefix(std::uint32_t n,
                                           std::size_t count) {
  std::vector<opal::PairIdx> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < n && out.size() < count; ++i) {
    for (std::uint32_t j = i + 1; j < n && out.size() < count; ++j) {
      out.emplace_back(i, j);
    }
  }
  return out;
}

TEST(PooledUpdate, SharedPoolThresholds) {
  // The three-argument form goes to the shared pool from 2^15 listed pairs
  // (filter) and from 2^16 domain pairs (rebuild), and stays inline one
  // pair below each.  Every pair of these domains is listed.
  util::ThreadPool& shared = util::ThreadPool::shared();
  const std::uint64_t pooled = shared.size() > 1 ? 2 : 0;
  struct Case {
    std::uint32_t n;
    std::size_t pairs;
    std::uint64_t rebuild_dispatches, filter_dispatches;
  };
  const std::size_t kFilter = std::size_t{1} << 15;
  const std::size_t kRebuild = std::size_t{1} << 16;
  for (const Case& c : {Case{257, kFilter - 1, 0, 0},
                        Case{257, kFilter, 0, pooled},
                        Case{363, kRebuild - 1, 0, pooled},
                        Case{363, kRebuild, pooled, pooled}}) {
    SCOPED_TRACE("pairs=" + std::to_string(c.pairs));
    const auto mc = packed_complex(c.n);
    const auto domain = triangle_prefix(c.n, c.pairs);
    ASSERT_EQ(domain.size(), c.pairs);
    opal::ServerDomain dom(domain);
    std::uint64_t before = shared.dispatch_stats().dispatches;
    dom.update(mc, kCutoff);
    EXPECT_EQ(shared.dispatch_stats().dispatches - before,
              c.rebuild_dispatches);
    EXPECT_EQ(dom.verlet_items(), c.pairs);
    before = shared.dispatch_stats().dispatches;
    dom.update(mc, kCutoff);
    EXPECT_EQ(shared.dispatch_stats().dispatches - before,
              c.filter_dispatches);
    EXPECT_EQ(dom.stats().verlet_rebuilds, 1u);
    EXPECT_EQ(active_of(dom), domain);
  }
}

}  // namespace
