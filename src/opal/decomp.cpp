#include "opal/decomp.hpp"

#include <algorithm>
#include <cmath>

#include "util/fatal.hpp"

namespace opalsim::opal {

std::string to_string(Method m) {
  switch (m) {
    case Method::ReplicatedData:
      return "replicated data (RD)";
    case Method::SpaceDecomposition:
      return "space decomposition (SD)";
    case Method::ForceDecomposition:
      return "force decomposition (FD)";
  }
  return "?";
}

std::pair<int, int> fd_grid(int p) {
  if (p <= 0) throw util::ConfigError("opal", "fd_grid: p must be > 0");
  int a = static_cast<int>(std::sqrt(static_cast<double>(p)));
  while (a > 1 && p % a != 0) --a;
  return {a, p / a};
}

double call_bytes_per_step(Method method, std::size_t n, int p,
                           double ghost_fraction) {
  const double alpha = 24.0;
  const double nd = static_cast<double>(n);
  switch (method) {
    case Method::ReplicatedData:
      return alpha * nd * p;  // everyone gets all coordinates
    case Method::SpaceDecomposition:
      // Own slabs sum to n; each server adds its ghost share.
      return alpha * nd * (1.0 + ghost_fraction * p);
    case Method::ForceDecomposition: {
      const auto [a, b] = fd_grid(p);
      // Server (u,v) gets row band n/a plus column band n/b.
      return alpha * (nd / a + nd / b) * p;
    }
  }
  return 0.0;
}

/// Wire tags for the method-specific update payload.
constexpr std::uint64_t kPayloadSd = 0;
constexpr std::uint64_t kPayloadFd = 1;

std::vector<Assignment> sd_assign(const MolecularComplex& mc, int p,
                                  double cutoff) {
  const auto n = static_cast<std::uint32_t>(mc.n());
  const double box = mc.box_length;
  std::vector<int> slab(n);
  std::vector<Assignment> out(p);
  for (std::uint32_t i = 0; i < n; ++i) {
    const int s = std::clamp(
        static_cast<int>(std::floor(mc.centers[i].position.x / box * p)), 0,
        p - 1);
    slab[i] = s;
    out[s].local.push_back(i);
  }
  for (int s = 0; s < p; ++s) {
    Assignment& a = out[s];
    a.own_count = a.local.size();
    // One-sided ghosts: higher-slab atoms within the cut-off of this slab's
    // upper boundary (all higher-slab atoms when there is no cut-off), so a
    // cross-slab pair is computed exactly once, by the lower slab's owner.
    const double hi = box * (s + 1) / p;
    for (std::uint32_t j = 0; j < n; ++j) {
      if (slab[j] <= s) continue;
      if (cutoff > 0.0 && mc.centers[j].position.x > hi + cutoff) continue;
      a.local.push_back(j);
    }
  }
  return out;
}

std::vector<Assignment> fd_assign(std::uint32_t n, int p) {
  const auto [a, b] = fd_grid(p);
  auto range_of = [n](int k, int parts) {
    const auto lo = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(k) * n / parts);
    const auto hi = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(k + 1) * n / parts);
    return std::pair<std::uint32_t, std::uint32_t>{lo, hi};
  };
  std::vector<Assignment> out(p);
  for (int u = 0; u < a; ++u) {
    const auto [rlo, rhi] = range_of(u, a);
    for (int v = 0; v < b; ++v) {
      const auto [clo, chi] = range_of(v, b);
      Assignment& as = out[u * b + v];
      as.rlo = rlo;
      as.rhi = rhi;
      as.clo = clo;
      as.chi = chi;
      for (std::uint32_t i = 0; i < n; ++i) {
        if ((i >= rlo && i < rhi) || (i >= clo && i < chi)) {
          as.local.push_back(i);
        }
      }
    }
  }
  return out;
}

std::vector<double> coords_for(const MolecularComplex& mc,
                               const std::vector<std::uint32_t>& idx) {
  std::vector<double> coords(3 * idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const Vec3& pos = mc.centers[idx[k]].position;
    coords[3 * k] = pos.x;
    coords[3 * k + 1] = pos.y;
    coords[3 * k + 2] = pos.z;
  }
  return coords;
}

void pack_update(Method method, const Assignment& a,
                 const MolecularComplex& mc, pvm::PackBuffer& out) {
  if (method == Method::SpaceDecomposition) {
    out.pack_u64(kPayloadSd);
    out.pack_u64(a.own_count);
  } else {
    out.pack_u64(kPayloadFd);
    out.pack_u64(a.rlo);
    out.pack_u64(a.rhi);
    out.pack_u64(a.clo);
    out.pack_u64(a.chi);
  }
  out.pack_u32_array(a.local);
  out.pack_f64_array(coords_for(mc, a.local));
}

std::vector<PairIdx> unpack_candidates(pvm::PackBuffer& in,
                                       std::vector<std::uint32_t>& local) {
  std::vector<PairIdx> pairs;
  if (in.unpack_u64() == kPayloadSd) {
    const std::uint64_t own_count = in.unpack_u64();
    local = in.unpack_u32_array();
    // Own-own pairs once, own-ghost always, never ghost-ghost.
    for (std::size_t ai = 0; ai < own_count; ++ai) {
      for (std::size_t bi = ai + 1; bi < local.size(); ++bi) {
        std::uint32_t i = local[ai];
        std::uint32_t j = local[bi];
        if (i > j) std::swap(i, j);
        pairs.push_back(PairIdx{i, j});
      }
    }
    return pairs;
  }
  const auto rlo = in.unpack_u64();
  const auto rhi = in.unpack_u64();
  const auto clo = in.unpack_u64();
  const auto chi = in.unpack_u64();
  local = in.unpack_u32_array();
  // Pairs (i < j) with i in the row band, j in the column band.
  for (std::uint64_t i = rlo; i < rhi; ++i) {
    for (std::uint64_t j = std::max(clo, i + 1); j < chi; ++j) {
      pairs.push_back(PairIdx{static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j)});
    }
  }
  return pairs;
}

}  // namespace opalsim::opal
