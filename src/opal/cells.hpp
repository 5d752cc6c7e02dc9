// Linked-cell spatial grid for cut-off pair-list updates.
//
// A host-performance structure only: it accelerates the *wall-clock* cost of
// rebuilding the serial engine's Verlet list by enumerating neighbors from
// adjacent cells instead of distance-checking the full pair triangle.
// Virtual time is unaffected — the paper's model charges the update phase
// per assigned pair
// (O(n^2/p)), and that accounting is kept by the callers.  See DESIGN.md,
// "Host execution engine".
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace opalsim::opal {

/// A uniform grid over the bounding box of the current positions with cell
/// edge >= cutoff, so any two centers within the cutoff lie in the same or
/// adjacent cells.  Rebuilt from scratch per update (O(n)); storage is
/// reused across builds.  No periodicity — the force field uses plain
/// Euclidean distances, so the grid does too.
class CellGrid {
 public:
  /// Builds the grid for the given coordinates.  Returns false when the
  /// geometry degenerates (fewer than 8 cells, i.e. no axis can be split):
  /// then neighbor enumeration is the full O(n^2) sweep plus grid overhead
  /// and callers should keep the brute-force path.  `x`, `y`, `z` must
  /// have equal sizes.
  bool build(std::span<const double> x, std::span<const double> y,
             std::span<const double> z, double cutoff);

  std::size_t num_cells() const noexcept {
    return static_cast<std::size_t>(nx_) * ny_ * nz_;
  }

  /// Invokes fn(j) for every stored index j > i within `sqrt(c2)` of the
  /// point (xi, yi, zi), in no particular order.  The squared distance is
  /// computed as (xi-xj)*(xi-xj) + (yi-yj)*(yi-yj) + (zi-zj)*(zi-zj) — the
  /// exact expression within_cutoff evaluates, so the accept decision is
  /// bit-identical to the brute-force sweep.  The point must be center i's
  /// own build position.  This drives the serial (full-triangle) Verlet
  /// rebuild: per-row emission, no candidate materialization.
  template <typename Fn>
  void for_each_near_above(std::uint32_t i, double xi, double yi, double zi,
                           double c2, Fn&& fn) const {
    const auto c = static_cast<std::size_t>(cell_of_[i]);
    const auto ux = static_cast<std::size_t>(nx_);
    const auto uy = static_cast<std::size_t>(ny_);
    const auto cx = static_cast<std::int32_t>(c % ux);
    const auto cy = static_cast<std::int32_t>((c / ux) % uy);
    const auto cz = static_cast<std::int32_t>(c / (ux * uy));
    for (std::int32_t oz = std::max(cz - 1, 0);
         oz <= std::min(cz + 1, nz_ - 1); ++oz) {
      for (std::int32_t oy = std::max(cy - 1, 0);
           oy <= std::min(cy + 1, ny_ - 1); ++oy) {
        for (std::int32_t ox = std::max(cx - 1, 0);
             ox <= std::min(cx + 1, nx_ - 1); ++ox) {
          const std::size_t o = cell_index(ox, oy, oz);
          const std::uint32_t s = start_[o];
          const std::uint32_t e = start_[o + 1];
          // Items are ascending within a cell: skip straight past <= i.
          std::uint32_t t = s;
          if (t < e && items_[t] <= i) {
            t = static_cast<std::uint32_t>(
                std::upper_bound(items_.begin() + s, items_.begin() + e, i) -
                items_.begin());
          }
          for (; t < e; ++t) {
            const double dx = xi - cx_[t];
            const double dy = yi - cy_[t];
            const double dz = zi - cz_[t];
            if (dx * dx + dy * dy + dz * dz <= c2) fn(items_[t]);
          }
        }
      }
    }
  }

 private:
  std::size_t cell_index(std::int32_t cx, std::int32_t cy,
                         std::int32_t cz) const noexcept {
    return (static_cast<std::size_t>(cz) * ny_ + cy) * nx_ + cx;
  }

  std::int32_t nx_ = 0, ny_ = 0, nz_ = 0;
  double lo_[3] = {0.0, 0.0, 0.0};
  double inv_w_[3] = {0.0, 0.0, 0.0};
  /// CSR layout: items_ holds center indices grouped by cell (ascending
  /// within a cell); start_[c]..start_[c+1] delimits cell c.  cx_/cy_/cz_
  /// mirror the build coordinates in items_ order so the distance loop in
  /// for_each_near_above streams contiguous memory instead of gathering.
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> items_;
  std::vector<std::uint32_t> cell_of_;
  std::vector<std::uint32_t> cursor_;
  std::vector<double> cx_, cy_, cz_;
};

}  // namespace opalsim::opal
