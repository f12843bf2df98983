#pragma once

// Uniform-grid spatial index over the country plane.
//
// The trace generator issues millions of "which sites are near this UE"
// queries. The index is immutable: it is built once from every point, with
// the points bucketed by grid cell and, per cell, the short list of points
// that can be among the 3 (kTableK) nearest of any position in that cell. A
// query for up to 3 nearest inside the grid scans one list; any other
// query walks square rings of cells until no unsearched cell can hold a
// closer point. Both are exact, and neither allocates for k up to 8.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/geo_point.hpp"

namespace tl::geo {

class SpatialIndex {
 public:
  /// Grid covering [0,width] x [0,height] with roughly `cell_km` cells,
  /// indexing `points`: item i is points[i]. Points outside the grid are
  /// kept in its edge cells and still found.
  SpatialIndex(double width_km, double height_km, double cell_km,
               std::span<const tl::util::GeoPoint> points = {});

  /// All items within `radius_km` of `p` (exact post-filter), in no
  /// particular order.
  std::vector<std::uint32_t> query_radius(const tl::util::GeoPoint& p,
                                          double radius_km) const;

  /// The min(out.size(), size()) nearest items to `p`, written to the front
  /// of `out` ordered by (distance, item): exactly the first entries of a
  /// brute-force sort. Returns how many were written.
  std::size_t nearest_k(const tl::util::GeoPoint& p, std::span<std::uint32_t> out) const;

  /// The nearest item to `p`, ties broken by the smaller item.
  /// Returns kNotFound when the index is empty.
  std::uint32_t nearest(const tl::util::GeoPoint& p) const;

  /// nearest_k into a new vector of up to `k` items.
  std::vector<std::uint32_t> nearest_k(const tl::util::GeoPoint& p, std::size_t k) const;

  std::size_t size() const noexcept { return entries_.size(); }

  static constexpr std::uint32_t kNotFound = 0xffffffffu;

 private:
  /// The largest k the per-cell candidate lists answer.
  static constexpr std::size_t kTableK = 3;

  struct Entry {
    tl::util::GeoPoint point;
    std::uint32_t item;
  };
  class TopK;

  int column_of(double x_km) const noexcept;
  int row_of(double y_km) const noexcept;
  /// The range of entries_ in row `y`, columns [x0, x1].
  std::pair<std::uint32_t, std::uint32_t> row_entries(int y, int x0, int x1) const noexcept;
  /// Offers every entry of row `y`, columns [x0, x1], to `top`.
  void offer_row(int y, int x0, int x1, const tl::util::GeoPoint& p, TopK& top) const;
  /// Exact k-nearest search: walks square rings of cells around `p`'s cell
  /// until no unsearched cell can hold a better entry than the k-th best.
  void search_rings(const tl::util::GeoPoint& p, TopK& top) const;
  /// Fills the per-cell candidate lists (construction only).
  void build_candidates();

  double cell_km_;
  int nx_;
  int ny_;
  /// Entries bucketed by cell, row-major: cell c holds
  /// entries_[cell_start_[c], cell_start_[c + 1]).
  std::vector<std::uint32_t> cell_start_;
  std::vector<Entry> entries_;
  /// Per cell, the indices into entries_ of every entry that can be among
  /// the kTableK nearest of a position in the cell: cell c's list is
  /// candidates_[candidate_start_[c], candidate_start_[c + 1]).
  std::vector<std::uint32_t> candidate_start_;
  std::vector<std::uint32_t> candidates_;
};

}  // namespace tl::geo
