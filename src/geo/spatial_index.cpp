#include "geo/spatial_index.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

namespace tl::geo {

using tl::util::GeoPoint;

namespace {

// Every distance bound the search stops on is shrunk by this much, so that
// rounding in a point's cell or in a distance can only widen the search.
constexpr double kSlackKm = 1e-6;

// nearest_k keeps up to this many candidates on the stack.
constexpr std::size_t kInlineK = 8;

// A cell whose candidate list is longer than this is split into sub-cells,
// at most kMaxSplitSide per side. A cell's side shares its table word with
// its first slot, in the low kSideBits bits.
constexpr std::size_t kSplitAbove = 8;
constexpr std::uint32_t kMaxSplitSide = 8;
constexpr std::uint32_t kSideBits = 4;
constexpr std::uint32_t kSideMask = (1u << kSideBits) - 1;
static_assert(kMaxSplitSide <= kSideMask);

// Squared distance from `e` to the square of side `side_km` whose low
// corner is (x_lo, y_lo); 0 inside it.
double square_d2(const GeoPoint& e, double x_lo, double y_lo, double side_km) noexcept {
  // Two-operand max: it compiles to branch-free instructions.
  const double dx = std::max(std::max(x_lo - e.x_km, e.x_km - (x_lo + side_km)), 0.0);
  const double dy = std::max(std::max(y_lo - e.y_km, e.y_km - (y_lo + side_km)), 0.0);
  return dx * dx + dy * dy;
}

}  // namespace

/// The k best (squared distance, item) pairs offered so far, kept ascending
/// in that order: the order a brute-force sort gives, ties broken by item.
class SpatialIndex::TopK {
 public:
  struct Slot {
    double d2;
    std::uint32_t item;
    bool operator<(const Slot& o) const noexcept {
      return d2 < o.d2 || (d2 == o.d2 && item < o.item);
    }
  };

  explicit TopK(std::span<Slot> slots) noexcept : slots_(slots) {}

  void offer(double d2, std::uint32_t item) noexcept {
    const Slot s{d2, item};
    std::size_t i = n_;
    if (n_ == slots_.size()) {
      if (!(s < slots_[n_ - 1])) return;
      --i;
    } else {
      ++n_;
    }
    for (; i > 0 && s < slots_[i - 1]; --i) slots_[i] = slots_[i - 1];
    slots_[i] = s;
  }

  void clear() noexcept { n_ = 0; }
  bool full() const noexcept { return n_ == slots_.size(); }
  /// The k-th best squared distance (only meaningful when full()).
  double worst_d2() const noexcept { return slots_[n_ - 1].d2; }
  std::size_t size() const noexcept { return n_; }
  std::uint32_t item(std::size_t i) const noexcept { return slots_[i].item; }

 private:
  std::span<Slot> slots_;
  std::size_t n_ = 0;
};

SpatialIndex::SpatialIndex(double width_km, double height_km, double cell_km,
                           std::span<const GeoPoint> points)
    : cell_km_(cell_km) {
  if (width_km <= 0 || height_km <= 0 || cell_km <= 0) {
    throw std::invalid_argument{"SpatialIndex: non-positive dimension"};
  }
  if (points.size() >= kNotFound) throw std::length_error{"SpatialIndex: too many points"};
  nx_ = std::max(1, static_cast<int>(std::ceil(width_km / cell_km)));
  ny_ = std::max(1, static_cast<int>(std::ceil(height_km / cell_km)));

  // Counting sort into cells; within a cell, entries keep item order.
  const std::size_t cells = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  std::vector<std::uint32_t> cell_of(points.size());
  cell_start_.assign(cells + 1, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    cell_of[i] = static_cast<std::uint32_t>(
        static_cast<std::size_t>(row_of(points[i].y_km)) * static_cast<std::size_t>(nx_) +
        static_cast<std::size_t>(column_of(points[i].x_km)));
    ++cell_start_[cell_of[i] + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) cell_start_[c + 1] += cell_start_[c];
  std::vector<std::uint32_t> next(cell_start_.begin(), cell_start_.end() - 1);
  entries_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    entries_[next[cell_of[i]]++] = {points[i], static_cast<std::uint32_t>(i)};
  }
  if (!entries_.empty()) build_candidates();
}

int SpatialIndex::column_of(double x_km) const noexcept {
  return static_cast<int>(
      std::clamp(std::floor(x_km / cell_km_), 0.0, static_cast<double>(nx_ - 1)));
}

int SpatialIndex::row_of(double y_km) const noexcept {
  return static_cast<int>(
      std::clamp(std::floor(y_km / cell_km_), 0.0, static_cast<double>(ny_ - 1)));
}

std::pair<std::uint32_t, std::uint32_t> SpatialIndex::row_entries(int y, int x0,
                                                                  int x1) const noexcept {
  const std::size_t row = static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_);
  return {cell_start_[row + static_cast<std::size_t>(x0)],
          cell_start_[row + static_cast<std::size_t>(x1) + 1]};
}

void SpatialIndex::offer_row(int y, int x0, int x1, const GeoPoint& p, TopK& top) const {
  const auto [begin, end] = row_entries(y, x0, x1);
  for (std::uint32_t i = begin; i < end; ++i) {
    top.offer(tl::util::squared_distance_km2(entries_[i].point, p), entries_[i].item);
  }
}

void SpatialIndex::search_rings(const GeoPoint& p, TopK& top) const {
  const int cx = column_of(p.x_km);
  const int cy = row_of(p.y_km);
  for (int ring = 0;; ++ring) {
    // Once the block would span more cells than the index holds entries,
    // scanning every entry is cheaper, and just as exact.
    const auto side = static_cast<std::size_t>(2 * ring + 1);
    if (side * side > size()) {
      top.clear();
      for (const Entry& e : entries_) {
        top.offer(tl::util::squared_distance_km2(e.point, p), e.item);
      }
      return;
    }
    // Ring `ring`: the rows cy -/+ ring across [cx - ring, cx + ring], then
    // the columns cx -/+ ring between them, clipped to the grid.
    const int x0 = std::max(cx - ring, 0);
    const int x1 = std::min(cx + ring, nx_ - 1);
    if (cy - ring >= 0) offer_row(cy - ring, x0, x1, p, top);
    if (ring > 0 && cy + ring < ny_) offer_row(cy + ring, x0, x1, p, top);
    for (int y = std::max(cy - ring + 1, 0); y <= std::min(cy + ring - 1, ny_ - 1); ++y) {
      if (cx - ring >= 0) offer_row(y, cx - ring, cx - ring, p, top);
      if (ring > 0 && cx + ring < nx_) offer_row(y, cx + ring, cx + ring, p, top);
    }

    // Every unsearched cell lies beyond one side of the searched block that
    // still has cells behind it, so its entries are at least that side's
    // distance from p away.
    double gap = std::numeric_limits<double>::infinity();
    if (cx - ring > 0) gap = std::min(gap, p.x_km - (cx - ring) * cell_km_);
    if (cx + ring < nx_ - 1) gap = std::min(gap, (cx + ring + 1) * cell_km_ - p.x_km);
    if (cy - ring > 0) gap = std::min(gap, p.y_km - (cy - ring) * cell_km_);
    if (cy + ring < ny_ - 1) gap = std::min(gap, (cy + ring + 1) * cell_km_ - p.y_km);
    if (gap == std::numeric_limits<double>::infinity()) return;  // whole grid searched
    const double safe_gap = gap - kSlackKm;
    // Strictly below: an unsearched entry at exactly the k-th distance could
    // still win the tie on its item.
    if (top.full() && safe_gap > 0.0 && top.worst_d2() < safe_gap * safe_gap) return;
  }
}

void SpatialIndex::build_candidates() {
  // The distance d(q) from a position q to its kTableK-th nearest entry is
  // 1-Lipschitz, so for every q in a cell d(q) <= d(centre) + half_diagonal.
  // Any entry among q's kTableK nearest is within d(q) of q, hence within
  // that reach of the cell's rectangle. With no more than kTableK entries,
  // every cell lists them all.
  const double half_diagonal = cell_km_ * std::sqrt(0.5);
  std::array<TopK::Slot, kTableK> slots;
  std::vector<std::uint32_t> list;
  cell_slots_.reserve(cell_start_.size() - 1);
  slot_start_.push_back(0);
  for (int y = 0; y < ny_; ++y) {
    for (int x = 0; x < nx_; ++x) {
      const double x_lo = x * cell_km_;
      const double y_lo = y * cell_km_;
      double reach = std::numeric_limits<double>::infinity();
      if (size() > kTableK) {
        TopK top{slots};
        search_rings({x_lo + 0.5 * cell_km_, y_lo + 0.5 * cell_km_}, top);
        reach = std::sqrt(top.worst_d2()) + half_diagonal + kSlackKm;
      }
      list.clear();
      const int row_hi = row_of(y_lo + cell_km_ + reach);
      const int col_lo = column_of(x_lo - reach);
      const int col_hi = column_of(x_lo + cell_km_ + reach);
      for (int row = row_of(y_lo - reach); row <= row_hi; ++row) {
        const auto [begin, end] = row_entries(row, col_lo, col_hi);
        for (std::uint32_t i = begin; i < end; ++i) {
          if (square_d2(entries_[i].point, x_lo, y_lo, cell_km_) <= reach * reach) {
            list.push_back(i);
          }
        }
      }
      // Split a long list into about one sub-cell per kTableK entries.
      const auto side = list.size() <= kSplitAbove
                            ? 1u
                            : std::min(kMaxSplitSide,
                                       static_cast<std::uint32_t>(std::ceil(std::sqrt(
                                           static_cast<double>(list.size()) / kTableK))));
      const std::size_t first_slot = slot_start_.size() - 1;
      if (first_slot > (std::numeric_limits<std::uint32_t>::max() >> kSideBits)) {
        throw std::length_error{"SpatialIndex: candidate table too large"};
      }
      cell_slots_.push_back(static_cast<std::uint32_t>(first_slot) << kSideBits | side);
      if (side == 1) {
        candidates_.insert(candidates_.end(), list.begin(), list.end());
        slot_start_.push_back(static_cast<std::uint32_t>(candidates_.size()));
      } else {
        split_cell(x_lo, y_lo, side, list);
      }
    }
  }
}

void SpatialIndex::split_cell(double x_lo, double y_lo, std::uint32_t side,
                              std::span<const std::uint32_t> list) {
  // The same bound one level down. Every sub-cell centre lies in the cell,
  // so the cell's list holds the centre's kTableK nearest and gives
  // d(centre). For q in the sub-cell, d(q) <= d(centre) + the sub-cell's
  // half-diagonal, so the part of the list within that reach of the
  // sub-cell's rectangle holds q's kTableK nearest.
  const double sub_km = cell_km_ / side;
  const double half_diagonal = sub_km * std::sqrt(0.5);
  std::vector<GeoPoint> points;
  points.reserve(list.size());
  for (const std::uint32_t i : list) points.push_back(entries_[i].point);
  for (std::uint32_t sy = 0; sy < side; ++sy) {
    for (std::uint32_t sx = 0; sx < side; ++sx) {
      const double sx_lo = x_lo + sx * sub_km;
      const double sy_lo = y_lo + sy * sub_km;
      const GeoPoint centre{sx_lo + 0.5 * sub_km, sy_lo + 0.5 * sub_km};
      // d(centre)^2: the kTableK-th smallest squared distance (ties do not
      // matter for its value), kept ascending in `best`.
      std::array<double, kTableK> best;
      best.fill(std::numeric_limits<double>::infinity());
      for (const GeoPoint& e : points) {
        double d2 = tl::util::squared_distance_km2(e, centre);
        for (double& b : best) {
          const double lower = std::min(b, d2);
          d2 = std::max(b, d2);
          b = lower;
        }
      }
      const double reach = std::sqrt(best.back()) + half_diagonal + kSlackKm;
      for (std::size_t j = 0; j < points.size(); ++j) {
        if (square_d2(points[j], sx_lo, sy_lo, sub_km) <= reach * reach) {
          candidates_.push_back(list[j]);
        }
      }
      slot_start_.push_back(static_cast<std::uint32_t>(candidates_.size()));
    }
  }
}

std::vector<std::uint32_t> SpatialIndex::query_radius(const GeoPoint& p,
                                                      double radius_km) const {
  std::vector<std::uint32_t> out;
  const double r2 = radius_km * radius_km;
  const double reach = radius_km + kSlackKm;
  const int col_lo = column_of(p.x_km - reach);
  const int col_hi = column_of(p.x_km + reach);
  const int row_hi = row_of(p.y_km + reach);
  for (int row = row_of(p.y_km - reach); row <= row_hi; ++row) {
    const auto [begin, end] = row_entries(row, col_lo, col_hi);
    for (std::uint32_t i = begin; i < end; ++i) {
      if (tl::util::squared_distance_km2(entries_[i].point, p) <= r2) {
        out.push_back(entries_[i].item);
      }
    }
  }
  return out;
}

std::size_t SpatialIndex::nearest_k(const GeoPoint& p, std::span<std::uint32_t> out) const {
  const std::size_t k = std::min(out.size(), size());
  if (k == 0) return 0;
  std::array<TopK::Slot, kInlineK> inline_slots;
  std::vector<TopK::Slot> heap_slots(k > kInlineK ? k : 0);
  TopK top{k > kInlineK ? std::span<TopK::Slot>{heap_slots}
                        : std::span<TopK::Slot>{inline_slots}.first(k)};
  const double fx = std::floor(p.x_km / cell_km_);
  const double fy = std::floor(p.y_km / cell_km_);
  if (k <= kTableK && fx >= 0.0 && fx < nx_ && fy >= 0.0 && fy < ny_) {
    const std::uint32_t cell = cell_slots_[static_cast<std::size_t>(fy) *
                                               static_cast<std::size_t>(nx_) +
                                           static_cast<std::size_t>(fx)];
    std::size_t slot = cell >> kSideBits;
    const std::uint32_t side = cell & kSideMask;
    if (side > 1) {
      // The sub-cell holding p, clamped so rounding keeps it in the cell.
      const double sub_km = cell_km_ / side;
      const auto sub = [&](double offset_km) {
        return std::min(static_cast<std::uint32_t>(std::max(offset_km / sub_km, 0.0)),
                        side - 1);
      };
      slot += sub(p.y_km - fy * cell_km_) * side + sub(p.x_km - fx * cell_km_);
    }
    for (std::uint32_t i = slot_start_[slot]; i < slot_start_[slot + 1]; ++i) {
      const Entry& e = entries_[candidates_[i]];
      top.offer(tl::util::squared_distance_km2(e.point, p), e.item);
    }
  } else {
    search_rings(p, top);
  }
  for (std::size_t i = 0; i < top.size(); ++i) out[i] = top.item(i);
  return top.size();
}

std::uint32_t SpatialIndex::nearest(const GeoPoint& p) const {
  std::uint32_t item = kNotFound;
  nearest_k(p, std::span<std::uint32_t>{&item, 1});
  return item;
}

std::vector<std::uint32_t> SpatialIndex::nearest_k(const GeoPoint& p, std::size_t k) const {
  std::vector<std::uint32_t> out(std::min(k, size()));
  out.resize(nearest_k(p, std::span<std::uint32_t>{out}));
  return out;
}

}  // namespace tl::geo
