#include "analysis/quantile_sketch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/byte_codec.hpp"

namespace tl::analysis {
namespace {

constexpr std::uint8_t kSerialVersion = 1;
constexpr char kSerialMagic[4] = {'T', 'L', 'Q', 'S'};
// Far beyond any state this process could hold; lets deserialize reject
// garbage lengths before allocating.
constexpr std::uint32_t kMaxLevels = 64;
constexpr std::uint32_t kMaxK = 1u << 20;

constexpr const char* kMalformed = "QuantileSketch::deserialize: malformed input";

[[noreturn]] void corrupt() { throw std::runtime_error{kMalformed}; }

using util::put_f64;
using util::put_u32;
using util::put_u64;

}  // namespace

QuantileSketch::QuantileSketch(std::size_t k) : k_(k) {
  if (k_ < 4 || (k_ % 2) != 0) {
    throw std::invalid_argument{"QuantileSketch: k must be even and >= 4"};
  }
  base_.reserve(k_);
}

double QuantileSketch::min() const noexcept {
  return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
}
double QuantileSketch::max() const noexcept {
  return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
}
double QuantileSketch::mean() const noexcept {
  return count_ ? sum_ / static_cast<double>(count_)
                : std::numeric_limits<double>::quiet_NaN();
}

void QuantileSketch::insert(double x) {
  if (std::isnan(x)) {
    ++nan_count_;
    return;
  }
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  base_.push_back(x);
  if (base_.size() == k_) {
    std::vector<double> full = std::move(base_);
    base_.clear();
    base_.reserve(k_);
    std::sort(full.begin(), full.end());
    promote(std::move(full), 0, 0);
  }
}

void QuantileSketch::promote(std::vector<double> buffer, std::size_t level,
                             std::uint64_t error) {
  while (true) {
    if (levels_.size() <= level) levels_.resize(level + 1);
    Level& slot = levels_[level];
    if (slot.items.empty()) {
      slot.items = std::move(buffer);
      slot.error = error;
      return;
    }
    // Collapse: merge the resident and incoming weight-2^level buffers and
    // keep alternate positions of the merged run. Keeping parity p turns a
    // weighted rank w*c into 2w*(kept <= x), off by at most w — hence the
    // +weight in the certified error. The parity flip makes successive
    // collapses cancel instead of drift.
    std::vector<double> merged;
    merged.resize(2 * k_);
    std::merge(slot.items.begin(), slot.items.end(), buffer.begin(), buffer.end(),
               merged.begin());
    std::vector<double> kept;
    kept.reserve(k_);
    for (std::size_t i = slot.parity; i < merged.size(); i += 2) kept.push_back(merged[i]);
    const std::uint64_t weight = std::uint64_t{1} << level;
    error = slot.error + error + weight;
    slot.parity ^= 1;
    slot.items.clear();
    slot.error = 0;
    buffer = std::move(kept);
    ++level;
  }
}

void QuantileSketch::merge(const QuantileSketch& other_in) {
  if (other_in.k_ != k_) {
    throw std::logic_error{"QuantileSketch::merge: mismatched k"};
  }
  // Self-merge reads state while promote() mutates it; work from a copy.
  const QuantileSketch copy = (&other_in == this) ? other_in : QuantileSketch{k_};
  const QuantileSketch& other = (&other_in == this) ? copy : other_in;
  if (other.count_ == 0 && other.nan_count_ == 0) return;

  nan_count_ += other.nan_count_;
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }
  // Base items stream in (no scalar updates — those were folded above).
  for (const double x : other.base_) {
    base_.push_back(x);
    if (base_.size() == k_) {
      std::vector<double> full = std::move(base_);
      base_.clear();
      base_.reserve(k_);
      std::sort(full.begin(), full.end());
      promote(std::move(full), 0, 0);
    }
  }
  // Buffers travel whole, carrying their certified errors.
  for (std::size_t level = 0; level < other.levels_.size(); ++level) {
    const Level& src = other.levels_[level];
    if (!src.items.empty()) promote(src.items, level, src.error);
  }
}

double QuantileSketch::estimated_rank(double x) const noexcept {
  double rank = 0.0;
  for (const double v : base_) {
    if (v <= x) rank += 1.0;
  }
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    const Level& slot = levels_[level];
    if (slot.items.empty()) continue;
    const auto it = std::upper_bound(slot.items.begin(), slot.items.end(), x);
    rank += static_cast<double>(std::uint64_t{1} << level) *
            static_cast<double>(it - slot.items.begin());
  }
  return rank;
}

std::uint64_t QuantileSketch::total_error() const noexcept {
  std::uint64_t e = 0;
  for (const Level& slot : levels_) {
    if (!slot.items.empty()) e += slot.error;
  }
  return e;
}

std::uint64_t QuantileSketch::heaviest_weight() const noexcept {
  std::uint64_t w = 1;
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    if (!levels_[level].items.empty()) w = std::uint64_t{1} << level;
  }
  return w;
}

double QuantileSketch::rank_error_bound() const noexcept {
  if (count_ == 0) return 0.0;
  return static_cast<double>(total_error()) / static_cast<double>(count_);
}

double QuantileSketch::quantile_rank_error_bound() const noexcept {
  if (count_ == 0) return 0.0;
  return (static_cast<double>(total_error()) + static_cast<double>(heaviest_weight())) /
         static_cast<double>(count_);
}

std::size_t QuantileSketch::stored_items() const noexcept {
  std::size_t n = base_.size();
  for (const Level& slot : levels_) n += slot.items.size();
  return n;
}

double QuantileSketch::cdf(double x) const {
  if (count_ == 0) throw std::logic_error{"QuantileSketch::cdf: empty sketch"};
  return estimated_rank(x) / static_cast<double>(count_);
}

std::vector<std::pair<double, std::uint64_t>> QuantileSketch::weighted_sorted() const {
  std::vector<std::pair<double, std::uint64_t>> items;
  items.reserve(stored_items());
  for (const double v : base_) items.emplace_back(v, 1);
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    for (const double v : levels_[level].items) {
      items.emplace_back(v, std::uint64_t{1} << level);
    }
  }
  std::sort(items.begin(), items.end());
  return items;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) throw std::logic_error{"QuantileSketch::quantile: empty sketch"};
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument{"QuantileSketch::quantile: q outside [0, 1]"};
  }
  if (q == 0.0) return min_;
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (const auto& [value, weight] : weighted_sorted()) {
    cumulative += weight;
    if (static_cast<double>(cumulative) >= target) {
      return std::clamp(value, min_, max_);
    }
  }
  return max_;
}

std::vector<QuantileSketch::CurvePoint> QuantileSketch::curve(std::size_t points) const {
  std::vector<CurvePoint> out;
  if (count_ == 0 || points == 0) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = points == 1 ? 1.0
                                 : static_cast<double>(i) /
                                       static_cast<double>(points - 1);
    const double x = quantile(q);
    out.push_back({x, cdf(x)});
  }
  return out;
}

void QuantileSketch::serialize(std::vector<std::uint8_t>& out) const {
  out.insert(out.end(), kSerialMagic, kSerialMagic + sizeof kSerialMagic);
  out.push_back(kSerialVersion);
  put_u32(out, static_cast<std::uint32_t>(k_));
  put_u64(out, count_);
  put_u64(out, nan_count_);
  put_f64(out, min_);
  put_f64(out, max_);
  put_f64(out, sum_);
  put_u32(out, static_cast<std::uint32_t>(base_.size()));
  for (const double v : base_) put_f64(out, v);
  put_u32(out, static_cast<std::uint32_t>(levels_.size()));
  for (const Level& slot : levels_) {
    out.push_back(slot.items.empty() ? 0 : 1);
    out.push_back(slot.parity);
    put_u64(out, slot.error);
    for (const double v : slot.items) put_f64(out, v);
  }
}

QuantileSketch QuantileSketch::deserialize(std::span<const std::uint8_t> bytes,
                                           std::size_t& offset) {
  util::ByteReader r{bytes, offset, kMalformed};
  r.need(sizeof kSerialMagic + 1);
  for (const char c : kSerialMagic) {
    if (r.u8() != static_cast<std::uint8_t>(c)) corrupt();
  }
  if (r.u8() != kSerialVersion) corrupt();
  const std::uint32_t k = r.u32();
  if (k < 4 || (k % 2) != 0 || k > kMaxK) corrupt();
  QuantileSketch sketch{k};
  sketch.count_ = r.u64();
  sketch.nan_count_ = r.u64();
  sketch.min_ = r.f64();
  sketch.max_ = r.f64();
  sketch.sum_ = r.f64();
  const std::uint32_t base_size = r.u32();
  if (base_size >= k) corrupt();
  sketch.base_.reserve(k);
  for (std::uint32_t i = 0; i < base_size; ++i) {
    const double v = r.f64();
    if (std::isnan(v)) corrupt();
    sketch.base_.push_back(v);
  }
  const std::uint32_t level_count = r.u32();
  if (level_count > kMaxLevels) corrupt();
  std::uint64_t weighted = base_size;
  sketch.levels_.resize(level_count);
  for (std::uint32_t level = 0; level < level_count; ++level) {
    Level& slot = sketch.levels_[level];
    const std::uint8_t occupied = r.u8();
    if (occupied > 1) corrupt();
    slot.parity = r.u8();
    if (slot.parity > 1) corrupt();
    slot.error = r.u64();
    if (occupied) {
      slot.items.reserve(k);
      double prev = -std::numeric_limits<double>::infinity();
      for (std::uint32_t i = 0; i < k; ++i) {
        const double v = r.f64();
        if (std::isnan(v) || v < prev) corrupt();  // buffers are sorted
        slot.items.push_back(v);
        prev = v;
      }
      weighted += (std::uint64_t{1} << level) * k;
    } else if (slot.error != 0) {
      corrupt();
    }
  }
  // Collapses conserve weighted item count exactly; a mismatch means the
  // payload does not describe a sketch this code could have produced.
  if (weighted != sketch.count_) corrupt();
  if (sketch.count_ > 0 &&
      (std::isnan(sketch.min_) || std::isnan(sketch.max_) || sketch.min_ > sketch.max_)) {
    corrupt();
  }
  offset = r.pos;
  return sketch;
}

QuantileSketch QuantileSketch::deserialize(std::span<const std::uint8_t> bytes) {
  std::size_t offset = 0;
  QuantileSketch sketch = deserialize(bytes, offset);
  if (offset != bytes.size()) corrupt();
  return sketch;
}

}  // namespace tl::analysis
