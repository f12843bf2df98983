#include "telemetry/aggregates.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace tl::telemetry {

// --- TemporalAggregator ------------------------------------------------------

TemporalAggregator::TemporalAggregator(std::size_t n_sectors, int days)
    : n_sectors_(n_sectors), days_(days) {
  const std::size_t bins = static_cast<std::size_t>(days) * 48u;
  for (auto& v : ho_) v.assign(bins, 0);
  for (auto& v : hof_) v.assign(bins, 0);
  for (auto& v : seen_) v.resize(bins);
}

void TemporalAggregator::consume(const HandoverRecord& record) {
  const int day = record.day();
  if (day < 0 || day >= days_) return;
  const std::size_t bin = index(day, util::SimCalendar::half_hour_bin(record.timestamp));
  const auto area = static_cast<std::size_t>(record.area);
  ++ho_[area][bin];
  if (!record.success) ++hof_[area][bin];
  auto& bitmap = seen_[area][bin];
  if (bitmap.empty()) bitmap.assign(n_sectors_, false);
  if (record.source_sector < n_sectors_) bitmap[record.source_sector] = true;
}

const std::vector<std::uint64_t>& TemporalAggregator::ho_series(geo::AreaType area) const {
  return ho_[static_cast<std::size_t>(area)];
}

const std::vector<std::uint64_t>& TemporalAggregator::hof_series(geo::AreaType area) const {
  return hof_[static_cast<std::size_t>(area)];
}

std::vector<std::uint32_t> TemporalAggregator::active_sector_series(
    geo::AreaType area) const {
  const auto& bins = seen_[static_cast<std::size_t>(area)];
  std::vector<std::uint32_t> out(bins.size(), 0);
  for (std::size_t b = 0; b < bins.size(); ++b) {
    out[b] = static_cast<std::uint32_t>(std::count(bins[b].begin(), bins[b].end(), true));
  }
  return out;
}

std::array<std::vector<double>, 2> TemporalAggregator::hourly_hof_per_active_sector()
    const {
  std::array<std::vector<double>, 2> out;
  for (std::size_t area = 0; area < 2; ++area) {
    const auto active = active_sector_series(static_cast<geo::AreaType>(area));
    std::vector<double> hof_by_hour(24, 0.0);
    std::vector<double> active_by_hour(24, 0.0);
    for (int day = 0; day < days_; ++day) {
      for (int bin = 0; bin < 48; ++bin) {
        const std::size_t idx = index(day, bin);
        hof_by_hour[bin / 2] += static_cast<double>(hof_[area][idx]);
        active_by_hour[bin / 2] += static_cast<double>(active[idx]);
      }
    }
    out[area].resize(24);
    for (int h = 0; h < 24; ++h) {
      out[area][h] =
          active_by_hour[h] > 0.0 ? hof_by_hour[h] / (active_by_hour[h] / 2.0) : 0.0;
    }
  }
  return out;
}

// --- SectorDayAggregator -----------------------------------------------------

SectorDayAggregator::SectorDayAggregator(std::size_t n_sectors, int days)
    : n_sectors_(n_sectors), days_(days) {
  cells_.assign(n_sectors_ * static_cast<std::size_t>(days) * 3u, {});
}

void SectorDayAggregator::consume(const HandoverRecord& record) {
  const int day = record.day();
  if (day < 0 || day >= days_ || record.source_sector >= n_sectors_) return;
  Cell& cell =
      cells_[index(record.source_sector, day, static_cast<int>(record.target_rat))];
  ++cell.hos;
  ++total_hos_;
  if (!record.success) {
    ++cell.hofs;
    ++total_hofs_;
  }
}

std::vector<SectorDayAggregator::Observation> SectorDayAggregator::observations() const {
  std::vector<Observation> out;
  for (std::size_t sector = 0; sector < n_sectors_; ++sector) {
    for (int day = 0; day < days_; ++day) {
      for (int rat = 0; rat < 3; ++rat) {
        const Cell& cell = cells_[index(static_cast<topology::SectorId>(sector), day, rat)];
        if (cell.hos == 0) continue;
        Observation obs;
        obs.sector = static_cast<topology::SectorId>(sector);
        obs.day = day;
        obs.target = static_cast<topology::ObservedRat>(rat);
        obs.handovers = cell.hos;
        obs.failures = cell.hofs;
        obs.hof_rate_pct =
            100.0 * static_cast<double>(cell.hofs) / static_cast<double>(cell.hos);
        out.push_back(obs);
      }
    }
  }
  return out;
}

// --- DistrictAggregator ------------------------------------------------------

DistrictAggregator::DistrictAggregator(std::size_t n_districts,
                                       std::size_t n_manufacturers)
    : n_manufacturers_(n_manufacturers) {
  districts_.resize(n_districts);
  makers_.resize(n_districts * n_manufacturers);
}

void DistrictAggregator::consume(const HandoverRecord& record) {
  if (record.district >= districts_.size()) return;
  DistrictTally& d = districts_[record.district];
  ++d.handovers;
  ++d.by_target[static_cast<std::size_t>(record.target_rat)];
  ++d.hos_by_type[static_cast<std::size_t>(record.device_type)];
  if (!record.success) {
    ++d.failures;
    ++d.hofs_by_type[static_cast<std::size_t>(record.device_type)];
  }
  if (record.manufacturer < n_manufacturers_) {
    MakerTally& m =
        makers_[record.district * n_manufacturers_ + record.manufacturer];
    ++m.handovers;
    if (!record.success) ++m.failures;
  }
}

const DistrictAggregator::MakerTally& DistrictAggregator::maker(
    geo::DistrictId d, devices::ManufacturerId m) const {
  return makers_.at(static_cast<std::size_t>(d) * n_manufacturers_ + m);
}

// --- CauseAggregator ---------------------------------------------------------

std::size_t CauseAggregator::bucket_of(corenet::CauseId cause) noexcept {
  return corenet::is_dominant_cause(cause) ? static_cast<std::size_t>(cause - 1) : 8u;
}

const char* CauseAggregator::bucket_label(std::size_t bucket) noexcept {
  static const char* const kLabels[kBuckets] = {
      "Cause #1 (source canceled)",   "Cause #2 (interfering Initial UE)",
      "Cause #3 (invalid target ID)", "Cause #4 (target overload)",
      "Cause #5 (MME-detected)",      "Cause #6 (SRVCC not subscribed)",
      "Cause #7 (PS-to-CS failure)",  "Cause #8 (relocation timeout)",
      "long tail (vendor sub-causes)"};
  return bucket < kBuckets ? kLabels[bucket] : "?";
}

CauseAggregator::CauseAggregator(int days, std::size_t n_manufacturers)
    : days_(days), n_manufacturers_(n_manufacturers) {
  per_day_bucket_.assign(static_cast<std::size_t>(days) * kBuckets, 0);
  per_day_total_.assign(static_cast<std::size_t>(days), 0);
  by_maker_area_.assign(n_manufacturers * 2 * kBuckets, 0);
  durations_.reserve(kBuckets);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    durations_.emplace_back(kDurationSamples, 0xd0b0 + b);
  }
}

void CauseAggregator::consume(const HandoverRecord& record) {
  if (record.success) return;
  const int day = record.day();
  if (day < 0 || day >= days_) return;
  const std::size_t bucket = bucket_of(record.cause);
  ++total_failures_;
  ++bucket_[bucket];
  ++per_day_bucket_[static_cast<std::size_t>(day) * kBuckets + bucket];
  ++per_day_total_[static_cast<std::size_t>(day)];
  ++by_target_[static_cast<std::size_t>(record.target_rat)];
  ++by_area_[static_cast<std::size_t>(record.area)][bucket];
  ++by_device_[static_cast<std::size_t>(record.device_type)][bucket];
  if (record.manufacturer < n_manufacturers_) {
    ++by_maker_area_[(static_cast<std::size_t>(record.manufacturer) * 2u +
                      static_cast<std::size_t>(record.area)) *
                         kBuckets +
                     bucket];
  }
  durations_[bucket].add(record.duration_ms);
  seen_causes_.set(record.cause);
}

std::size_t CauseAggregator::distinct_causes() const { return seen_causes_.count(); }

CauseAggregator::DailyShare CauseAggregator::daily_share(std::size_t bucket) const {
  if (bucket >= kBuckets) throw std::out_of_range{"CauseAggregator::daily_share"};
  DailyShare s;
  s.min = 1.0;
  s.max = 0.0;
  double sum = 0.0;
  int counted = 0;
  for (int day = 0; day < days_; ++day) {
    const std::uint64_t total = per_day_total_[static_cast<std::size_t>(day)];
    if (total == 0) continue;
    const double share =
        static_cast<double>(per_day_bucket_[static_cast<std::size_t>(day) * kBuckets +
                                            bucket]) /
        static_cast<double>(total);
    s.min = std::min(s.min, share);
    s.max = std::max(s.max, share);
    sum += share;
    ++counted;
  }
  if (counted == 0) return {};
  s.mean = sum / counted;
  return s;
}

std::uint64_t CauseAggregator::by_maker_area(devices::ManufacturerId maker,
                                             geo::AreaType area,
                                             std::size_t bucket) const {
  return by_maker_area_.at((static_cast<std::size_t>(maker) * 2u +
                            static_cast<std::size_t>(area)) *
                               kBuckets +
                           bucket);
}

// --- TypeMixAggregator -------------------------------------------------------

TypeMixAggregator::TypeMixAggregator(int days) : days_(days) {
  cells_.assign(static_cast<std::size_t>(days) * 9u, 0);
  day_totals_.assign(static_cast<std::size_t>(days), 0);
}

void TypeMixAggregator::consume(const HandoverRecord& record) {
  const int day = record.day();
  if (day < 0 || day >= days_) return;
  ++cells_[index(day, static_cast<std::size_t>(record.device_type),
                 static_cast<std::size_t>(record.target_rat))];
  ++day_totals_[static_cast<std::size_t>(day)];
  ++total_;
}

std::uint64_t TypeMixAggregator::count(devices::DeviceType type,
                                       topology::ObservedRat target) const {
  std::uint64_t sum = 0;
  for (int day = 0; day < days_; ++day) {
    sum += cells_[index(day, static_cast<std::size_t>(type),
                        static_cast<std::size_t>(target))];
  }
  return sum;
}

TypeMixAggregator::Share TypeMixAggregator::daily_share(
    devices::DeviceType type, topology::ObservedRat target) const {
  Share s;
  s.min = 1.0;
  s.max = 0.0;
  double sum = 0.0;
  int counted = 0;
  for (int day = 0; day < days_; ++day) {
    const std::uint64_t total = day_totals_[static_cast<std::size_t>(day)];
    if (total == 0) continue;
    const double share = static_cast<double>(cells_[index(
                             day, static_cast<std::size_t>(type),
                             static_cast<std::size_t>(target))]) /
                         static_cast<double>(total);
    s.min = std::min(s.min, share);
    s.max = std::max(s.max, share);
    sum += share;
    ++counted;
  }
  if (counted == 0) return {};
  s.mean = sum / counted;
  return s;
}

// --- DurationAggregator ------------------------------------------------------

DurationAggregator::DurationAggregator()
    : reservoirs_{util::ReservoirSample{kSamplesPerClass, 0xd1},
                  util::ReservoirSample{kSamplesPerClass, 0xd2},
                  util::ReservoirSample{kSamplesPerClass, 0xd3}} {}

void DurationAggregator::consume(const HandoverRecord& record) {
  if (!record.success) return;
  reservoirs_[static_cast<std::size_t>(record.target_rat)].add(record.duration_ms);
}

// --- IncidentWindowAggregator ------------------------------------------------

IncidentWindowAggregator::IncidentWindowAggregator(util::TimestampMs window_start,
                                                   util::TimestampMs window_end,
                                                   std::size_t n_sectors)
    : start_(window_start),
      end_(window_end),
      n_sectors_(n_sectors),
      by_source_(n_sectors * 3),
      by_target_(n_sectors * 3, 0) {}

void IncidentWindowAggregator::consume(const HandoverRecord& record) {
  const auto phase = static_cast<std::size_t>(phase_of(record.timestamp));
  auto& nat = national_[phase];
  ++nat.handovers;
  if (!record.success) ++nat.failures;
  if (record.source_sector < n_sectors_) {
    auto& src = by_source_[static_cast<std::size_t>(record.source_sector) * 3 + phase];
    ++src.handovers;
    if (!record.success) ++src.failures;
  }
  if (record.target_sector < n_sectors_) {
    ++by_target_[static_cast<std::size_t>(record.target_sector) * 3 + phase];
  }
}

const IncidentWindowAggregator::Tally& IncidentWindowAggregator::sourced_at(
    topology::SectorId sector, Phase phase) const {
  return by_source_.at(static_cast<std::size_t>(sector) * 3 +
                       static_cast<std::size_t>(phase));
}

std::uint64_t IncidentWindowAggregator::targeting(topology::SectorId sector,
                                                  Phase phase) const {
  return by_target_.at(static_cast<std::size_t>(sector) * 3 +
                       static_cast<std::size_t>(phase));
}

void UeDayStore::consume(const UeDayMetrics& metrics) {
  const auto before = [](const UeDayMetrics& a, const UeDayMetrics& b) {
    return std::tie(a.day, a.ue) < std::tie(b.day, b.ue);
  };
  // A day emits its UEs in order, so a new row almost always goes last.
  if (rows_.empty() || before(rows_.back(), metrics)) {
    rows_.push_back(metrics);
    return;
  }
  const auto it = std::lower_bound(rows_.begin(), rows_.end(), metrics, before);
  if (it != rows_.end() && !before(metrics, *it)) {
    *it = metrics;
  } else {
    rows_.insert(it, metrics);
  }
}

}  // namespace tl::telemetry
