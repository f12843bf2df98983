#pragma once

// Streaming aggregators over the record stream. Each one reduces exactly
// what one family of figures/tables needs, in bounded memory.

#include <array>
#include <bitset>
#include <cstdint>
#include <limits>
#include <vector>

#include "geo/country.hpp"
#include "telemetry/sinks.hpp"
#include "topology/deployment.hpp"
#include "util/accumulator.hpp"

namespace tl::telemetry {

/// Fig. 7 / Fig. 12: HO and HOF counts per 30-minute bin and area class,
/// plus the count of distinct HO-handling ("active") sectors per bin.
class TemporalAggregator : public RecordSink {
 public:
  TemporalAggregator(std::size_t n_sectors, int days);

  void consume(const HandoverRecord& record) override;

  /// Handover counts per 30-min bin over the whole study, per area class.
  const std::vector<std::uint64_t>& ho_series(geo::AreaType area) const;
  const std::vector<std::uint64_t>& hof_series(geo::AreaType area) const;
  /// Number of distinct sectors that handled >= 1 HO in each bin (computed
  /// from the per-bin membership bitmaps; records may arrive in any order).
  std::vector<std::uint32_t> active_sector_series(geo::AreaType area) const;

  /// HOF counts aggregated per hour of day [0,24), normalized by the mean
  /// number of active sectors of that class in the hour (Fig. 12's y-axis).
  std::array<std::vector<double>, 2> hourly_hof_per_active_sector() const;

  int days() const noexcept { return days_; }

 private:
  std::size_t index(int day, int bin) const noexcept {
    return static_cast<std::size_t>(day) * 48u + static_cast<std::size_t>(bin);
  }

  std::size_t n_sectors_;
  int days_;
  std::array<std::vector<std::uint64_t>, 2> ho_;   // [area][day*48+bin]
  std::array<std::vector<std::uint64_t>, 2> hof_;  // [area][day*48+bin]
  // Per-bin sector-membership bitmaps, allocated lazily on first record.
  std::array<std::vector<std::vector<bool>>, 2> seen_;
};

/// §6.3 / Tables 3-9: the sector-day modeling dataset. One observation per
/// (source sector, day, target RAT class) with its HO and HOF counts.
class SectorDayAggregator : public RecordSink {
 public:
  SectorDayAggregator(std::size_t n_sectors, int days);

  void consume(const HandoverRecord& record) override;

  struct Observation {
    topology::SectorId sector = 0;
    int day = 0;
    topology::ObservedRat target = topology::ObservedRat::kG45Nsa;
    std::uint32_t handovers = 0;
    std::uint32_t failures = 0;
    /// HOF rate in percent, as the paper's dataset records it.
    double hof_rate_pct = 0.0;
  };

  /// Materializes all non-empty observations.
  std::vector<Observation> observations() const;

  std::uint64_t total_handovers() const noexcept { return total_hos_; }
  std::uint64_t total_failures() const noexcept { return total_hofs_; }

 private:
  struct Cell {
    std::uint32_t hos = 0;
    std::uint32_t hofs = 0;
  };
  std::size_t index(topology::SectorId sector, int day, int rat) const noexcept {
    return (static_cast<std::size_t>(sector) * static_cast<std::size_t>(days_) +
            static_cast<std::size_t>(day)) *
               3u +
           static_cast<std::size_t>(rat);
  }

  std::size_t n_sectors_;
  int days_;
  std::vector<Cell> cells_;
  std::uint64_t total_hos_ = 0;
  std::uint64_t total_hofs_ = 0;
};

/// Figs. 6, 9, 11: district-level tallies, including per-manufacturer HO
/// and HOF counts for the normalized district-level comparison.
class DistrictAggregator : public RecordSink {
 public:
  DistrictAggregator(std::size_t n_districts, std::size_t n_manufacturers);

  void consume(const HandoverRecord& record) override;

  struct DistrictTally {
    std::uint64_t handovers = 0;
    std::uint64_t failures = 0;
    std::array<std::uint64_t, 3> by_target{};  // indexed by ObservedRat
    // Per device type, for the within-type manufacturer normalization of
    // Fig. 11 (comparing an IoT module against smartphones would conflate
    // observability with behaviour).
    std::array<std::uint64_t, 3> hos_by_type{};
    std::array<std::uint64_t, 3> hofs_by_type{};
  };
  const DistrictTally& district(geo::DistrictId d) const { return districts_.at(d); }
  std::size_t district_count() const noexcept { return districts_.size(); }

  struct MakerTally {
    std::uint64_t handovers = 0;
    std::uint64_t failures = 0;
  };
  const MakerTally& maker(geo::DistrictId d, devices::ManufacturerId m) const;

 private:
  std::size_t n_manufacturers_;
  std::vector<DistrictTally> districts_;
  std::vector<MakerTally> makers_;  // [district * n_manufacturers + maker]
};

/// Figs. 14, 15: failure-cause tallies — per cause, per day (min/max bands),
/// per target RAT, and cross-tabulated by area / device type / manufacturer.
class CauseAggregator : public RecordSink {
 public:
  CauseAggregator(int days, std::size_t n_manufacturers);

  /// Reservoir capacity per bucket for the signaling times.
  static constexpr std::size_t kDurationSamples = 20'000;

  void consume(const HandoverRecord& record) override;

  /// Bucket 0..7 = dominant causes #1..#8; bucket 8 = the vendor tail.
  static constexpr std::size_t kBuckets = 9;
  static std::size_t bucket_of(corenet::CauseId cause) noexcept;
  static const char* bucket_label(std::size_t bucket) noexcept;

  std::uint64_t total_failures() const noexcept { return total_failures_; }
  std::array<std::uint64_t, kBuckets> totals_by_bucket() const noexcept { return bucket_; }
  /// Distinct cause ids observed (the paper's "1k+ causes").
  std::size_t distinct_causes() const;

  /// Daily share of a bucket among the day's failures; min/mean/max across days.
  struct DailyShare {
    double min = 0, mean = 0, max = 0;
  };
  DailyShare daily_share(std::size_t bucket) const;

  std::array<std::uint64_t, 3> failures_by_target() const noexcept { return by_target_; }
  /// [area][bucket] failure counts.
  const std::array<std::array<std::uint64_t, kBuckets>, 2>& by_area() const noexcept {
    return by_area_;
  }
  /// [device type][bucket] failure counts.
  const std::array<std::array<std::uint64_t, kBuckets>, 3>& by_device() const noexcept {
    return by_device_;
  }
  /// Failure counts for (manufacturer, area, bucket) — Fig. 15c.
  std::uint64_t by_maker_area(devices::ManufacturerId maker, geo::AreaType area,
                              std::size_t bucket) const;

  /// Reservoir of signaling times per bucket (Fig. 14b).
  const util::ReservoirSample& durations(std::size_t bucket) const {
    return durations_.at(bucket);
  }

 private:
  int days_;
  std::size_t n_manufacturers_;
  std::uint64_t total_failures_ = 0;
  std::array<std::uint64_t, kBuckets> bucket_{};
  std::vector<std::uint64_t> per_day_bucket_;  // [day * kBuckets + bucket]
  std::vector<std::uint64_t> per_day_total_;   // [day]
  std::array<std::uint64_t, 3> by_target_{};
  std::array<std::array<std::uint64_t, kBuckets>, 2> by_area_{};
  std::array<std::array<std::uint64_t, kBuckets>, 3> by_device_{};
  std::vector<std::uint64_t> by_maker_area_;  // [(maker*2+area)*kBuckets+bucket]
  /// One bit per possible CauseId (8 KiB), set on first sight.
  std::bitset<std::size_t{std::numeric_limits<corenet::CauseId>::max()} + 1> seen_causes_;
  std::vector<util::ReservoirSample> durations_;
};

/// Fig. 8: signaling-time reservoirs per target RAT class (successes only).
class DurationAggregator : public RecordSink {
 public:
  DurationAggregator();

  /// Reservoir capacity per target RAT class.
  static constexpr std::size_t kSamplesPerClass = 50'000;

  void consume(const HandoverRecord& record) override;

  const util::ReservoirSample& durations(topology::ObservedRat target) const {
    return reservoirs_[static_cast<std::size_t>(target)];
  }

 private:
  std::array<util::ReservoirSample, 3> reservoirs_;
};

/// Table 2: HO counts per (device type, target RAT class), with per-day
/// breakdown for the +/- bands.
class TypeMixAggregator : public RecordSink {
 public:
  explicit TypeMixAggregator(int days);

  void consume(const HandoverRecord& record) override;

  std::uint64_t count(devices::DeviceType type, topology::ObservedRat target) const;
  std::uint64_t total() const noexcept { return total_; }

  /// Share of (type, target) among all HOs: mean / min / max across days.
  struct Share {
    double mean = 0, min = 0, max = 0;
  };
  Share daily_share(devices::DeviceType type, topology::ObservedRat target) const;

 private:
  std::size_t index(int day, std::size_t type, std::size_t target) const noexcept {
    return (static_cast<std::size_t>(day) * 3u + type) * 3u + target;
  }
  int days_;
  std::vector<std::uint64_t> cells_;  // [day][type][target]
  std::vector<std::uint64_t> day_totals_;
  std::uint64_t total_ = 0;
};

/// Incident forensics: HO/HOF tallies split into before/during/after an
/// incident window, nationally and per source/target sector. Feeds the
/// incident-drill example and the fault-injection tests — the Table 6-style
/// question "did the incident move this sector's failure rate, and only
/// inside the window?".
class IncidentWindowAggregator : public RecordSink {
 public:
  enum class Phase : std::uint8_t { kBefore = 0, kDuring, kAfter };

  IncidentWindowAggregator(util::TimestampMs window_start, util::TimestampMs window_end,
                           std::size_t n_sectors);

  void consume(const HandoverRecord& record) override;

  struct Tally {
    std::uint64_t handovers = 0;
    std::uint64_t failures = 0;
    double hof_rate() const noexcept {
      return handovers ? static_cast<double>(failures) / static_cast<double>(handovers)
                       : 0.0;
    }
  };

  Phase phase_of(util::TimestampMs t) const noexcept {
    if (t < start_) return Phase::kBefore;
    return t < end_ ? Phase::kDuring : Phase::kAfter;
  }

  /// National tallies per phase.
  const Tally& national(Phase phase) const noexcept {
    return national_[static_cast<std::size_t>(phase)];
  }
  /// Tallies of HOs *sourced at* `sector`, per phase.
  const Tally& sourced_at(topology::SectorId sector, Phase phase) const;
  /// Count of HOs *targeting* `sector`, per phase (availability check: an
  /// outage should zero the during-window column).
  std::uint64_t targeting(topology::SectorId sector, Phase phase) const;

 private:
  util::TimestampMs start_;
  util::TimestampMs end_;
  std::size_t n_sectors_;
  std::array<Tally, 3> national_{};
  std::vector<Tally> by_source_;          // [sector * 3 + phase]
  std::vector<std::uint64_t> by_target_;  // [sector * 3 + phase]
};

/// Figs. 10, 13: retains one metrics row per (UE, day), in (day, UE) order —
/// the emission order whenever days run in order. A re-emitted UE-day (a
/// day retried after a failed attempt, or a study that runs a day again)
/// replaces its row, so the store holds no more rows than distinct UE-days.
class UeDayStore : public MetricsSink {
 public:
  void consume(const UeDayMetrics& metrics) override;
  const std::vector<UeDayMetrics>& rows() const noexcept { return rows_; }

 private:
  std::vector<UeDayMetrics> rows_;
};

}  // namespace tl::telemetry
