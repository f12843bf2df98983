// Record sinks and streaming aggregators, driven by hand-crafted records.

#include <gtest/gtest.h>


#include "telemetry/aggregates.hpp"
#include "telemetry/signaling_dataset.hpp"

namespace tl::telemetry {
namespace {

HandoverRecord make_record(int day, double hour, topology::SectorId source,
                           topology::ObservedRat target, bool success,
                           corenet::CauseId cause = corenet::kCauseNone) {
  HandoverRecord r;
  r.timestamp = util::SimCalendar::at(day, hour);
  r.success = success;
  r.cause = cause;
  r.duration_ms = success ? 43.0f : 1000.0f;
  r.source_sector = source;
  r.target_sector = source + 1;
  r.target_rat = target;
  r.area = geo::AreaType::kUrban;
  r.district = 2;
  r.manufacturer = 1;
  r.device_type = devices::DeviceType::kSmartphone;
  return r;
}

TEST(SignalingDataset, StoresFiltersAndCounts) {
  SignalingDataset ds;
  ds.consume(make_record(0, 9.0, 1, topology::ObservedRat::kG45Nsa, true));
  ds.consume(make_record(0, 10.0, 2, topology::ObservedRat::kG3, false,
                         corenet::kCause4TargetLoadTooHigh));
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.failure_count(), 1u);
  const auto failures =
      ds.filter([](const HandoverRecord& r) { return !r.success; });
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].cause, corenet::kCause4TargetLoadTooHigh);
  const auto durations = ds.success_durations_ms(topology::ObservedRat::kG45Nsa);
  ASSERT_EQ(durations.size(), 1u);
  EXPECT_FLOAT_EQ(static_cast<float>(durations[0]), 43.0f);
}

TEST(TemporalAggregator, BinsByTimeAndArea) {
  TemporalAggregator agg{100, 2};
  auto r = make_record(0, 8.25, 7, topology::ObservedRat::kG45Nsa, true);
  agg.consume(r);
  r.timestamp = util::SimCalendar::at(0, 8.4);
  r.source_sector = 8;
  agg.consume(r);
  r.timestamp = util::SimCalendar::at(1, 23.9);
  r.success = false;
  agg.consume(r);

  const auto& ho = agg.ho_series(geo::AreaType::kUrban);
  EXPECT_EQ(ho[16], 2u);          // day 0, bin 16 (08:00-08:30)
  EXPECT_EQ(ho[48 + 47], 1u);     // day 1, last bin
  EXPECT_EQ(agg.hof_series(geo::AreaType::kUrban)[48 + 47], 1u);
  EXPECT_EQ(agg.ho_series(geo::AreaType::kRural)[16], 0u);

  const auto active = agg.active_sector_series(geo::AreaType::kUrban);
  EXPECT_EQ(active[16], 2u);  // two distinct sectors in the peak bin
  EXPECT_EQ(active[15], 0u);
}

TEST(TemporalAggregator, DuplicateSectorCountsOnce) {
  TemporalAggregator agg{100, 1};
  for (int i = 0; i < 5; ++i) {
    agg.consume(make_record(0, 9.1, 42, topology::ObservedRat::kG45Nsa, true));
  }
  EXPECT_EQ(agg.active_sector_series(geo::AreaType::kUrban)[18], 1u);
  EXPECT_EQ(agg.ho_series(geo::AreaType::kUrban)[18], 5u);
}

TEST(SectorDayAggregator, BuildsObservations) {
  SectorDayAggregator agg{50, 2};
  for (int i = 0; i < 10; ++i) {
    agg.consume(make_record(0, 9.0, 3, topology::ObservedRat::kG45Nsa, i < 9));
  }
  for (int i = 0; i < 4; ++i) {
    agg.consume(make_record(1, 9.0, 3, topology::ObservedRat::kG3, i < 2));
  }
  const auto obs = agg.observations();
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0].sector, 3u);
  EXPECT_EQ(obs[0].day, 0);
  EXPECT_EQ(obs[0].handovers, 10u);
  EXPECT_EQ(obs[0].failures, 1u);
  EXPECT_NEAR(obs[0].hof_rate_pct, 10.0, 1e-12);
  EXPECT_EQ(obs[1].target, topology::ObservedRat::kG3);
  EXPECT_NEAR(obs[1].hof_rate_pct, 50.0, 1e-12);
  EXPECT_EQ(agg.total_handovers(), 14u);
  EXPECT_EQ(agg.total_failures(), 3u);
}

TEST(DistrictAggregator, TalliesDistrictAndMaker) {
  DistrictAggregator agg{5, 3};
  auto r = make_record(0, 9.0, 1, topology::ObservedRat::kG3, false);
  agg.consume(r);
  r.success = true;
  agg.consume(r);
  const auto& d = agg.district(2);
  EXPECT_EQ(d.handovers, 2u);
  EXPECT_EQ(d.failures, 1u);
  EXPECT_EQ(d.by_target[static_cast<std::size_t>(topology::ObservedRat::kG3)], 2u);
  const auto& m = agg.maker(2, 1);
  EXPECT_EQ(m.handovers, 2u);
  EXPECT_EQ(m.failures, 1u);
}

TEST(CauseAggregator, BucketsAndDailyShares) {
  CauseAggregator agg{2, 3};
  // Day 0: 3 failures of cause #4, 1 of a tail cause.
  for (int i = 0; i < 3; ++i) {
    agg.consume(make_record(0, 8.0, 1, topology::ObservedRat::kG3, false,
                            corenet::kCause4TargetLoadTooHigh));
  }
  agg.consume(make_record(0, 8.0, 1, topology::ObservedRat::kG3, false,
                          corenet::CauseId{150}));
  // Day 1: 1 failure of cause #4. Successes are ignored.
  agg.consume(make_record(1, 8.0, 1, topology::ObservedRat::kG3, false,
                          corenet::kCause4TargetLoadTooHigh));
  agg.consume(make_record(1, 8.0, 1, topology::ObservedRat::kG3, true));

  EXPECT_EQ(agg.total_failures(), 5u);
  EXPECT_EQ(agg.totals_by_bucket()[3], 4u);
  EXPECT_EQ(agg.totals_by_bucket()[8], 1u);
  EXPECT_EQ(agg.distinct_causes(), 2u);
  // A repeated id counts once; the largest id has its own slot.
  CauseAggregator ids{1, 3};
  for (const corenet::CauseId id : {corenet::CauseId{150}, corenet::CauseId{150},
                                    corenet::CauseId{65535}}) {
    ids.consume(make_record(0, 8.0, 1, topology::ObservedRat::kG3, false, id));
  }
  EXPECT_EQ(ids.distinct_causes(), 2u);
  const auto share = agg.daily_share(3);
  EXPECT_NEAR(share.min, 0.75, 1e-12);
  EXPECT_NEAR(share.max, 1.0, 1e-12);
  EXPECT_NEAR(share.mean, 0.875, 1e-12);
  EXPECT_EQ(agg.failures_by_target()[static_cast<std::size_t>(topology::ObservedRat::kG3)],
            5u);
  EXPECT_EQ(agg.by_device()[0][3], 4u);  // smartphones, bucket #4
  EXPECT_EQ(agg.by_maker_area(1, geo::AreaType::kUrban, 3), 4u);
  EXPECT_EQ(agg.durations(3).seen(), 4u);
}

TEST(CauseAggregator, BucketLabels) {
  EXPECT_EQ(CauseAggregator::bucket_of(corenet::kCause1SourceCancelled), 0u);
  EXPECT_EQ(CauseAggregator::bucket_of(corenet::CauseId{500}), 8u);
  EXPECT_NE(std::string{CauseAggregator::bucket_label(0)}.find("#1"), std::string::npos);
}

TEST(DurationAggregator, SuccessOnlyReservoirs) {
  DurationAggregator agg;
  agg.consume(make_record(0, 9.0, 1, topology::ObservedRat::kG45Nsa, true));
  agg.consume(make_record(0, 9.0, 1, topology::ObservedRat::kG45Nsa, false));
  EXPECT_EQ(agg.durations(topology::ObservedRat::kG45Nsa).seen(), 1u);
  EXPECT_EQ(agg.durations(topology::ObservedRat::kG3).seen(), 0u);
}

TEST(TypeMixAggregator, SharesAcrossDays) {
  TypeMixAggregator agg{2};
  auto r = make_record(0, 9.0, 1, topology::ObservedRat::kG45Nsa, true);
  agg.consume(r);
  agg.consume(r);
  r.timestamp = util::SimCalendar::at(1, 9.0);
  r.target_rat = topology::ObservedRat::kG3;
  agg.consume(r);
  EXPECT_EQ(agg.total(), 3u);
  EXPECT_EQ(agg.count(devices::DeviceType::kSmartphone, topology::ObservedRat::kG45Nsa),
            2u);
  const auto share =
      agg.daily_share(devices::DeviceType::kSmartphone, topology::ObservedRat::kG45Nsa);
  EXPECT_NEAR(share.min, 0.0, 1e-12);
  EXPECT_NEAR(share.max, 1.0, 1e-12);
  EXPECT_NEAR(share.mean, 0.5, 1e-12);
}

TEST(UeDayStore, RetainsRowsAndComputesRates) {
  UeDayStore store;
  UeDayMetrics m;
  m.handovers = 10;
  m.failures = 1;
  store.consume(m);
  ASSERT_EQ(store.rows().size(), 1u);
  EXPECT_NEAR(store.rows()[0].hof_rate(), 0.1, 1e-12);
  UeDayMetrics idle;
  EXPECT_EQ(idle.hof_rate(), 0.0);
}

TEST(UeDayStore, ReEmittedUeDayReplacesItsRowAndOrderIsDayThenUe) {
  UeDayStore store;
  const auto row = [](devices::UeId ue, int day, std::uint32_t handovers) {
    UeDayMetrics m;
    m.ue = ue;
    m.day = day;
    m.handovers = handovers;
    return m;
  };
  store.consume(row(0, 1, 1));
  store.consume(row(2, 1, 1));
  store.consume(row(1, 0, 1));  // an earlier day, run late
  store.consume(row(2, 1, 7));  // re-emitted: replaces
  store.consume(row(1, 1, 1));
  ASSERT_EQ(store.rows().size(), 4u);
  const std::vector<std::pair<int, devices::UeId>> want{{0, 1}, {1, 0}, {1, 1}, {1, 2}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(store.rows()[i].day, want[i].first);
    EXPECT_EQ(store.rows()[i].ue, want[i].second);
  }
  EXPECT_EQ(store.rows()[3].handovers, 7u);
}

}  // namespace
}  // namespace tl::telemetry
