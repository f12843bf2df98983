// Cross-validation properties: the streaming aggregators and the retained
// dataset are independent code paths over the same record stream — every
// statistic computable both ways must agree exactly. Parameterized over
// seeds so the invariants hold across different synthetic countries.

#include <gtest/gtest.h>

#include <map>

#include "core/simulator.hpp"
#include "telemetry/aggregates.hpp"
#include "telemetry/signaling_dataset.hpp"

namespace tl {
namespace {

struct RunOutput {
  core::StudyConfig config;
  std::unique_ptr<core::Simulator> sim;
  telemetry::SignalingDataset dataset;
  std::unique_ptr<telemetry::SectorDayAggregator> sector_day;
  std::unique_ptr<telemetry::TemporalAggregator> temporal;
  std::unique_ptr<telemetry::CauseAggregator> causes;
  std::unique_ptr<telemetry::TypeMixAggregator> mix;
};

RunOutput run_with_seed(std::uint64_t seed) {
  RunOutput out;
  out.config = core::StudyConfig::test_scale();
  out.config.days = 2;
  out.config.seed = seed;
  out.config.finalize();
  out.config.population.count = 2'500;
  out.sim = std::make_unique<core::Simulator>(out.config);
  const auto n_sectors = out.sim->deployment().sectors().size();
  out.sector_day =
      std::make_unique<telemetry::SectorDayAggregator>(n_sectors, out.config.days);
  out.temporal =
      std::make_unique<telemetry::TemporalAggregator>(n_sectors, out.config.days);
  out.causes = std::make_unique<telemetry::CauseAggregator>(
      out.config.days, out.sim->catalog().manufacturers().size());
  out.mix = std::make_unique<telemetry::TypeMixAggregator>(out.config.days);
  out.sim->add_sink(&out.dataset);
  out.sim->add_sink(out.sector_day.get());
  out.sim->add_sink(out.temporal.get());
  out.sim->add_sink(out.causes.get());
  out.sim->add_sink(out.mix.get());
  out.sim->run();
  return out;
}

class CrossValidation : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static RunOutput& run() {
    static std::map<std::uint64_t, RunOutput> cache;
    auto it = cache.find(GetParam());
    if (it == cache.end()) it = cache.emplace(GetParam(), run_with_seed(GetParam())).first;
    return it->second;
  }
};

TEST_P(CrossValidation, SectorDayTotalsMatchDataset) {
  auto& r = run();
  EXPECT_EQ(r.sector_day->total_handovers(), r.dataset.size());
  EXPECT_EQ(r.sector_day->total_failures(), r.dataset.failure_count());
  // Per-observation counts reassemble into the dataset total.
  std::uint64_t from_observations = 0;
  for (const auto& obs : r.sector_day->observations()) from_observations += obs.handovers;
  EXPECT_EQ(from_observations, r.dataset.size());
}

TEST_P(CrossValidation, TemporalSeriesSumMatchesDataset) {
  auto& r = run();
  std::uint64_t total = 0;
  for (const auto area : {geo::AreaType::kRural, geo::AreaType::kUrban}) {
    for (const auto c : r.temporal->ho_series(area)) total += c;
  }
  EXPECT_EQ(total, r.dataset.size());
}

TEST_P(CrossValidation, CauseTotalsMatchDatasetFailures) {
  auto& r = run();
  EXPECT_EQ(r.causes->total_failures(), r.dataset.failure_count());
  std::uint64_t by_bucket = 0;
  for (const auto c : r.causes->totals_by_bucket()) by_bucket += c;
  EXPECT_EQ(by_bucket, r.dataset.failure_count());
  std::uint64_t by_target = 0;
  for (const auto c : r.causes->failures_by_target()) by_target += c;
  EXPECT_EQ(by_target, r.dataset.failure_count());
}

TEST_P(CrossValidation, TypeMixTotalsMatchDataset) {
  auto& r = run();
  EXPECT_EQ(r.mix->total(), r.dataset.size());
  std::uint64_t sum = 0;
  for (const auto type : devices::kAllDeviceTypes) {
    for (const auto rat :
         {topology::ObservedRat::kG2, topology::ObservedRat::kG3,
          topology::ObservedRat::kG45Nsa}) {
      sum += r.mix->count(type, rat);
    }
  }
  EXPECT_EQ(sum, r.dataset.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation, ::testing::Values(42u, 1337u, 777u));

}  // namespace
}  // namespace tl
