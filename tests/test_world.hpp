#pragma once

// Shared integration-test world: one test-scale simulator, built and run
// once per test binary, with every aggregator attached. Individual tests
// read from it; none mutate it.

#include <memory>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "metrics_log.hpp"
#include "telemetry/aggregates.hpp"
#include "telemetry/signaling_dataset.hpp"

namespace tl::testing {

struct TestWorld {
  core::StudyConfig config;
  std::unique_ptr<core::Simulator> sim;
  telemetry::SignalingDataset dataset;
  telemetry::TemporalAggregator* temporal = nullptr;
  telemetry::SectorDayAggregator* sector_day = nullptr;
  telemetry::DistrictAggregator* districts = nullptr;
  telemetry::CauseAggregator* causes = nullptr;
  telemetry::DurationAggregator* durations = nullptr;
  telemetry::TypeMixAggregator* mix = nullptr;
  MetricsLog ue_days;  // every row as emitted, duplicates included

  std::unique_ptr<telemetry::TemporalAggregator> temporal_owned;
  std::unique_ptr<telemetry::SectorDayAggregator> sector_day_owned;
  std::unique_ptr<telemetry::DistrictAggregator> districts_owned;
  std::unique_ptr<telemetry::CauseAggregator> causes_owned;
  std::unique_ptr<telemetry::DurationAggregator> durations_owned;
  std::unique_ptr<telemetry::TypeMixAggregator> mix_owned;

  /// Builds and runs the world exactly once per process.
  static const TestWorld& instance() {
    static TestWorld world = make();
    return world;
  }

 private:
  static TestWorld make() {
    TestWorld w;
    w.config = core::StudyConfig::test_scale();
    w.config.days = 3;  // Mon-Wed: enough for per-day statistics
    w.config.population.count = 6'000;
    w.sim = std::make_unique<core::Simulator>(w.config);

    const auto n_sectors = w.sim->deployment().sectors().size();
    const auto n_districts = w.sim->country().districts().size();
    const auto n_makers = w.sim->catalog().manufacturers().size();
    w.temporal_owned =
        std::make_unique<telemetry::TemporalAggregator>(n_sectors, w.config.days);
    w.sector_day_owned =
        std::make_unique<telemetry::SectorDayAggregator>(n_sectors, w.config.days);
    w.districts_owned =
        std::make_unique<telemetry::DistrictAggregator>(n_districts, n_makers);
    w.causes_owned =
        std::make_unique<telemetry::CauseAggregator>(w.config.days, n_makers);
    w.durations_owned = std::make_unique<telemetry::DurationAggregator>();
    w.mix_owned = std::make_unique<telemetry::TypeMixAggregator>(w.config.days);

    w.temporal = w.temporal_owned.get();
    w.sector_day = w.sector_day_owned.get();
    w.districts = w.districts_owned.get();
    w.causes = w.causes_owned.get();
    w.durations = w.durations_owned.get();
    w.mix = w.mix_owned.get();

    w.sim->add_sink(&w.dataset);
    w.sim->add_sink(w.temporal);
    w.sim->add_sink(w.sector_day);
    w.sim->add_sink(w.districts);
    w.sim->add_sink(w.causes);
    w.sim->add_sink(w.durations);
    w.sim->add_sink(w.mix);
    w.sim->add_metrics_sink(&w.ue_days);
    w.sim->run();
    return w;
  }
};

}  // namespace tl::testing
