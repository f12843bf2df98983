// Fault-injection, recovery and degradation-tolerance tests: determinism
// under a fixed seed, outage suppression in the serving-sector lookup,
// recovery backoff caps and re-attempt records, quarantine counters, and
// day-checkpoint resume equivalence.

#include <gtest/gtest.h>

#include <vector>

#include "core/simulator.hpp"
#include "faults/recovery.hpp"
#include "faults/scenarios.hpp"
#include "telemetry/aggregates.hpp"
#include "telemetry/signaling_dataset.hpp"
#include "telemetry/sinks.hpp"

namespace tl::faults {
namespace {

using core::DayCheckpoint;
using core::Simulator;
using core::StudyConfig;
using telemetry::HandoverRecord;

StudyConfig small_config() {
  StudyConfig cfg = StudyConfig::test_scale();
  cfg.days = 2;
  cfg.population.count = 1'500;
  return cfg;
}

std::vector<HandoverRecord> run_records(const StudyConfig& cfg,
                                        const FaultSchedule* schedule = nullptr) {
  Simulator sim{cfg};
  if (schedule != nullptr) sim.set_fault_schedule(schedule);
  telemetry::SignalingDataset dataset;
  sim.add_sink(&dataset);
  sim.run();
  return {dataset.records().begin(), dataset.records().end()};
}

void expect_identical(const std::vector<HandoverRecord>& a,
                      const std::vector<HandoverRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].timestamp, b[i].timestamp) << "record " << i;
    ASSERT_EQ(a[i].success, b[i].success) << "record " << i;
    ASSERT_EQ(a[i].duration_ms, b[i].duration_ms) << "record " << i;
    ASSERT_EQ(a[i].cause, b[i].cause) << "record " << i;
    ASSERT_EQ(a[i].anon_user_id, b[i].anon_user_id) << "record " << i;
    ASSERT_EQ(a[i].source_sector, b[i].source_sector) << "record " << i;
    ASSERT_EQ(a[i].target_sector, b[i].target_sector) << "record " << i;
    ASSERT_EQ(a[i].attempt, b[i].attempt) << "record " << i;
  }
}

// --- schedule unit behaviour -------------------------------------------------

TEST(FaultSchedule, EventWindowsAndScopes) {
  FaultSchedule schedule;
  schedule.add(sector_outage(7, at_hour(0, 10.0), at_hour(0, 14.0)));
  schedule.add(vendor_bug_wave(topology::Vendor::kV2, at_hour(1, 0.0), at_hour(2, 0.0), 5.0));
  schedule.add(vendor_bug_wave(topology::Vendor::kV2, at_hour(1, 4.0), at_hour(1, 5.0), 3.0));
  EXPECT_FALSE(schedule.empty());
  EXPECT_EQ(schedule.size(), 3u);

  // Outage matches only its sector, only inside the window, and modifies
  // nothing.
  topology::RadioSector sector;
  sector.id = 7;
  EXPECT_TRUE(schedule.forced_off(sector, 0, 24));    // [12:00, 12:30)
  EXPECT_FALSE(schedule.forced_off(sector, 0, 19));   // [9:30, 10:00)
  EXPECT_FALSE(schedule.forced_off(sector, 0, 28));   // [14:00, 14:30): end exclusive
  EXPECT_DOUBLE_EQ(schedule.hof_multiplier(topology::Vendor::kV1, at_hour(0, 12.0)), 1.0);
  sector.id = 8;
  EXPECT_FALSE(schedule.forced_off(sector, 0, 24));

  // Bug wave multiplies only the matching vendor inside the window.
  EXPECT_DOUBLE_EQ(schedule.hof_multiplier(topology::Vendor::kV2, at_hour(1, 6.0)), 5.0);
  EXPECT_DOUBLE_EQ(schedule.hof_multiplier(topology::Vendor::kV1, at_hour(1, 6.0)), 1.0);
  EXPECT_DOUBLE_EQ(schedule.hof_multiplier(topology::Vendor::kV2, at_hour(0, 6.0)), 1.0);

  // Overlapping waves on one vendor multiply.
  EXPECT_DOUBLE_EQ(schedule.hof_multiplier(topology::Vendor::kV2, at_hour(1, 4.5)), 15.0);
}

TEST(FaultSchedule, ForcedOffCoversOverlappingBins) {
  FaultSchedule schedule;
  // 10:15-10:45 overlaps bins 20 ([10:00,10:30)) and 21 ([10:30,11:00)).
  schedule.add(sector_outage(3, at_hour(0, 10.25), at_hour(0, 10.75)));
  topology::RadioSector sector;
  sector.id = 3;
  sector.site = 1;
  EXPECT_TRUE(schedule.forced_off(sector, 0, 20));
  EXPECT_TRUE(schedule.forced_off(sector, 0, 21));
  EXPECT_FALSE(schedule.forced_off(sector, 0, 19));
  EXPECT_FALSE(schedule.forced_off(sector, 0, 22));
  EXPECT_FALSE(schedule.forced_off(sector, 1, 20));
  sector.id = 4;
  EXPECT_FALSE(schedule.forced_off(sector, 0, 20));
}

// --- simulator integration ---------------------------------------------------

TEST(FaultInjection, EmptyScheduleIsByteIdentical) {
  const StudyConfig cfg = small_config();
  const auto baseline = run_records(cfg);
  const FaultSchedule empty;
  const auto with_empty = run_records(cfg, &empty);
  expect_identical(baseline, with_empty);
}

TEST(FaultInjection, SameScheduleSameSeedIsByteIdentical) {
  const StudyConfig cfg = small_config();
  FaultSchedule schedule;
  schedule.add(vendor_bug_wave(topology::Vendor::kV1, at_hour(0, 6.0), at_hour(0, 18.0), 8.0));
  schedule.add(sector_outage(0, at_hour(0, 8.0), at_hour(0, 10.0)));
  const auto a = run_records(cfg, &schedule);
  const auto b = run_records(cfg, &schedule);
  expect_identical(a, b);
}

TEST(FaultInjection, OutageSuppressesSectorInsideWindowOnly) {
  const StudyConfig cfg = small_config();
  const auto baseline = run_records(cfg);

  // Busiest day-0 target: the sector most exposed to the outage.
  std::vector<std::uint64_t> day0_targets;
  for (const auto& r : baseline) {
    if (r.day() != 0) continue;
    if (r.target_sector >= day0_targets.size()) day0_targets.resize(r.target_sector + 1, 0);
    ++day0_targets[r.target_sector];
  }
  ASSERT_FALSE(day0_targets.empty());
  topology::SectorId victim = 0;
  for (topology::SectorId s = 0; s < day0_targets.size(); ++s) {
    if (day0_targets[s] > day0_targets[victim]) victim = s;
  }
  ASSERT_GT(day0_targets[victim], 0u);

  FaultSchedule schedule;
  schedule.add(single_sector_drill(victim, 0, 0.0, 24.0).events.front());
  const auto faulted = run_records(cfg, &schedule);

  std::uint64_t in_window = 0, day1 = 0;
  for (const auto& r : faulted) {
    if (r.day() == 0 && (r.source_sector == victim || r.target_sector == victim)) {
      ++in_window;
    }
    if (r.day() == 1 && (r.source_sector == victim || r.target_sector == victim)) ++day1;
  }
  EXPECT_EQ(in_window, 0u) << "outage window must fully suppress the sector";

  std::uint64_t baseline_day1 = 0;
  for (const auto& r : baseline) {
    if (r.day() == 1 && (r.source_sector == victim || r.target_sector == victim)) {
      ++baseline_day1;
    }
  }
  // Day 1 is outside the window; per-day RNG streams are independent, so the
  // sector's traffic there is byte-identical to baseline.
  EXPECT_EQ(day1, baseline_day1);
}

TEST(FaultInjection, VendorBugWaveInflatesOnlyItsScope) {
  const StudyConfig cfg = small_config();
  const auto baseline = run_records(cfg);

  FaultSchedule schedule;
  schedule.add(vendor_bug_wave(topology::Vendor::kV1, at_hour(0, 0.0), at_hour(1, 0.0), 20.0));
  const auto faulted = run_records(cfg, &schedule);

  const auto day0_vendor_failures = [](const std::vector<HandoverRecord>& records,
                                       topology::Vendor vendor) {
    std::uint64_t failures = 0;
    for (const auto& r : records) {
      if (r.day() == 0 && r.vendor == vendor && !r.success) ++failures;
    }
    return failures;
  };
  EXPECT_GT(day0_vendor_failures(faulted, topology::Vendor::kV1),
            2 * day0_vendor_failures(baseline, topology::Vendor::kV1));

  // Day 1 (outside the wave) is byte-identical: days are independent units.
  std::vector<HandoverRecord> base_day1, fault_day1;
  for (const auto& r : baseline) {
    if (r.day() == 1) base_day1.push_back(r);
  }
  for (const auto& r : faulted) {
    if (r.day() == 1) fault_day1.push_back(r);
  }
  expect_identical(base_day1, fault_day1);
}

TEST(FaultInjection, DrillScheduleIsByteIdenticalAtEveryThreadCount) {
  // incident_drill's schedule on the sharded path: one sector off-air and
  // a x8 bug wave on its vendor over 10:00-14:00, with recovery on. The
  // pin was taken from the serial run.
  for (const unsigned threads : {1u, 2u, 4u}) {
    StudyConfig cfg = StudyConfig::test_scale();
    cfg.recovery.enabled = true;
    cfg.threads = threads;
    Simulator sim{cfg};
    const topology::SectorId victim = 5;
    Scenario drill = single_sector_drill(victim, 0, 10.0, 14.0);
    drill.add(vendor_bug_wave(sim.deployment().sector(victim).vendor, at_hour(0, 10.0),
                              at_hour(0, 14.0), 8.0));
    FaultSchedule schedule;
    drill.install(schedule);
    sim.set_fault_schedule(&schedule);
    telemetry::ChecksumSink sink;
    sim.add_sink(&sink);
    sim.run();
    EXPECT_EQ(sink.records(), 183'124u) << threads << " threads";
    EXPECT_EQ(sink.checksum(), 0x011b53fbu) << threads << " threads";
  }
}

TEST(FaultInjection, IncidentWindowAggregatorSeesTheDip) {
  const StudyConfig cfg = small_config();
  const auto baseline = run_records(cfg);
  std::vector<std::uint64_t> targets;
  for (const auto& r : baseline) {
    if (r.day() != 0) continue;
    if (r.target_sector >= targets.size()) targets.resize(r.target_sector + 1, 0);
    ++targets[r.target_sector];
  }
  topology::SectorId victim = 0;
  for (topology::SectorId s = 0; s < targets.size(); ++s) {
    if (targets[s] > targets[victim]) victim = s;
  }

  const auto window_start = at_hour(0, 8.0);
  const auto window_end = at_hour(0, 16.0);
  FaultSchedule schedule;
  schedule.add(sector_outage(victim, window_start, window_end));

  Simulator sim{cfg};
  sim.set_fault_schedule(&schedule);
  telemetry::IncidentWindowAggregator window{window_start, window_end,
                                             sim.deployment().sectors().size()};
  sim.add_sink(&window);
  sim.run();

  using Phase = telemetry::IncidentWindowAggregator::Phase;
  EXPECT_EQ(window.targeting(victim, Phase::kDuring), 0u);
  EXPECT_GT(window.targeting(victim, Phase::kBefore) + window.targeting(victim, Phase::kAfter),
            0u);
  EXPECT_GT(window.national(Phase::kDuring).handovers, 0u);
}

// --- recovery ----------------------------------------------------------------

TEST(Recovery, BackoffIsCappedExponential) {
  RecoveryConfig cfg;
  cfg.backoff_base_ms = 100.0;
  cfg.backoff_factor = 2.0;
  cfg.backoff_cap_ms = 500.0;
  const RecoveryModel model{cfg};
  EXPECT_DOUBLE_EQ(model.backoff_ms(1), 100.0);
  EXPECT_DOUBLE_EQ(model.backoff_ms(2), 200.0);
  EXPECT_DOUBLE_EQ(model.backoff_ms(3), 400.0);
  EXPECT_DOUBLE_EQ(model.backoff_ms(4), 500.0);
  EXPECT_DOUBLE_EQ(model.backoff_ms(10), 500.0);
  EXPECT_DOUBLE_EQ(model.backoff_ms(0), 0.0);
}

TEST(Recovery, DecisionRespectsJitterBoundsAndAttemptCap) {
  RecoveryConfig cfg;
  cfg.p_reattempt_target = 1.0;
  cfg.max_reattempts = 3;
  cfg.backoff_base_ms = 100.0;
  cfg.backoff_factor = 2.0;
  cfg.backoff_cap_ms = 1'000.0;
  cfg.backoff_jitter = 0.25;
  const RecoveryModel model{cfg};
  util::Rng rng{7};
  for (int trial = 0; trial < 200; ++trial) {
    const int k = 1 + trial % 3;
    const RecoveryDecision d = model.decide(k, rng);
    ASSERT_EQ(d.action, RecoveryAction::kReestablishTarget);
    const double nominal = model.backoff_ms(k);
    EXPECT_GE(d.backoff_ms, nominal * 0.75 - 1e-9);
    EXPECT_LE(d.backoff_ms, nominal * 1.25 + 1e-9);
  }
  EXPECT_EQ(model.decide(4, rng).action, RecoveryAction::kFallbackToSource);
}

TEST(Recovery, EmitsDeterministicReattemptRecords) {
  StudyConfig cfg = small_config();
  cfg.days = 1;
  cfg.recovery.enabled = true;
  cfg.recovery.p_reattempt_target = 1.0;
  const auto a = run_records(cfg);
  const auto b = run_records(cfg);
  expect_identical(a, b);

  std::uint64_t reattempts = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& r = a[i];
    if (r.attempt == 0) continue;
    ++reattempts;
    // A re-attempt record continues the chain of the record before it: same
    // UE, same target, strictly later execution time.
    ASSERT_GT(i, 0u);
    const auto& prev = a[i - 1];
    EXPECT_EQ(prev.anon_user_id, r.anon_user_id);
    EXPECT_EQ(prev.target_sector, r.target_sector);
    EXPECT_EQ(prev.attempt + 1, r.attempt);
    EXPECT_FALSE(prev.success);
    EXPECT_LT(prev.timestamp, r.timestamp);
    EXPECT_LE(static_cast<int>(r.attempt), cfg.recovery.max_reattempts);
  }
  EXPECT_GT(reattempts, 0u) << "some failures must spawn re-attempt chains";

  // Stock pipeline: no re-attempts ever.
  StudyConfig stock = small_config();
  stock.days = 1;
  for (const auto& r : run_records(stock)) EXPECT_EQ(r.attempt, 0);
}

// --- checkpoint / resume -----------------------------------------------------

TEST(Checkpoint, ResumeEmitsIdenticalRecords) {
  const StudyConfig cfg = small_config();  // 2 days

  telemetry::SignalingDataset uninterrupted;
  Simulator full{cfg};
  full.add_sink(&uninterrupted);
  full.run();

  // "Crash" after day 0: day 0 records from the first instance...
  telemetry::SignalingDataset part0;
  Simulator first{cfg};
  first.add_sink(&part0);
  first.run_day(0);
  EXPECT_EQ(first.next_day(), 1);
  const DayCheckpoint cp = first.checkpoint();

  // ...and the rest from a fresh instance restored from the checkpoint.
  telemetry::SignalingDataset part1;
  Simulator second{cfg};
  second.restore(cp);
  second.add_sink(&part1);
  second.run();
  EXPECT_EQ(second.next_day(), cfg.days);
  EXPECT_EQ(second.records_emitted(), full.records_emitted());
  for (const auto region : geo::kAllRegions) {
    EXPECT_EQ(second.core_network().mme(region).handovers.procedures,
              full.core_network().mme(region).handovers.procedures);
  }

  std::vector<HandoverRecord> stitched{part0.records().begin(), part0.records().end()};
  stitched.insert(stitched.end(), part1.records().begin(), part1.records().end());
  expect_identical({uninterrupted.records().begin(), uninterrupted.records().end()},
                   stitched);
}

TEST(Checkpoint, RestoreRejectsMismatchedSeedAndRange) {
  const StudyConfig cfg = small_config();
  Simulator sim{cfg};
  DayCheckpoint cp = sim.checkpoint();
  cp.seed ^= 1;
  EXPECT_THROW(sim.restore(cp), std::invalid_argument);
  cp = sim.checkpoint();
  cp.next_day = cfg.days + 1;
  EXPECT_THROW(sim.restore(cp), std::invalid_argument);
}

}  // namespace
}  // namespace tl::faults
