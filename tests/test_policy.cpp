// Policy engine + A/B experiment tests: the calibrated-baseline byte-
// identity contract (golden stream/WAL CRCs from the pre-policy-engine
// pipeline, thread-count invariance, kill/resume), the load-balancing
// policy's pinned stream and seed stability, the per-UE-day state reset,
// the tl_policy_* counters, the analysis ping-pong detector, and
// determinism of the experiment harness's reduced report.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pingpong.hpp"
#include "core/simulator.hpp"
#include "experiment/ab_experiment.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "policy/policies.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/sinks.hpp"
#include "util/crc32c.hpp"
#include "util/sim_time.hpp"

namespace tl {
namespace {

using core::DayCheckpoint;
using core::Simulator;
using core::StudyConfig;
using telemetry::ChecksumSink;
using telemetry::DurableRecordSink;
using telemetry::RecordLog;

namespace fs = std::filesystem;

// The serial output at StudyConfig::test_scale() with a durable log
// attached. The baseline policy must reproduce these bytes until the model
// itself is deliberately changed.
//
// Re-pinned once when the site lookup became exact. The old ring search
// stopped one ring after its k-th hit, which can miss a closer site in a
// cell further out, so some HO opportunities were joined to a farther
// site's postcode and some UEs were served by the wrong sector. The exact
// search changed 118 of the 6,000 test-scale UE-days (2.0%). Once a UE-day
// diverges its RNG stream shifts, so 6,312 of its 180,878 records (3.5%)
// are no longer byte-identical. Before: 180,927 records, stream CRC
// 0xd7c405c3, WAL CRC 0x88a5c3d8.
constexpr std::uint64_t kGoldenRecords = 180'878;
constexpr std::uint32_t kGoldenStreamCrc = 0x81409458;
constexpr std::uint32_t kGoldenWalCrc = 0xfb4925fe;

// The serial stream of the load-balancing policy on the same world: the
// baseline's opportunities with overload-bound targets diverted.
constexpr std::uint64_t kLoadBalancingRecords = 192'739;
constexpr std::uint32_t kLoadBalancingStreamCrc = 0x1ce5c014;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "tl_policy_" + name) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

std::uint32_t wal_crc(const std::string& dir) {
  util::Crc32c crc;
  for (std::uint32_t seg = 0;; ++seg) {
    std::ifstream f{dir + "/" + RecordLog::segment_name(seg), std::ios::binary};
    if (!f) break;
    std::ostringstream ss;
    ss << f.rdbuf();
    const std::string bytes = ss.str();
    crc.update(bytes.data(), bytes.size());
  }
  return crc.value();
}

struct RunResult {
  std::uint64_t records = 0;
  std::uint32_t stream_crc = 0;
};

/// One full run from day 0 on a fresh simulator with `config`.
RunResult run_stream(const StudyConfig& config) {
  Simulator sim{config};
  ChecksumSink sink;
  sim.add_sink(&sink);
  sim.run();
  return {sink.records(), sink.checksum()};
}

// --- config / factory --------------------------------------------------------

TEST(PolicyConfig, NamesAndDefault) {
  EXPECT_EQ(policy::to_string(policy::PolicyKind::kCalibratedBaseline),
            "calibrated-baseline");
  EXPECT_EQ(policy::to_string(policy::PolicyKind::kLoadBalancing), "load-balancing");
  // The default study runs the byte-identical baseline.
  EXPECT_EQ(StudyConfig{}.policy.kind, policy::PolicyKind::kCalibratedBaseline);
}

TEST(PolicyConfig, MakePolicyInstantiatesEveryKindAndRejectsUnknown) {
  policy::PolicyConfig cfg;
  for (const auto kind :
       {policy::PolicyKind::kCalibratedBaseline, policy::PolicyKind::kLoadBalancing}) {
    cfg.kind = kind;
    const auto p = policy::make_policy(cfg);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), policy::to_string(kind));
  }
  cfg.kind = static_cast<policy::PolicyKind>(250);
  EXPECT_THROW(policy::make_policy(cfg), std::invalid_argument);
}

// --- per-UE-day policy state -------------------------------------------------

TEST(UeDayState, BeginUeDayResetsTheRanLevelFields) {
  const auto cfg = StudyConfig::test_scale();
  Simulator sim{cfg};
  const auto policy = policy::make_policy(policy::PolicyConfig{});
  // A state left over from another UE-day: every field dirty.
  policy::UeDayState state;
  state.previous_serving = 7;
  state.last_ho_time = 1'000;
  state.barred_sector = 9;
  state.barred_until = 2'000;
  state.scratch_sectors = {1, 2, 3};
  const std::size_t capacity = state.scratch_sectors.capacity();

  policy->begin_ue_day(sim.policy_env(), sim.population().ue(0), 1, state);
  EXPECT_EQ(state.previous_serving, topology::kInvalidSector);
  EXPECT_EQ(state.last_ho_time, 0);
  EXPECT_EQ(state.barred_sector, topology::kInvalidSector);
  EXPECT_EQ(state.barred_until, 0);
  EXPECT_TRUE(state.scratch_sectors.empty());
  // Scratch keeps its capacity, so the next UE-day does not reallocate.
  EXPECT_EQ(state.scratch_sectors.capacity(), capacity);
}

// --- baseline byte identity --------------------------------------------------

TEST(BaselineByteIdentity, GoldenSerialStreamAndWalBytes) {
  StudyConfig cfg = StudyConfig::test_scale();
  ASSERT_EQ(cfg.threads, 1u);

  TempDir dir{"golden"};
  RecordLog::Options opt;
  opt.directory = dir.path;
  RecordLog log{io::StdioFileSystem::instance(), opt};
  DurableRecordSink durable{log};

  Simulator sim{cfg};
  ChecksumSink sink;
  sim.add_sink(&sink);
  sim.attach_durable_log(&durable);
  sim.run();

  EXPECT_EQ(sink.records(), kGoldenRecords);
  EXPECT_EQ(sink.checksum(), kGoldenStreamCrc);
  EXPECT_EQ(wal_crc(dir.path), kGoldenWalCrc);
}

TEST(BaselineByteIdentity, ThreadSweepReproducesTheGoldenBytes) {
  StudyConfig cfg = StudyConfig::test_scale();
  Simulator sim{cfg};
  DayCheckpoint day0;
  day0.seed = cfg.seed;

  for (const unsigned threads : {1u, 2u, 4u, 0u}) {  // 0 = all hardware
    TempDir dir{"sweep_" + std::to_string(threads)};
    RecordLog::Options opt;
    opt.directory = dir.path;
    RecordLog log{io::StdioFileSystem::instance(), opt};
    DurableRecordSink durable{log};

    sim.set_threads(threads);
    sim.restore(day0);
    ChecksumSink sink;
    sim.add_sink(&sink);
    sim.attach_durable_log(&durable);
    sim.run();
    sim.remove_sink(&durable);
    sim.remove_sink(&sink);

    EXPECT_EQ(sink.records(), kGoldenRecords) << threads << " threads";
    EXPECT_EQ(sink.checksum(), kGoldenStreamCrc) << threads << " threads";
    EXPECT_EQ(wal_crc(dir.path), kGoldenWalCrc) << threads << " threads";
  }
}

/// Kill after day 0's durable commit, resume in a fresh process image; the
/// final WAL must match the uninterrupted run under `config`. Returns the
/// resumed WAL's CRC.
std::uint32_t kill_resume_wal_crc(const StudyConfig& config) {
  auto& real = io::StdioFileSystem::instance();
  // Two tests call this, and ctest runs them as parallel processes: each
  // needs its own directory.
  TempDir dir{std::string{"kill_resume_"} +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()};
  RecordLog::Options opt;
  opt.directory = dir.path;

  {
    RecordLog log{real, opt};
    log.open();  // run() opens lazily; a bare run_day does not
    DurableRecordSink durable{log};
    Simulator sim{config};
    sim.attach_durable_log(&durable);
    sim.run_day(0);
    EXPECT_EQ(log.last_committed_day(), 0);
    // Simulator and log destroyed here: the "kill". Day 0 is on disk.
  }
  {
    RecordLog log{real, opt};
    DurableRecordSink durable{log};
    Simulator sim{config};
    sim.attach_durable_log(&durable);
    // run() recovers from the log's last committed marker and resumes at
    // day 1; a replayed day 0 would duplicate its bytes and break the CRC.
    sim.run();
    EXPECT_EQ(log.last_committed_day(), config.days - 1);
    EXPECT_EQ(sim.next_day(), config.days);
  }
  return wal_crc(dir.path);
}

TEST(BaselineByteIdentity, KillResumeReproducesTheGoldenWal) {
  EXPECT_EQ(kill_resume_wal_crc(StudyConfig::test_scale()), kGoldenWalCrc);
}

TEST(PolicyDeterminism, KillResumeHoldsForNonBaselinePolicies) {
  // Per-UE-day policy state keeps days independent replay units, so the
  // kill/resume contract must hold under *any* policy, not just baseline.
  StudyConfig cfg = StudyConfig::test_scale();
  cfg.policy.kind = policy::PolicyKind::kLoadBalancing;

  TempDir ref_dir{"lb_ref"};
  RecordLog::Options opt;
  opt.directory = ref_dir.path;
  {
    RecordLog log{io::StdioFileSystem::instance(), opt};
    DurableRecordSink durable{log};
    Simulator sim{cfg};
    sim.attach_durable_log(&durable);
    sim.run();
  }
  EXPECT_EQ(kill_resume_wal_crc(cfg), wal_crc(ref_dir.path));
}

// --- non-baseline determinism ------------------------------------------------

TEST(PolicyDeterminism, NonBaselinePoliciesAreSeedStableAndDistinct) {
  StudyConfig cfg = StudyConfig::test_scale();
  cfg.policy.kind = policy::PolicyKind::kLoadBalancing;
  const RunResult first = run_stream(cfg);
  EXPECT_EQ(first.records, kLoadBalancingRecords);
  EXPECT_EQ(first.stream_crc, kLoadBalancingStreamCrc);

  // Same seed → the same stream, run to run and at any thread count.
  EXPECT_EQ(run_stream(cfg).stream_crc, first.stream_crc);
  StudyConfig threaded = cfg;
  threaded.threads = 2;
  const RunResult sharded = run_stream(threaded);
  EXPECT_EQ(sharded.records, first.records);
  EXPECT_EQ(sharded.stream_crc, first.stream_crc);

  // The policy actually changes the stream, and the stream follows the seed.
  EXPECT_NE(first.stream_crc, kGoldenStreamCrc);
  StudyConfig reseeded = cfg;
  reseeded.seed = cfg.seed + 1;
  reseeded.finalize();
  reseeded.population.count = cfg.population.count;
  EXPECT_NE(run_stream(reseeded).stream_crc, first.stream_crc);
}

TEST(PolicyObservability, CountersAccountForEveryDecision) {
  obs::MetricsRegistry registry;
  obs::ScopedGlobalRegistry install{&registry};

  StudyConfig cfg = StudyConfig::test_scale();
  Simulator sim{cfg};
  sim.run();

  const obs::MetricsSnapshot snap = registry.scrape();
  const auto count = [&snap](const char* name) {
    const auto* c = snap.find_counter(name);
    return c == nullptr ? 0ull : c->value;
  };
  const std::uint64_t handovers = count("tl_policy_handovers_total");
  // Recovery is off at test scale: one record per commanded handover.
  EXPECT_EQ(handovers, sim.records_emitted());
  EXPECT_EQ(count("tl_policy_decisions_total"),
            handovers + count("tl_policy_holds_total"));
  EXPECT_EQ(count("tl_policy_overrides_total"), 0u);  // baseline never diverges
}

TEST(PolicyObservability, LoadBalancingReportsItsDiversions) {
  obs::MetricsRegistry registry;
  obs::ScopedGlobalRegistry install{&registry};

  StudyConfig cfg = StudyConfig::test_scale();
  cfg.policy.kind = policy::PolicyKind::kLoadBalancing;
  Simulator sim{cfg};
  sim.run();

  const obs::MetricsSnapshot snap = registry.scrape();
  const auto* overrides = snap.find_counter("tl_policy_overrides_total");
  ASSERT_NE(overrides, nullptr);
  EXPECT_GT(overrides->value, 0u);
}

// --- ping-pong detector ------------------------------------------------------

TEST(PingPongDetector, RejectsBadConstruction) {
  EXPECT_THROW(analysis::PingPongDetector(-1, 4), std::invalid_argument);
  EXPECT_THROW(analysis::PingPongDetector(5'000, 0), std::invalid_argument);
}

TEST(PingPongDetector, CountsAReverseHopInsideTheWindow) {
  analysis::PingPongDetector det{5'000};
  EXPECT_FALSE(det.observe({1, 1'000, 10, 20}));
  EXPECT_TRUE(det.observe({1, 5'999, 20, 10}));
  EXPECT_EQ(det.hops(), 2u);
  EXPECT_EQ(det.ping_pongs(), 1u);
  EXPECT_EQ(det.bouncing_ues(), 1u);
  EXPECT_DOUBLE_EQ(det.rate(), 0.5);
}

TEST(PingPongDetector, IgnoresAReverseHopOutsideTheWindow) {
  analysis::PingPongDetector det{5'000};
  EXPECT_FALSE(det.observe({1, 1'000, 10, 20}));
  EXPECT_FALSE(det.observe({1, 6'001, 20, 10}));  // 5'001 ms later
  EXPECT_EQ(det.ping_pongs(), 0u);
  EXPECT_EQ(det.bouncing_ues(), 0u);
}

TEST(PingPongDetector, BoundaryIsInclusive) {
  analysis::PingPongDetector det{5'000};
  EXPECT_FALSE(det.observe({1, 0, 10, 20}));
  EXPECT_TRUE(det.observe({1, 5'000, 20, 10}));
}

TEST(PingPongDetector, EachAnchorIsConsumedOnce) {
  // A→B→A→B: the middle B→A anchors on the first A→B, the final A→B anchors
  // on B→A — two ping-pongs, not three.
  analysis::PingPongDetector det{10'000};
  EXPECT_FALSE(det.observe({1, 0, 1, 2}));
  EXPECT_TRUE(det.observe({1, 1'000, 2, 1}));
  EXPECT_TRUE(det.observe({1, 2'000, 1, 2}));
  EXPECT_EQ(det.ping_pongs(), 2u);

  // A second reverse hop cannot reuse the consumed anchor.
  analysis::PingPongDetector det2{10'000};
  EXPECT_FALSE(det2.observe({1, 0, 1, 2}));
  EXPECT_TRUE(det2.observe({1, 1'000, 2, 1}));
  EXPECT_FALSE(det2.observe({1, 1'500, 2, 1}));  // same direction, no anchor
  EXPECT_EQ(det2.ping_pongs(), 1u);
}

TEST(PingPongDetector, UesAreIndependent) {
  analysis::PingPongDetector det{5'000};
  EXPECT_FALSE(det.observe({1, 0, 10, 20}));
  EXPECT_FALSE(det.observe({2, 1'000, 20, 10}));  // other UE: no bounce
  EXPECT_TRUE(det.observe({1, 2'000, 20, 10}));
  EXPECT_EQ(det.bouncing_ues(), 1u);
}

TEST(PingPongDetector, HistoryDepthBoundsTheLookback) {
  // Depth 1: the unrelated hop evicts A→B, so the reverse finds no anchor.
  analysis::PingPongDetector det{60'000, 1};
  EXPECT_FALSE(det.observe({1, 0, 1, 2}));
  EXPECT_FALSE(det.observe({1, 100, 3, 4}));
  EXPECT_FALSE(det.observe({1, 200, 2, 1}));
  EXPECT_EQ(det.ping_pongs(), 0u);

  // Depth 2 keeps both and finds it.
  analysis::PingPongDetector det2{60'000, 2};
  EXPECT_FALSE(det2.observe({1, 0, 1, 2}));
  EXPECT_FALSE(det2.observe({1, 100, 3, 4}));
  EXPECT_TRUE(det2.observe({1, 200, 2, 1}));
}

TEST(PingPongDetector, ResetDropsHistoryAndCounters) {
  analysis::PingPongDetector det{5'000};
  det.observe({1, 0, 10, 20});
  det.observe({1, 100, 20, 10});
  ASSERT_EQ(det.ping_pongs(), 1u);
  det.reset();
  EXPECT_EQ(det.hops(), 0u);
  EXPECT_EQ(det.ping_pongs(), 0u);
  EXPECT_EQ(det.bouncing_ues(), 0u);
  EXPECT_DOUBLE_EQ(det.rate(), 0.0);
  // Pre-reset hops no longer anchor anything.
  EXPECT_FALSE(det.observe({1, 200, 20, 10}));
}

// --- A/B experiment harness --------------------------------------------------

experiment::ExperimentConfig ab_config() {
  experiment::ExperimentConfig cfg;
  cfg.study = StudyConfig::test_scale();
  cfg.study.threads = 0;
  cfg.policy_a.kind = policy::PolicyKind::kCalibratedBaseline;
  cfg.policy_b.kind = policy::PolicyKind::kLoadBalancing;
  cfg.label_a = "baseline";
  cfg.label_b = "load-balancing";
  return cfg;
}

std::string serialized(const experiment::ExperimentReport& report) {
  std::ostringstream os;
  report.serialize(os);
  return os.str();
}

TEST(AbExperiment, BaselineArmMatchesTheGoldenStream) {
  experiment::ExperimentConfig cfg = ab_config();
  cfg.policy_b = cfg.policy_a;  // baseline vs baseline
  const auto report = experiment::AbExperiment{cfg}.run();

  // Arm A runs the default policy on the default world: the golden stream.
  EXPECT_EQ(report.a.records, kGoldenRecords);
  EXPECT_EQ(report.a.stream_crc, kGoldenStreamCrc);

  // Identical arms reduce identically — the null experiment is exactly null.
  EXPECT_EQ(report.b.records, report.a.records);
  EXPECT_EQ(report.b.stream_crc, report.a.stream_crc);
  EXPECT_EQ(report.b.failures, report.a.failures);
  EXPECT_EQ(report.b.ping_pongs, report.a.ping_pongs);
  EXPECT_EQ(report.b.cause_buckets, report.a.cause_buckets);
  EXPECT_DOUBLE_EQ(
      experiment::ExperimentReport::delta_pct(report.a.hof_rate(), report.b.hof_rate()),
      0.0);
}

TEST(AbExperiment, ReportIsDeterministicAcrossRunsAndThreadCounts) {
  const std::string first = serialized(experiment::AbExperiment{ab_config()}.run());
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(serialized(experiment::AbExperiment{ab_config()}.run()), first);

  experiment::ExperimentConfig serial = ab_config();
  serial.study.threads = 1;
  EXPECT_EQ(serialized(experiment::AbExperiment{serial}.run()), first);
}

TEST(AbExperiment, LoadBalancingShrinksTheRuralPeakHourSpike) {
  const auto report = experiment::AbExperiment{ab_config()}.run();

  // The headline claims ab_study prints, pinned as regressions: load-aware
  // target re-selection must keep beating the baseline on the rural
  // peak-hour HOF rate, with the →3G share moving (quantifiably) too.
  EXPECT_GT(report.a.failures, 0u);
  EXPECT_LT(report.b.hof_rate(), report.a.hof_rate());
  const auto rural = report.peak_hour_diff(geo::AreaType::kRural);
  EXPECT_LT(rural.b_rate, rural.a_rate);
  EXPECT_NE(report.b.share_to(topology::ObservedRat::kG3),
            report.a.share_to(topology::ObservedRat::kG3));
}

}  // namespace
}  // namespace tl
