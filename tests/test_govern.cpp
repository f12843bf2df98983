// Resource-governance tests: MemoryBudget accounting + hysteretic pressure
// levels, PressurePlan injection, BackpressureGate semantics and the
// throttled-merge byte-identity proof, the allocation-failure status
// taxonomy with governor-granted degraded retries, WAL follow() hardening
// for runt segments, checkpoint-under-ENOSPC, and the pressure chaos suite:
// seeded budget-clamp schedules (TL_CHAOS_SCHEDULES elevates the count in
// CI) under which a governed WalTailer either converges byte-identically to
// an unpressured oracle or emits explicit degradation events whose
// certified rank-error bounds hold against an exact ECDF over the declared
// admitted substream — with national tallies exact either way.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/ecdf.hpp"
#include "exec/sharded_runner.hpp"
#include "govern/governor.hpp"
#include "io/faulty_file.hpp"
#include "io/file.hpp"
#include "serve/stream_aggregates.hpp"
#include "serve/wal_tailer.hpp"
#include "supervise/retry.hpp"
#include "supervise/status.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/sinks.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tl {
namespace {

using govern::Accountant;
using govern::BackpressureGate;
using govern::MemoryBudget;
using govern::PressureLevel;
using govern::PressurePlan;
using govern::ScopedGlobalGovernor;
using serve::DegradeLevel;
using serve::StreamAggregates;
using serve::WalTailer;
using telemetry::HandoverRecord;
using telemetry::LogCursor;
using telemetry::RecordLog;
using telemetry::TailState;

namespace stdfs = std::filesystem;

// --- helpers (mirroring tests/test_serve.cpp) --------------------------------

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "tl_govern_" + name) {
    stdfs::remove_all(path);
  }
  ~TempDir() { stdfs::remove_all(path); }
  std::string path;
};

/// Deterministic in (day, i) — the chaos proofs rebuild the "true" stream
/// from these, including the declared sampled substream.
HandoverRecord make_record(int day, std::uint32_t i) {
  HandoverRecord r;
  r.timestamp = static_cast<util::TimestampMs>(day) * util::kMsPerDay +
                500 * static_cast<util::TimestampMs>(i + 1);
  r.success = (i % 5) != 0;
  r.duration_ms = (i % 83 == 0) ? std::numeric_limits<float>::quiet_NaN()
                                : 25.0f + static_cast<float>((i * 7 + day) % 120);
  r.cause = r.success ? corenet::kCauseNone
                      : static_cast<corenet::CauseId>(2 + i % 4);
  r.anon_user_id = 0xAB00000000ULL + i;
  r.source_sector = 100 + i % 17;
  r.target_sector = 200 + i % 13;
  r.source_rat = topology::ObservedRat::kG45Nsa;
  r.target_rat = static_cast<topology::ObservedRat>(i % 3);
  r.device_type = static_cast<devices::DeviceType>(i % 3);
  r.manufacturer = static_cast<devices::ManufacturerId>(i % 5);
  r.postcode = 700 + i % 9;
  r.district = static_cast<geo::DistrictId>(1 + i % 6);
  r.area = (i % 2) ? geo::AreaType::kUrban : geo::AreaType::kRural;
  r.region = geo::Region::kCapital;
  r.vendor = static_cast<topology::Vendor>(i % 4);
  r.srvcc = (i % 11 == 0);
  r.attempt = static_cast<std::uint8_t>(i % 2);
  return r;
}

constexpr int kPerDay = 150;

void build_wal(const std::string& dir, int days,
               std::uint64_t max_segment_bytes = 16 * 1024) {
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = dir;
  opt.max_segment_bytes = max_segment_bytes;
  opt.write_chunk_bytes = 512;
  RecordLog log{real, opt};
  log.open();
  for (int day = 0; day < days; ++day) {
    for (std::uint32_t i = 0; i < kPerDay; ++i) log.append(make_record(day, i));
    const std::vector<std::uint8_t> state{static_cast<std::uint8_t>(day), 0x5A};
    log.commit_day(day, state);
  }
}

void copy_wal(const std::string& from, const std::string& to) {
  stdfs::create_directories(to);
  auto& real = io::StdioFileSystem::instance();
  for (const auto& name : real.list(from, "wal-")) {
    stdfs::copy_file(from + "/" + name, to + "/" + name,
                     stdfs::copy_options::overwrite_existing);
  }
}

struct CollectingSink final : telemetry::RecordSink {
  std::vector<HandoverRecord> records;
  std::vector<int> days;
  void consume(const HandoverRecord& r) override { records.push_back(r); }
  void on_day_end(int day) override { days.push_back(day); }
};

int chaos_schedule_count() {
  if (const char* env = std::getenv("TL_CHAOS_SCHEDULES")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 100;
}

// --- MemoryBudget ------------------------------------------------------------

TEST(MemoryBudget, AccountantsShareSlotsByNameAndTrackPeak) {
  MemoryBudget budget;  // budget 0: accounting only, always Steady
  Accountant a1 = budget.accountant("shard_buffers");
  Accountant a2 = budget.accountant("shard_buffers");
  Accountant b = budget.accountant("wal_day_buffer");
  EXPECT_TRUE(a1.live());

  a1.add(100);
  a2.add(50);
  b.add(25);
  EXPECT_EQ(a1.bytes(), 150u);  // same slot, both holders combined
  EXPECT_EQ(a2.bytes(), 150u);
  EXPECT_EQ(b.bytes(), 25u);
  EXPECT_EQ(budget.used_bytes(), 175u);
  EXPECT_EQ(budget.peak_bytes(), 175u);

  a2.sub(150);
  EXPECT_EQ(budget.used_bytes(), 25u);
  EXPECT_EQ(budget.peak_bytes(), 175u);  // high-water mark sticks
  EXPECT_EQ(budget.level(), PressureLevel::kSteady);

  const MemoryBudget::Snapshot snap = budget.snapshot();
  ASSERT_EQ(snap.accounts.size(), 2u);  // name-sorted
  EXPECT_EQ(snap.accounts[0].name, "shard_buffers");
  EXPECT_EQ(snap.accounts[0].bytes, 0u);
  EXPECT_EQ(snap.accounts[1].name, "wal_day_buffer");
  EXPECT_EQ(snap.accounts[1].bytes, 25u);
  EXPECT_EQ(snap.peak_bytes, 175u);

  // Null-safe handle: every operation is a no-op.
  Accountant null_handle;
  EXPECT_FALSE(null_handle.live());
  null_handle.add(1 << 30);
  null_handle.sub(1);
  EXPECT_EQ(null_handle.bytes(), 0u);
  EXPECT_EQ(budget.used_bytes(), 25u);
}

TEST(MemoryBudget, HystereticLevelsUpgradeAtThresholdDowngradeBelowMargin) {
  MemoryBudget::Options opt;
  opt.budget_bytes = 1000;  // elevated 700, critical 900, hysteresis 50
  MemoryBudget budget{opt};
  Accountant a = budget.accountant("x");

  EXPECT_EQ(budget.level(), PressureLevel::kSteady);
  a.add(699);
  EXPECT_EQ(budget.level(), PressureLevel::kSteady);
  a.add(1);  // 700: at the threshold upgrades
  EXPECT_EQ(budget.level(), PressureLevel::kElevated);
  a.sub(40);  // 660: inside the hysteresis band, holds
  EXPECT_EQ(budget.level(), PressureLevel::kElevated);
  a.sub(11);  // 649 < 700 - 50: downgrades
  EXPECT_EQ(budget.level(), PressureLevel::kSteady);
  a.add(251);  // 900: straight to Critical from Steady
  EXPECT_EQ(budget.level(), PressureLevel::kCritical);
  a.sub(31);  // 869 >= 850: holds Critical
  EXPECT_EQ(budget.level(), PressureLevel::kCritical);
  a.sub(20);  // 849 < 900 - 50, still >= 700: Elevated
  EXPECT_EQ(budget.level(), PressureLevel::kElevated);
  a.sub(700);  // 149: back to Steady
  EXPECT_EQ(budget.level(), PressureLevel::kSteady);
}

TEST(MemoryBudget, PlanClampsApplyAtTicksAndValidateOrdering) {
  PressurePlan plan;
  plan.add(2, 500);
  plan.add(5, 1000);
  EXPECT_EQ(plan.at(0), nullptr);
  EXPECT_EQ(plan.at(1), nullptr);
  ASSERT_NE(plan.at(2), nullptr);
  EXPECT_EQ(plan.at(2)->budget_bytes, 500u);
  EXPECT_EQ(plan.at(4)->budget_bytes, 500u);  // largest scheduled tick <= 4
  EXPECT_EQ(plan.at(5)->budget_bytes, 1000u);
  EXPECT_EQ(plan.at(99)->budget_bytes, 1000u);

  MemoryBudget::Options opt;
  opt.budget_bytes = 1000;
  MemoryBudget budget{opt};
  budget.set_plan(plan);
  Accountant a = budget.accountant("x");
  a.add(400);

  EXPECT_EQ(budget.budget_bytes(), 1000u);  // tick 0: no clamp yet
  EXPECT_EQ(budget.level(), PressureLevel::kSteady);
  budget.tick();
  budget.tick();
  EXPECT_EQ(budget.ticks(), 2u);
  EXPECT_EQ(budget.budget_bytes(), 500u);
  EXPECT_EQ(budget.level(), PressureLevel::kElevated);  // 400 >= 0.7 * 500
  budget.set_tick(5);  // restart path: clock restored, clamp re-resolved
  EXPECT_EQ(budget.budget_bytes(), 1000u);
  EXPECT_EQ(budget.level(), PressureLevel::kSteady);

  PressurePlan unordered;
  unordered.add(3, 100);
  unordered.add(3, 200);
  EXPECT_THROW(budget.set_plan(unordered), std::invalid_argument);
}

TEST(MemoryBudget, AllocationFailurePinsCriticalForHoldTicks) {
  MemoryBudget::Options opt;
  opt.budget_bytes = 1000;
  MemoryBudget budget{opt};
  ASSERT_EQ(MemoryBudget::kAllocFailureHoldTicks, 2u);

  EXPECT_EQ(budget.level(), PressureLevel::kSteady);
  budget.record_allocation_failure();
  EXPECT_EQ(budget.allocation_failures(), 1u);
  EXPECT_EQ(budget.level(), PressureLevel::kCritical);  // pinned at zero usage
  budget.tick();
  EXPECT_EQ(budget.level(), PressureLevel::kCritical);  // tick 1 < hold 2
  budget.tick();
  EXPECT_EQ(budget.level(), PressureLevel::kSteady);  // hold expired, usage 0

  // set_tick (the restart path) clears the hold: it was process-local.
  budget.record_allocation_failure();
  budget.set_tick(0);
  EXPECT_EQ(budget.level(), PressureLevel::kSteady);
}

TEST(MemoryBudget, ChaosPlanIsSeedDeterministicAndBounded) {
  const PressurePlan p1 = PressurePlan::chaos(7, 50, 1000, 100);
  const PressurePlan p2 = PressurePlan::chaos(7, 50, 1000, 100);
  ASSERT_EQ(p1.clamps().size(), p2.clamps().size());
  ASSERT_FALSE(p1.empty());
  std::uint64_t prev_tick = 0;
  for (std::size_t i = 0; i < p1.clamps().size(); ++i) {
    EXPECT_EQ(p1.clamps()[i].tick, p2.clamps()[i].tick);
    EXPECT_EQ(p1.clamps()[i].budget_bytes, p2.clamps()[i].budget_bytes);
    EXPECT_GT(p1.clamps()[i].tick, prev_tick);  // strictly ascending
    prev_tick = p1.clamps()[i].tick;
    EXPECT_LE(p1.clamps()[i].tick, 50u);
    EXPECT_GE(p1.clamps()[i].budget_bytes, 100u);
    EXPECT_LE(p1.clamps()[i].budget_bytes, 1000u);
  }
  EXPECT_TRUE(PressurePlan::chaos(7, 0, 1000, 100).empty());
}

TEST(MemoryBudget, GlobalGovernorInstallBumpsEpochAndScopesRestore) {
  ASSERT_EQ(govern::global_governor(), nullptr);
  EXPECT_FALSE(govern::account("anything").live());

  const std::uint64_t before = govern::global_epoch();
  MemoryBudget budget;
  {
    ScopedGlobalGovernor install{&budget};
    EXPECT_EQ(govern::global_governor(), &budget);
    EXPECT_GT(govern::global_epoch(), before);
    Accountant a = govern::account("scoped");
    EXPECT_TRUE(a.live());
    a.add(7);
    EXPECT_EQ(budget.used_bytes(), 7u);
  }
  EXPECT_EQ(govern::global_governor(), nullptr);
  EXPECT_GT(govern::global_epoch(), before + 1);  // install + restore
}

// --- BackpressureGate --------------------------------------------------------

TEST(BackpressureGate, WindowZeroAdmitsEverythingImmediately) {
  BackpressureGate gate{0};
  gate.acquire(1'000'000);  // would block forever if the window applied
  EXPECT_EQ(gate.waits(), 0u);
}

TEST(BackpressureGate, BlocksPastWindowUntilReleased) {
  BackpressureGate gate{2};
  gate.acquire(0);
  gate.acquire(1);
  EXPECT_EQ(gate.waits(), 0u);

  std::atomic<bool> admitted{false};
  std::thread producer{[&] {
    gate.acquire(2);  // needs 2 < retired + 2, i.e. one release
    admitted.store(true);
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());
  gate.release();
  producer.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(gate.waits(), 1u);
}

TEST(BackpressureGate, OpenPermanentlyUnblocksWaiters) {
  BackpressureGate gate{1};
  std::thread producer{[&] { gate.acquire(5); }};
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.open();  // the consumer's error path
  producer.join();
  gate.acquire(99);  // and stays open
  SUCCEED();
}

// --- throttled merge byte-identity -------------------------------------------

/// Runs a deterministic per-item payload through the runner and returns the
/// merged stream; also reports the peak number of admitted-but-unmerged
/// shards, which the gate must bound. 12 shards of 250 items at every
/// thread count, so every window below (auto included) throttles.
std::vector<std::uint64_t> run_throttled(unsigned threads, std::size_t window,
                                         std::size_t* peak_live = nullptr) {
  exec::ShardedDayRunner::Options opt;
  opt.threads = threads;
  opt.items_per_shard = 250;
  opt.max_live_shards = window;
  exec::ShardedDayRunner runner{opt};

  constexpr std::size_t kItems = 3000;
  const std::size_t shards = runner.shard_count(kItems);
  std::vector<std::vector<std::uint64_t>> per_shard(shards);
  std::vector<std::uint64_t> merged;
  std::atomic<std::size_t> live{0};
  std::atomic<std::size_t> peak{0};
  runner.run(
      kItems,
      [&](std::size_t shard, std::size_t first, std::size_t last) {
        const std::size_t now = live.fetch_add(1) + 1;
        std::size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        for (std::size_t i = first; i < last; ++i) {
          per_shard[shard].push_back(util::derive_seed(0xFACADE, i, 1));
        }
      },
      [&](std::size_t shard) {
        live.fetch_sub(1);
        merged.insert(merged.end(), per_shard[shard].begin(),
                      per_shard[shard].end());
        per_shard[shard].clear();
      });
  if (peak_live != nullptr) *peak_live = peak.load();
  return merged;
}

TEST(BackpressureRunner, ThrottledMergeIsByteIdenticalAtEveryWindow) {
  const std::vector<std::uint64_t> reference = run_throttled(1, 0);
  for (const unsigned threads : {2u, 4u}) {
    for (const std::size_t window : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{0}}) {
      std::size_t peak_live = 0;
      const std::vector<std::uint64_t> merged =
          run_throttled(threads, window, &peak_live);
      EXPECT_EQ(merged, reference)
          << "threads=" << threads << " window=" << window;
      // The footprint bound: never more than `window` shards admitted
      // past the gate and not yet merged; auto is 2 x threads at Steady.
      EXPECT_LE(peak_live, window > 0 ? window : 2 * threads)
          << "threads=" << threads << " window=" << window;
    }
  }
}

TEST(BackpressureRunner, AutoWindowClampsUnderPressureWithoutChangingBytes) {
  const std::vector<std::uint64_t> reference = run_throttled(1, 0);
  MemoryBudget::Options opt;
  opt.budget_bytes = 100;
  MemoryBudget governor{opt};
  Accountant a = governor.accountant("synthetic");
  a.add(95);  // Critical on the next level() read
  ScopedGlobalGovernor install{&governor};
  EXPECT_EQ(governor.level(), PressureLevel::kCritical);
  std::size_t peak_live = 0;
  EXPECT_EQ(run_throttled(4, 0, &peak_live), reference);
  EXPECT_LE(peak_live, 4u);  // clamped to one shard per worker
}

// --- allocation-failure taxonomy + degraded retries --------------------------

Status classify(const std::function<void()>& thrower) {
  try {
    thrower();
  } catch (...) {
    return supervise::classify_exception(std::current_exception());
  }
  return Status::ok();
}

TEST(StatusTaxonomy, AllocationFailuresAreResourceExhausted) {
  EXPECT_EQ(classify([] { throw std::bad_alloc{}; }).code(),
            StatusCode::kResourceExhausted);
  // length_error is an allocation failure wearing logic_error's coat:
  // vector::reserve past max_size throws it on the same code paths.
  EXPECT_EQ(classify([] { throw std::length_error{"reserve"}; }).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(classify([] { throw std::logic_error{"bug"}; }).code(),
            StatusCode::kInternal);

  EXPECT_FALSE(is_retryable(StatusCode::kResourceExhausted));
  EXPECT_TRUE(is_retryable_with_degradation(StatusCode::kResourceExhausted));
  EXPECT_FALSE(is_retryable_with_degradation(StatusCode::kUnavailable));
  EXPECT_FALSE(is_retryable_with_degradation(StatusCode::kInternal));
}

TEST(DegradedRetry, GovernorGrantsExactlyOneDegradedRetry) {
  MemoryBudget governor;
  ScopedGlobalGovernor install{&governor};
  supervise::RetryPolicy policy;
  policy.max_retries = 0;  // no ordinary retries: the grant must be explicit
  policy.backoff_initial_ms = 0;

  int calls = 0;
  const supervise::RetryReport report = supervise::run_with_retries(
      policy, "alloc", [&](const supervise::CancelToken&) {
        if (++calls == 1) throw std::bad_alloc{};
      });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.degraded_retries, 1);
  EXPECT_EQ(calls, 2);
  // The grant escalated the governor first, so the retry ran degraded.
  EXPECT_EQ(governor.allocation_failures(), 1u);
}

TEST(DegradedRetry, SecondAllocationFailureIsPermanent) {
  MemoryBudget governor;
  ScopedGlobalGovernor install{&governor};
  supervise::RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_initial_ms = 0;

  int calls = 0;
  const supervise::RetryReport report = supervise::run_with_retries(
      policy, "alloc", [&](const supervise::CancelToken&) {
        ++calls;
        throw std::bad_alloc{};
      });
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(report.degraded_retries, 1);
  EXPECT_EQ(calls, 2);  // original + the one degraded grant, never a third
}

TEST(DegradedRetry, WithoutGovernorResourceExhaustionFailsFast) {
  ASSERT_EQ(govern::global_governor(), nullptr);
  supervise::RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_initial_ms = 0;

  int calls = 0;
  const supervise::RetryReport report = supervise::run_with_retries(
      policy, "alloc", [&](const supervise::CancelToken&) {
        ++calls;
        throw std::bad_alloc{};
      });
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(report.degraded_retries, 0);
  EXPECT_EQ(calls, 1);  // nothing to degrade with: fail fast, don't thrash
}

// --- follow() hardening: runt segments ---------------------------------------

TEST(RecordLogFollow, RuntTailSegmentIsPendingUntilASuccessorAppears) {
  TempDir dir{"runt_tail"};
  build_wal(dir.path, 2, 4 * 1024);
  auto& real = io::StdioFileSystem::instance();

  LogCursor cursor;
  CollectingSink sink;
  auto result = RecordLog::follow(real, dir.path, cursor, sink);
  EXPECT_EQ(result.state, TailState::kClean);
  ASSERT_EQ(sink.days.size(), 2u);

  // A zero-length segment at the end of the chain is a writer caught
  // mid-roll: the header may still arrive, so the reader must wait.
  const std::uint32_t next =
      static_cast<std::uint32_t>(real.list(dir.path, "wal-").size());
  { std::ofstream os{dir.path + "/" + RecordLog::segment_name(next)}; }
  result = RecordLog::follow(real, dir.path, cursor, sink);
  EXPECT_EQ(result.state, TailState::kPending);
  EXPECT_EQ(result.days_delivered, 0u);

  // The moment a successor segment exists, that runt can never grow again
  // (the writer only appends to the newest segment): torn, not pending —
  // otherwise a reader polls kPending forever on a chain recovery will fix.
  { std::ofstream os{dir.path + "/" + RecordLog::segment_name(next + 1)}; }
  result = RecordLog::follow(real, dir.path, cursor, sink);
  EXPECT_EQ(result.state, TailState::kTorn);
}

TEST(RecordLogFollow, HeaderOnlyRuntMidChainIsTornAndWriterRecoveryUnsticksIt) {
  TempDir dir{"runt_recovery"};
  build_wal(dir.path, 1, 4 * 1024);
  auto& real = io::StdioFileSystem::instance();

  LogCursor cursor;
  CollectingSink sink;
  ASSERT_EQ(RecordLog::follow(real, dir.path, cursor, sink).state,
            TailState::kClean);

  // A short (< header) runt with bytes in it, mid-chain.
  const std::uint32_t next =
      static_cast<std::uint32_t>(real.list(dir.path, "wal-").size());
  {
    std::ofstream os{dir.path + "/" + RecordLog::segment_name(next),
                     std::ios::binary};
    os.write("TLWALOG", 7);  // 7 bytes: less than the 16-byte header
  }
  { std::ofstream os{dir.path + "/" + RecordLog::segment_name(next + 1)}; }
  auto result = RecordLog::follow(real, dir.path, cursor, sink);
  EXPECT_EQ(result.state, TailState::kTorn);

  // Writer recovery drops the runts and re-rolls; the stuck reader's cursor
  // then resumes over the repaired chain without losing a day.
  RecordLog::Options opt;
  opt.directory = dir.path;
  opt.max_segment_bytes = 4 * 1024;
  opt.write_chunk_bytes = 512;
  RecordLog log{real, opt};
  log.open();
  for (std::uint32_t i = 0; i < kPerDay; ++i) log.append(make_record(1, i));
  log.commit_day(1, {});

  result = RecordLog::follow(real, dir.path, cursor, sink);
  EXPECT_EQ(result.state, TailState::kClean);
  ASSERT_EQ(sink.days.size(), 2u);
  EXPECT_EQ(sink.days.back(), 1);
  EXPECT_EQ(sink.records.size(), static_cast<std::size_t>(2 * kPerDay));
}

// --- checkpoint under ENOSPC -------------------------------------------------

TEST(WalTailerEnospc, CheckpointFailsCleanlyAndResumesWhenSpaceReturns) {
  TempDir root{"enospc"};
  const std::string wal = root.path + "/wal";
  build_wal(wal, 4);
  auto& real = io::StdioFileSystem::instance();

  StreamAggregates::Options agg_opt;
  agg_opt.window_days = 3;
  agg_opt.sketch_k = 32;
  StreamAggregates oracle{agg_opt};
  RecordLog::replay(real, wal, oracle);
  std::vector<std::uint8_t> oracle_bytes;
  oracle.serialize(oracle_bytes);

  WalTailer::Options opt;
  opt.wal_directory = wal;
  opt.checkpoint_path = root.path + "/serve.ckpt";
  opt.window_days = agg_opt.window_days;
  opt.sketch_k = agg_opt.sketch_k;
  opt.checkpoint_every_days = 1;
  opt.max_days_per_poll = 1;

  io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};
  WalTailer tailer{ffs, opt};
  tailer.open();
  const auto first = tailer.poll();  // day 0: delivered and checkpointed
  EXPECT_TRUE(first.checkpointed);
  const telemetry::LogCursor durable_before = tailer.durable_cursor();

  // The disk fills. Reads (follow) still work, so the poll ingests the next
  // day — but the checkpoint write cannot commit and must surface as a
  // clean, retryable IoError, leaving the previous checkpoint untouched.
  ffs.set_disk_full(true);
  EXPECT_THROW(tailer.poll(), io::IoError);
  EXPECT_EQ(tailer.durable_cursor().segment, durable_before.segment);
  EXPECT_EQ(tailer.durable_cursor().offset, durable_before.offset);

  // A cold restart right now (real fs) must come up from the intact old
  // checkpoint and still reach the oracle bytes.
  {
    WalTailer restarted{real, opt};
    restarted.open();
    while (restarted.poll().state != TailState::kClean) {
    }
    std::vector<std::uint8_t> bytes;
    restarted.aggregates().serialize(bytes);
    EXPECT_EQ(bytes, oracle_bytes);
  }

  // Space returns: the same tailer instance finishes and checkpoints.
  ffs.set_disk_full(false);
  bool checkpointed = false;
  while (true) {
    const auto r = tailer.poll();
    checkpointed = checkpointed || r.checkpointed;
    if (r.state == TailState::kClean) break;
  }
  EXPECT_TRUE(checkpointed);
  std::vector<std::uint8_t> bytes;
  tailer.aggregates().serialize(bytes);
  EXPECT_EQ(bytes, oracle_bytes);

  // And the final checkpoint is durable: a fresh tailer resumes clean with
  // nothing to re-deliver.
  WalTailer resumed{real, opt};
  resumed.open();
  const auto r = resumed.poll();
  EXPECT_EQ(r.state, TailState::kClean);
  EXPECT_EQ(r.days_delivered, 0u);
  std::vector<std::uint8_t> resumed_bytes;
  resumed.aggregates().serialize(resumed_bytes);
  EXPECT_EQ(resumed_bytes, oracle_bytes);
}

// --- degradation ladder ------------------------------------------------------

/// Feeds days [0, days) of the canonical stream into `aggs`.
void feed_days(StreamAggregates& aggs, int first, int count) {
  for (int day = first; day < first + count; ++day) {
    for (std::uint32_t i = 0; i < kPerDay; ++i) aggs.consume(make_record(day, i));
    aggs.on_day_end(day);
  }
}

TEST(DegradationLadder, SketchOnlyShedsMapsButKeepsNationalTalliesExact) {
  StreamAggregates::Options opt;
  opt.window_days = 4;
  opt.sketch_k = 32;
  StreamAggregates exact{opt};
  feed_days(exact, 0, 4);

  StreamAggregates degraded{opt};
  feed_days(degraded, 0, 2);
  StreamAggregates::DegradeDecision decision;
  decision.level = DegradeLevel::kSketchOnly;
  decision.used_bytes = 9000;
  decision.budget_bytes = 10000;
  degraded.apply_degrade(decision, 2);
  feed_days(degraded, 2, 2);

  // The step was recorded, with the shed detail counted: both window days'
  // district maps plus the lifetime sector map.
  ASSERT_EQ(degraded.degradation_events().size(), 1u);
  const auto& event = degraded.degradation_events()[0];
  EXPECT_EQ(event.from, DegradeLevel::kExact);
  EXPECT_EQ(event.to, DegradeLevel::kSketchOnly);
  EXPECT_EQ(event.effective_day, 2);
  EXPECT_EQ(event.used_bytes, 9000u);
  EXPECT_GT(event.shed_district_keys, 0u);
  EXPECT_GT(event.shed_sector_keys, 0u);

  // Detail shed: district and sector maps stop accumulating...
  EXPECT_TRUE(degraded.sectors().empty());
  for (const auto& day : degraded.window()) {
    EXPECT_TRUE(day.by_district.empty()) << "day " << day.day;
  }
  // ...but nothing else moved: national/vendor/RAT tallies and the sketch
  // are the exact run's (kSketchOnly keeps the sketch full-rate).
  const auto exact_report = exact.report();
  const auto degraded_report = degraded.report();
  EXPECT_EQ(degraded.total_records(), exact.total_records());
  EXPECT_EQ(degraded.total_failures(), exact.total_failures());
  EXPECT_EQ(degraded_report.handovers, exact_report.handovers);
  EXPECT_EQ(degraded_report.failures, exact_report.failures);
  EXPECT_EQ(degraded_report.sketch_count, exact_report.sketch_count);
  EXPECT_EQ(degraded_report.p50_ms, exact_report.p50_ms);
  for (std::size_t v = 0; v < degraded_report.by_vendor.size(); ++v) {
    EXPECT_EQ(degraded_report.by_vendor[v].handovers,
              exact_report.by_vendor[v].handovers);
    EXPECT_EQ(degraded_report.by_vendor[v].failures,
              exact_report.by_vendor[v].failures);
  }
  EXPECT_EQ(degraded_report.degraded_days, 2u);
  EXPECT_EQ(degraded_report.district_detail_days, 0u);
}

TEST(DegradationLadder, SampledAdmissionIsContentKeyedAndCounted) {
  StreamAggregates::Options opt;
  opt.window_days = 2;
  opt.sketch_k = 32;
  opt.sample_modulus = 4;
  StreamAggregates aggs{opt};
  StreamAggregates::DegradeDecision decision;
  decision.level = DegradeLevel::kSampled;
  aggs.apply_degrade(decision, 0);
  feed_days(aggs, 0, 1);

  // The sketch holds exactly the declared substream: successful, finite,
  // admitted by the pure content hash at modulus 4.
  std::uint64_t expected = 0;
  for (std::uint32_t i = 0; i < kPerDay; ++i) {
    const HandoverRecord r = make_record(0, i);
    if (!r.success || std::isnan(r.duration_ms)) continue;
    if (StreamAggregates::sample_admits(r, 4)) ++expected;
  }
  ASSERT_GT(expected, 0u);
  ASSERT_LT(expected, static_cast<std::uint64_t>(kPerDay));
  const auto report = aggs.report();
  EXPECT_EQ(report.sketch_count, expected);
  EXPECT_EQ(report.max_sample_modulus, 4u);
  // National tallies are untouched by sampling: every record counted.
  EXPECT_EQ(aggs.total_records(), static_cast<std::uint64_t>(kPerDay));

  // Admission is a pure function of record content.
  const HandoverRecord probe = make_record(0, 17);
  EXPECT_EQ(StreamAggregates::sample_admits(probe, 4),
            StreamAggregates::sample_admits(probe, 4));
  EXPECT_TRUE(StreamAggregates::sample_admits(probe, 1));
}

TEST(DegradationLadder, EventsSurviveSerializationAndRejectCorruption) {
  StreamAggregates::Options opt;
  opt.window_days = 3;
  opt.sketch_k = 32;
  opt.sample_modulus = 8;
  StreamAggregates aggs{opt};
  feed_days(aggs, 0, 1);
  StreamAggregates::DegradeDecision down;
  down.level = DegradeLevel::kSampled;
  down.used_bytes = 5000;
  down.budget_bytes = 4000;
  aggs.apply_degrade(down, 1);
  feed_days(aggs, 1, 1);
  StreamAggregates::DegradeDecision up;
  up.level = DegradeLevel::kExact;
  aggs.apply_degrade(up, 2);
  feed_days(aggs, 2, 1);

  std::vector<std::uint8_t> bytes;
  aggs.serialize(bytes);
  const StreamAggregates restored = StreamAggregates::deserialize(bytes);
  std::vector<std::uint8_t> round_trip;
  restored.serialize(round_trip);
  EXPECT_EQ(round_trip, bytes);
  ASSERT_EQ(restored.degradation_events().size(), 2u);
  EXPECT_EQ(restored.degradation_events()[0].to, DegradeLevel::kSampled);
  EXPECT_EQ(restored.degradation_events()[0].sample_modulus, 8u);
  EXPECT_EQ(restored.degradation_events()[1].to, DegradeLevel::kExact);
  EXPECT_EQ(restored.level(), DegradeLevel::kExact);
  ASSERT_EQ(restored.window().size(), 3u);
  EXPECT_EQ(restored.window()[1].degrade_level, DegradeLevel::kSampled);
  EXPECT_EQ(restored.window()[1].sample_modulus, 8u);
  EXPECT_EQ(restored.window()[2].degrade_level, DegradeLevel::kExact);

  // Flipping any byte of the image must be caught by structural validation
  // or change the decoded state — never be silently absorbed. Spot-check a
  // corruption in the new v2 fields: an impossible degrade level.
  ASSERT_FALSE(bytes.empty());
  bool rejected_some = false;
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[pos] ^= 0xFF;
    try {
      const StreamAggregates decoded = StreamAggregates::deserialize(mutated);
      std::vector<std::uint8_t> re;
      decoded.serialize(re);
      EXPECT_NE(re, bytes) << "corruption at " << pos << " vanished";
    } catch (const std::runtime_error&) {
      rejected_some = true;
    }
  }
  EXPECT_TRUE(rejected_some);
}

TEST(DegradationLadder, EventJournalCapDropsOldestAndCountsThem) {
  StreamAggregates::Options opt;
  opt.window_days = 2;
  opt.sketch_k = 32;
  StreamAggregates aggs{opt};
  for (std::size_t i = 0; i < StreamAggregates::kMaxEvents + 10; ++i) {
    StreamAggregates::DegradeDecision d;
    d.level = (i % 2 == 0) ? DegradeLevel::kSketchOnly : DegradeLevel::kExact;
    aggs.apply_degrade(d, static_cast<int>(i));
    aggs.on_day_end(static_cast<int>(i));
  }
  EXPECT_EQ(aggs.degradation_events().size(), StreamAggregates::kMaxEvents);
  EXPECT_EQ(aggs.degradation_events_dropped(), 10u);
  std::vector<std::uint8_t> bytes;
  aggs.serialize(bytes);
  const StreamAggregates restored = StreamAggregates::deserialize(bytes);
  EXPECT_EQ(restored.degradation_events_dropped(), 10u);
}

// --- the pressure chaos suite ------------------------------------------------

// Every seeded schedule drives a governed WalTailer with a chaotic budget
// plan while seeded I/O faults kill and recover it. The verdict, per
// schedule:
//   - the survivor's serialized aggregates are byte-identical to an
//     UNINTERRUPTED governed run under the same plan (pressure history is
//     deterministic across kill/recover);
//   - if the plan never forced a degradation, those bytes equal the
//     unpressured oracle's exactly;
//   - if it did, the degradation is certified: an explicit well-formed
//     event journal, national/vendor/RAT tallies still exactly equal to the
//     oracle's (detail was shed, data was not), the sketch population is
//     exactly the declared content-keyed substream, and the reported
//     quantiles respect the certified rank-error bound against an exact
//     ECDF built over that substream;
//   - zero allocation failures anywhere.
TEST(PressureChaos, GovernedTailerConvergesOrCertifiesItsDegradation) {
  constexpr int kDays = 10;
  TempDir root{"pressure_chaos"};
  const std::string wal = root.path + "/wal";
  build_wal(wal, kDays);
  auto& real = io::StdioFileSystem::instance();

  StreamAggregates::Options agg_opt;
  agg_opt.window_days = 4;
  agg_opt.sketch_k = 32;
  agg_opt.sample_modulus = 4;

  StreamAggregates oracle{agg_opt};
  RecordLog::replay(real, wal, oracle);
  std::vector<std::uint8_t> oracle_bytes;
  oracle.serialize(oracle_bytes);
  const StreamAggregates::WindowReport oracle_report = oracle.report();
  const std::uint64_t steady_bytes = oracle.approximate_bytes();
  ASSERT_GT(steady_bytes, 0u);
  const std::uint64_t base_budget = steady_bytes * 2;
  const std::uint64_t floor_budget = steady_bytes / 3;

  const auto make_options = [&](const std::string& dir) {
    WalTailer::Options o;
    o.wal_directory = dir;
    o.checkpoint_path = dir + "/serve.ckpt";
    o.window_days = agg_opt.window_days;
    o.sketch_k = agg_opt.sketch_k;
    o.sample_modulus = agg_opt.sample_modulus;
    o.checkpoint_every_days = 1;
    o.max_days_per_poll = 2;
    return o;
  };
  MemoryBudget::Options governor_options;
  governor_options.budget_bytes = base_budget;

  // Fault-free governed-less pass sizes the crash horizon in storage ops.
  std::uint64_t horizon = 0;
  {
    const std::string dir = root.path + "/dry";
    copy_wal(wal, dir);
    io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};
    WalTailer tailer{ffs, make_options(dir)};
    tailer.open();
    while (tailer.poll().state != TailState::kClean) {
    }
    horizon = ffs.ops();
    std::vector<std::uint8_t> bytes;
    tailer.aggregates().serialize(bytes);
    ASSERT_EQ(bytes, oracle_bytes);
  }
  ASSERT_GT(horizon, 0u);

  const int schedules = chaos_schedule_count();
  int degraded_schedules = 0;
  int clean_schedules = 0;
  int total_crashes = 0;
  std::uint64_t total_events = 0;

  for (int s = 0; s < schedules; ++s) {
    SCOPED_TRACE("schedule " + std::to_string(s));
    const PressurePlan plan = PressurePlan::chaos(
        util::derive_seed(0x6E55ULL, static_cast<std::uint64_t>(s), 1), kDays,
        base_budget, floor_budget);

    // The pressured oracle: same plan, no I/O faults, one process lifetime.
    std::vector<std::uint8_t> pressured_bytes;
    {
      const std::string dir = root.path + "/oracle";
      stdfs::remove_all(dir);
      copy_wal(wal, dir);
      MemoryBudget governor{governor_options};
      governor.set_plan(plan);
      ScopedGlobalGovernor install{&governor};
      WalTailer tailer{real, make_options(dir)};
      tailer.open();
      while (tailer.poll().state != TailState::kClean) {
      }
      tailer.aggregates().serialize(pressured_bytes);
      ASSERT_EQ(governor.allocation_failures(), 0u);
    }

    // Kill/recover until the tailer survives a whole pass. Every attempt is
    // a fresh "process": a new governor carrying the same configured plan,
    // re-seeded from recovered state by WalTailer::open().
    const std::string dir = root.path + "/run";
    stdfs::remove_all(dir);
    copy_wal(wal, dir);
    const WalTailer::Options run_options = make_options(dir);
    util::Rng meta = util::Rng::derive(0x6E55F00DULL,
                                       static_cast<std::uint64_t>(s));
    bool complete = false;
    int attempts = 0;
    std::vector<std::uint8_t> final_bytes;
    while (!complete && attempts < 64) {
      ++attempts;
      io::IoFaultPlan io_plan;
      if (attempts == 1 || !meta.chance(0.4)) {
        io_plan = io::IoFaultPlan::chaos(meta(), horizon + 8,
                                         s % 3 == 0 ? 0.02 : 0.0);
      }
      io::FaultyFileSystem ffs{real, io_plan, meta()};
      MemoryBudget governor{governor_options};
      governor.set_plan(plan);
      ScopedGlobalGovernor install{&governor};
      WalTailer tailer{ffs, run_options};
      try {
        tailer.open();
        while (tailer.poll().state != TailState::kClean) {
        }
        complete = true;
        tailer.aggregates().serialize(final_bytes);
        EXPECT_EQ(governor.allocation_failures(), 0u);
      } catch (const io::SimulatedCrash&) {
        ++total_crashes;
      } catch (const io::IoError&) {
      }
    }
    ASSERT_TRUE(complete) << "livelocked after " << attempts << " attempts";
    ASSERT_EQ(final_bytes, pressured_bytes)
        << "kill/recover diverged from the uninterrupted pressured run";

    const StreamAggregates final_aggs =
        StreamAggregates::deserialize(final_bytes);
    const auto& events = final_aggs.degradation_events();
    total_events += events.size();

    // Zero silent drops, at any degradation level: lifetime and window
    // national/vendor/RAT tallies exactly match the unpressured oracle.
    EXPECT_EQ(final_aggs.total_records(), oracle.total_records());
    EXPECT_EQ(final_aggs.total_failures(), oracle.total_failures());
    const StreamAggregates::WindowReport report = final_aggs.report();
    EXPECT_EQ(report.handovers, oracle_report.handovers);
    EXPECT_EQ(report.failures, oracle_report.failures);
    for (std::size_t v = 0; v < report.by_vendor.size(); ++v) {
      EXPECT_EQ(report.by_vendor[v].handovers,
                oracle_report.by_vendor[v].handovers);
      EXPECT_EQ(report.by_vendor[v].failures,
                oracle_report.by_vendor[v].failures);
    }
    for (std::size_t t = 0; t < report.by_target.size(); ++t) {
      EXPECT_EQ(report.by_target[t].handovers,
                oracle_report.by_target[t].handovers);
    }

    if (events.empty()) {
      ++clean_schedules;
      EXPECT_EQ(final_bytes, oracle_bytes)
          << "no degradation recorded, yet the bytes differ from the "
             "unpressured oracle";
    } else {
      ++degraded_schedules;
      // The journal is well-formed and auditable.
      int prev_day = -1;
      for (const auto& event : events) {
        EXPECT_NE(event.from, event.to);
        EXPECT_GE(event.effective_day, prev_day);
        prev_day = event.effective_day;
        EXPECT_GT(event.budget_bytes, 0u);
        if (event.to == DegradeLevel::kSampled) {
          EXPECT_EQ(event.sample_modulus, agg_opt.sample_modulus);
        } else {
          EXPECT_EQ(event.sample_modulus, 1u);
        }
      }
      EXPECT_EQ(events.back().to, final_aggs.level());

      // Certified accuracy: rebuild the *declared* admitted substream of
      // the window — per day, successful finite-duration records admitted
      // by the day's stamped modulus — and check the reported quantiles
      // against its exact ECDF within the certified rank-error bound (plus
      // the tie mass at the reported value: an ECDF evaluates the top of a
      // duplicate run, which rank certification does not promise).
      std::vector<double> admitted;
      for (const auto& day : final_aggs.window()) {
        for (std::uint32_t i = 0; i < kPerDay; ++i) {
          const HandoverRecord r = make_record(day.day, i);
          if (!r.success || std::isnan(r.duration_ms)) continue;
          if (day.sample_modulus > 1 &&
              !StreamAggregates::sample_admits(r, day.sample_modulus)) {
            continue;
          }
          admitted.push_back(static_cast<double>(r.duration_ms));
        }
      }
      ASSERT_EQ(report.sketch_count, admitted.size())
          << "sketch population is not the declared substream";
      if (!admitted.empty()) {
        const analysis::Ecdf exact{admitted};
        const double n = static_cast<double>(admitted.size());
        const auto tie_mass = [&](double v) {
          return static_cast<double>(
                     std::count(admitted.begin(), admitted.end(), v)) /
                 n;
        };
        EXPECT_NEAR(exact.at(report.p50_ms), 0.5,
                    report.quantile_rank_error + tie_mass(report.p50_ms) + 1e-9);
        EXPECT_NEAR(exact.at(report.p90_ms), 0.9,
                    report.quantile_rank_error + tie_mass(report.p90_ms) + 1e-9);
        EXPECT_NEAR(exact.at(report.p99_ms), 0.99,
                    report.quantile_rank_error + tie_mass(report.p99_ms) + 1e-9);
      }
    }

    // Restart proof: the checkpoint alone reproduces the same bytes, with
    // no governor installed (nothing left to decide — and a restart without
    // governance must not silently rewrite recorded history).
    {
      WalTailer restarted{real, run_options};
      restarted.open();
      const auto r = restarted.poll();
      std::vector<std::uint8_t> bytes;
      restarted.aggregates().serialize(bytes);
      EXPECT_EQ(r.state, TailState::kClean);
      EXPECT_EQ(r.days_delivered, 0u);
      EXPECT_EQ(bytes, pressured_bytes);
    }
  }

  RecordProperty("schedules", schedules);
  RecordProperty("degraded_schedules", degraded_schedules);
  RecordProperty("clean_schedules", clean_schedules);
  RecordProperty("total_crashes", total_crashes);
  RecordProperty("total_events", static_cast<int>(total_events));
  // The suite must actually exercise both regimes and actually crash.
  EXPECT_GT(degraded_schedules, schedules / 4);
  EXPECT_GT(total_crashes, schedules / 2);
  if (schedules >= 20) {
    EXPECT_GT(clean_schedules, 0);
  }
}

}  // namespace
}  // namespace tl
