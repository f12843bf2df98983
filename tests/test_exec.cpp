// Execution-engine tests: thread-pool semantics (graceful shutdown with
// pending tasks, exception propagation), the sharded runner's ordered-merge
// contract, and the engine's headline guarantee — the record stream (and
// the durable log's on-disk bytes) at K threads is byte-identical to the
// serial run, for K in {2, 3, 8} and for K = 0 (hardware concurrency).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/simulator.hpp"
#include "exec/buffers.hpp"
#include "govern/governor.hpp"
#include "exec/sharded_runner.hpp"
#include "exec/thread_pool.hpp"
#include "io/file.hpp"
#include "metrics_log.hpp"
#include "supervise/supervisor.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/signaling_dataset.hpp"
#include "util/rng.hpp"

namespace tl {
namespace {

using core::DayCheckpoint;
using core::Simulator;
using core::StudyConfig;
using exec::ShardedDayRunner;
using exec::ThreadPool;
using telemetry::HandoverRecord;
using telemetry::RecordLog;
using telemetry::UeDayMetrics;

namespace fs = std::filesystem;

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, ResolvesThreadCounts) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3u);
  ThreadPool pool{2};
  EXPECT_EQ(pool.size(), 2u);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool{3};
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PropagatesTaskExceptionsThroughFutures) {
  ThreadPool pool{2};
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::domain_error{"boom"}; });
  EXPECT_NO_THROW(ok.get());
  try {
    bad.get();
    FAIL() << "expected std::domain_error";
  } catch (const std::domain_error& error) {
    EXPECT_STREQ(error.what(), "boom");
  }
}

TEST(ThreadPool, GracefulShutdownDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < 24; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds{2});
        ran.fetch_add(1);
      });
    }
    // Destruction races the queue: most tasks are still pending here, and
    // the graceful contract is that every one of them still runs.
  }
  EXPECT_EQ(ran.load(), 24);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool{1};
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, ThrowingTasksDuringDrainParkInFuturesNotTerminate) {
  // Destruction drains the queue; tasks that throw while draining must park
  // their exception in the future (std::terminate would kill the process —
  // the mere completion of this test is the assertion).
  std::vector<std::future<void>> futures;
  std::atomic<int> ran{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.submit([&ran, i] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
        if (i % 3 == 0) throw std::domain_error{"drain boom " + std::to_string(i)};
      }));
    }
    // ~ThreadPool runs here with most tasks still queued.
  }
  EXPECT_EQ(ran.load(), 32);
  int threw = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      futures[i].get();
    } catch (const std::domain_error&) {
      ++threw;
    }
  }
  EXPECT_EQ(threw, 32 / 3 + 1);
}

TEST(ThreadPool, ConcurrentShutdownIsSafeAndIdempotent) {
  // Shutdown can race destruction (supervisor teardown paths): both callers
  // must be able to join without double-joining a worker.
  ThreadPool pool{3};
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    });
  }
  std::vector<std::thread> closers;
  for (int i = 0; i < 4; ++i) {
    closers.emplace_back([&pool] { pool.shutdown(); });
  }
  for (auto& t : closers) t.join();
  pool.shutdown();  // idempotent after the race
  EXPECT_EQ(ran.load(), 16);
}

// --- sharded runner ----------------------------------------------------------

ShardedDayRunner::Options runner_options(unsigned threads, std::size_t items_per_shard) {
  ShardedDayRunner::Options opt;
  opt.threads = threads;
  opt.items_per_shard = items_per_shard;
  return opt;
}

TEST(ShardedDayRunner, CoversEveryItemExactlyOnceAndMergesInOrder) {
  ShardedDayRunner runner{runner_options(4, 125)};  // 8 shards
  const std::size_t n = 1000;
  const std::size_t shards = runner.shard_count(n);
  ASSERT_GT(shards, 1u);
  std::vector<std::vector<std::size_t>> per_shard(shards);
  std::vector<std::size_t> merge_order;
  std::vector<int> covered(n, 0);
  runner.run(
      n,
      [&](std::size_t shard, std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) per_shard[shard].push_back(i);
      },
      [&](std::size_t shard) {
        merge_order.push_back(shard);
        for (const std::size_t i : per_shard[shard]) ++covered[i];
      });
  ASSERT_EQ(merge_order.size(), shards);
  for (std::size_t s = 0; s < shards; ++s) EXPECT_EQ(merge_order[s], s);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(covered[i], 1) << "item " << i;
  }
}

TEST(ShardedDayRunner, MergeOrderIgnoresSchedulingSkew) {
  // Early shards sleep longest, so workers finish in roughly reverse shard
  // order — the merge must still run strictly ascending.
  ShardedDayRunner runner{runner_options(4, 16)};  // 4 shards
  const std::size_t n = 64;
  const std::size_t shards = runner.shard_count(n);
  std::vector<std::size_t> merge_order;
  runner.run(
      n,
      [&](std::size_t shard, std::size_t, std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds{2 * (shards - shard)});
      },
      [&](std::size_t shard) { merge_order.push_back(shard); });
  ASSERT_EQ(merge_order.size(), shards);
  for (std::size_t s = 0; s < shards; ++s) EXPECT_EQ(merge_order[s], s);
}

TEST(ShardedDayRunner, SimulateExceptionAbortsMergeAndPropagates) {
  ShardedDayRunner runner{runner_options(2, 8)};
  const std::size_t n = 16;
  const std::size_t shards = runner.shard_count(n);
  ASSERT_EQ(shards, 2u);
  std::vector<std::size_t> merged;
  EXPECT_THROW(
      runner.run(
          n,
          [&](std::size_t shard, std::size_t, std::size_t) {
            if (shard == 1) throw std::runtime_error{"shard 1 failed"};
          },
          [&](std::size_t shard) { merged.push_back(shard); }),
      std::runtime_error);
  // Shards past the failing one are never merged; earlier ones may be.
  for (const std::size_t shard : merged) EXPECT_LT(shard, 1u);
}

TEST(ShardedDayRunner, TaskHookExceptionPoisonsItsShardDeterministically) {
  // A failure anywhere in a shard's task (the supervisor's fault injector
  // throws from inside simulate) poisons that shard: run() rethrows the
  // first poisoned shard in merge order, type and message intact, and
  // merges nothing at or after it.
  ShardedDayRunner runner{runner_options(4, 16)};  // 4 shards
  ASSERT_GT(runner.shard_count(64), 2u);
  std::vector<std::size_t> merged;
  try {
    runner.run(
        64,
        [](std::size_t shard, std::size_t, std::size_t) {
          if (shard == 2) throw std::domain_error{"task fault on shard 2"};
        },
        [&](std::size_t shard) { merged.push_back(shard); });
    FAIL() << "expected the task's exception";
  } catch (const std::domain_error& error) {
    EXPECT_STREQ(error.what(), "task fault on shard 2");
  }
  for (const std::size_t shard : merged) EXPECT_LT(shard, 2u);
}

TEST(ShardedDayRunner, MergeExceptionPropagatesWithoutDeadlock) {
  ShardedDayRunner runner{runner_options(3, 17)};  // 6 shards
  std::vector<std::size_t> merged;
  EXPECT_THROW(runner.run(
                   100, [](std::size_t, std::size_t, std::size_t) {},
                   [&](std::size_t shard) {
                     if (shard == 1) throw std::runtime_error{"merge 1 failed"};
                     merged.push_back(shard);
                   }),
               std::runtime_error);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], 0u);
}

TEST(ShardedDayRunner, RunnerIsReusableAcrossRuns) {
  ShardedDayRunner runner{runner_options(2, 13)};  // 4 shards
  for (int round = 0; round < 3; ++round) {
    std::atomic<std::size_t> simulated{0};
    std::size_t merged = 0;
    runner.run(
        50,
        [&](std::size_t, std::size_t first, std::size_t last) {
          simulated.fetch_add(last - first);
        },
        [&](std::size_t) { ++merged; });
    EXPECT_EQ(simulated.load(), 50u);
    EXPECT_EQ(merged, runner.shard_count(50));
  }
}

TEST(ShardedDayRunner, FailedShardNeverSharesItsSlot) {
  // A window smaller than the shard count recycles staging slots: shard s
  // stages into slot s % slot_count. A slot is occupied from its shard's
  // simulate entry until that shard merges, and a failed shard's slot stays
  // occupied. After shard k fails, run() opens the gate, so every shard
  // admitted that way must skip simulating: its slot may still belong to a
  // running shard or to k itself. Shard k + 1 fails first in time, yet k's
  // exception is the one rethrown, and nothing at or after k merges.
  constexpr std::size_t kWindow = 2;
  constexpr std::size_t kItems = 48;
  ShardedDayRunner::Options opt = runner_options(4, 1);  // 48 shards
  opt.max_live_shards = kWindow;  // below the worker count: workers queue
  ShardedDayRunner runner{opt};
  ASSERT_EQ(runner.slot_count(kItems), kWindow);
  for (const std::size_t k : {std::size_t{0}, std::size_t{3}, std::size_t{10}}) {
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("k=" + std::to_string(k) + " round=" + std::to_string(round));
      std::array<std::atomic<int>, kWindow> occupancy{};
      std::atomic<int> collisions{0};
      std::atomic<std::size_t> highest{0};  // highest shard that simulated
      std::vector<std::size_t> merged;
      try {
        runner.run(
            kItems,
            [&](std::size_t shard, std::size_t, std::size_t) {
              if (occupancy[shard % kWindow].fetch_add(1) != 0) collisions.fetch_add(1);
              std::size_t seen = highest.load();
              while (shard > seen && !highest.compare_exchange_weak(seen, shard)) {
              }
              if (shard == k + 1) throw std::runtime_error{"shard " + std::to_string(shard)};
              std::this_thread::sleep_for(std::chrono::milliseconds{shard == k ? 5 : 1});
              if (shard == k) throw std::runtime_error{"shard " + std::to_string(shard)};
            },
            [&](std::size_t shard) {
              occupancy[shard % kWindow].fetch_sub(1);
              merged.push_back(shard);
            });
        FAIL() << "expected shard " << k << "'s exception";
      } catch (const std::runtime_error& error) {
        EXPECT_EQ(std::string{error.what()}, "shard " + std::to_string(k));
      }
      EXPECT_EQ(collisions.load(), 0);
      ASSERT_EQ(merged.size(), k);
      for (std::size_t s = 0; s < k; ++s) EXPECT_EQ(merged[s], s);
      // With shards 0..k-1 merged at most, the window admits shards below
      // k + kWindow; anything later came through the opened gate.
      EXPECT_LT(highest.load(), k + kWindow);
    }
  }
}

// --- determinism under concurrency ------------------------------------------

/// One test-scale world, reused across every thread count via restore():
/// exactly the pattern the throughput bench and the chaos harness use.
struct ExecWorld {
  StudyConfig cfg;
  std::unique_ptr<Simulator> sim;
  DayCheckpoint day0;

  static ExecWorld& instance() {
    static ExecWorld world = [] {
      ExecWorld w;
      w.cfg = StudyConfig::test_scale();
      w.cfg.days = 2;
      w.cfg.population.count = 2'000;
      w.sim = std::make_unique<Simulator>(w.cfg);
      w.day0.seed = w.cfg.seed;
      return w;
    }();
    return world;
  }
};

struct RunCapture {
  std::vector<std::uint8_t> record_bytes;  // RecordLog encoding of the stream
  std::size_t records = 0;
  std::vector<UeDayMetrics> metrics;
  std::uint64_t records_emitted = 0;
  std::uint64_t total_handovers = 0;
};

RunCapture run_with_threads(unsigned threads) {
  ExecWorld& w = ExecWorld::instance();
  telemetry::SignalingDataset dataset;
  testing::MetricsLog ue_days;
  w.sim->set_threads(threads);
  w.sim->restore(w.day0);
  w.sim->add_sink(&dataset);
  w.sim->add_metrics_sink(&ue_days);
  w.sim->run();
  w.sim->remove_sink(&dataset);
  w.sim->remove_metrics_sink(&ue_days);

  RunCapture capture;
  capture.records = dataset.size();
  for (const auto& record : dataset.records()) {
    RecordLog::encode_record(record, capture.record_bytes);
  }
  capture.metrics = ue_days.rows();
  capture.records_emitted = w.sim->records_emitted();
  capture.total_handovers = w.sim->core_network().total_handovers();
  return capture;
}

void expect_metrics_eq(const UeDayMetrics& a, const UeDayMetrics& b, std::size_t i) {
  ASSERT_EQ(a.ue, b.ue) << "metrics row " << i;
  ASSERT_EQ(a.day, b.day) << "metrics row " << i;
  ASSERT_EQ(a.handovers, b.handovers) << "metrics row " << i;
  ASSERT_EQ(a.failures, b.failures) << "metrics row " << i;
  ASSERT_EQ(a.distinct_sectors, b.distinct_sectors) << "metrics row " << i;
  ASSERT_EQ(a.radius_of_gyration_km, b.radius_of_gyration_km) << "metrics row " << i;
  ASSERT_EQ(a.device_type, b.device_type) << "metrics row " << i;
}

TEST(Determinism, RecordStreamIsByteIdenticalAcrossThreadCounts) {
  const RunCapture serial = run_with_threads(1);
  ASSERT_GT(serial.records, 100u) << "world too small to prove anything";
  ASSERT_FALSE(serial.metrics.empty());
  EXPECT_EQ(serial.records, serial.records_emitted);

  for (const unsigned threads : {2u, 3u, 8u, 0u}) {
    const RunCapture parallel = run_with_threads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(parallel.records, serial.records);
    // Byte-identity of the full stream, not just per-field equality.
    ASSERT_EQ(parallel.record_bytes, serial.record_bytes);
    ASSERT_EQ(parallel.metrics.size(), serial.metrics.size());
    for (std::size_t i = 0; i < serial.metrics.size(); ++i) {
      expect_metrics_eq(parallel.metrics[i], serial.metrics[i], i);
    }
    EXPECT_EQ(parallel.records_emitted, serial.records_emitted);
    EXPECT_EQ(parallel.total_handovers, serial.total_handovers);
  }
}

TEST(Determinism, CoreNetworkCountersShardReduceExactly) {
  const RunCapture serial = run_with_threads(1);
  ExecWorld& w = ExecWorld::instance();
  const auto serial_core = w.sim->checkpoint().core;

  (void)run_with_threads(8);
  const auto parallel_core = w.sim->checkpoint().core;
  for (const auto region : geo::kAllRegions) {
    SCOPED_TRACE(static_cast<int>(region));
    EXPECT_EQ(parallel_core.mme(region).handovers.procedures,
              serial_core.mme(region).handovers.procedures);
    EXPECT_EQ(parallel_core.mme(region).handovers.failures,
              serial_core.mme(region).handovers.failures);
    EXPECT_EQ(parallel_core.mme(region).path_switches.successes,
              serial_core.mme(region).path_switches.successes);
    EXPECT_EQ(parallel_core.sgsn(region).relocations.procedures,
              serial_core.sgsn(region).relocations.procedures);
    EXPECT_EQ(parallel_core.msc(region).srvcc.procedures,
              serial_core.msc(region).srvcc.procedures);
    EXPECT_EQ(parallel_core.sgw(region).bearer_modifications,
              serial_core.sgw(region).bearer_modifications);
  }
  EXPECT_EQ(serial.total_handovers, serial_core.total_handovers());
}

TEST(Determinism, ThreadCountMayChangeBetweenDays) {
  // Day 0 serial, day 1 on four workers — still the serial stream.
  const RunCapture serial = run_with_threads(1);
  ExecWorld& w = ExecWorld::instance();
  telemetry::SignalingDataset dataset;
  w.sim->restore(w.day0);
  w.sim->add_sink(&dataset);
  w.sim->set_threads(1);
  w.sim->run_day(0);
  w.sim->set_threads(4);
  w.sim->run_day(1);
  w.sim->remove_sink(&dataset);

  std::vector<std::uint8_t> bytes;
  for (const auto& record : dataset.records()) RecordLog::encode_record(record, bytes);
  EXPECT_EQ(bytes, serial.record_bytes);
}

// --- durable log byte-identity ----------------------------------------------

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "tl_exec_" + name) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

std::string log_bytes(const std::string& dir) {
  std::string all;
  auto& real = io::StdioFileSystem::instance();
  for (const auto& name : real.list(dir, "wal-")) {
    std::ifstream is{dir + "/" + name, std::ios::binary};
    std::ostringstream os;
    os << is.rdbuf();
    all += "[" + name + "]";
    all += os.str();
  }
  return all;
}

std::string run_durable(unsigned threads, const std::string& dir) {
  ExecWorld& w = ExecWorld::instance();
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = dir;
  opt.max_segment_bytes = 24 * 1024;  // several rolls, so boundaries are tested
  RecordLog log{real, opt};
  telemetry::DurableRecordSink sink{log};
  log.open();
  w.sim->set_threads(threads);
  w.sim->restore(w.day0);
  w.sim->attach_durable_log(&sink);
  w.sim->run();
  w.sim->remove_sink(&sink);
  return log_bytes(dir);
}

TEST(Determinism, DurableLogBytesAreIdenticalAcrossThreadCounts) {
  TempDir serial_dir{"wal_serial"};
  TempDir parallel_dir{"wal_parallel"};
  const std::string serial = run_durable(1, serial_dir.path);
  ASSERT_FALSE(serial.empty());
  const std::string parallel = run_durable(8, parallel_dir.path);
  // WAL frames, day commit markers, embedded checkpoints, segment
  // boundaries: all byte-identical to the serial run.
  EXPECT_EQ(parallel, serial);
}

// --- shard-state reuse across days -------------------------------------------
//
// Sharded and supervised days share one window of staging slots (CoreNetwork
// + record/metrics buffers) that stays alive across days and resets at
// simulate-callback entry; StudyConfig::reuse_shard_state = false rebuilds
// the slots every day. The two modes must be indistinguishable in every
// observable, whether ShardedDayRunner or StudySupervisor drives the slots:
// record bytes, metrics rows, WAL bytes, engine counters, and the governor's
// peak accounting (warm and rebuilt buffers reach the same capacity-doubling
// brackets on this world, so the byte high-water mark is the same).

struct ReuseCapture {
  std::vector<std::uint8_t> record_bytes;
  std::vector<UeDayMetrics> metrics;
  std::uint64_t records_emitted = 0;
  std::uint64_t total_handovers = 0;
  std::string wal;
  std::uint64_t governor_peak = 0;
  std::uint64_t record_buffer_bytes = 0;  ///< exec_record_buffers after the study
};

ReuseCapture run_reuse_arm(bool reuse, unsigned threads, const std::string& dir,
                           bool switch_threads_mid_study = false,
                           bool supervised = false) {
  StudyConfig cfg = StudyConfig::test_scale();
  cfg.days = 3;
  cfg.population.count = 2'000;
  cfg.reuse_shard_state = reuse;
  // Declared before the simulator so it outlives the shard buffers that
  // book into it.
  govern::MemoryBudget budget;  // budget 0: accounting only, always Steady
  std::unique_ptr<supervise::StudySupervisor> supervisor;
  if (supervised) {
    supervisor = std::make_unique<supervise::StudySupervisor>(
        supervise::SupervisorOptions{});
  }
  Simulator sim{cfg};
  govern::ScopedGlobalGovernor install{&budget};
  sim.set_supervisor(supervisor.get());

  RecordLog::Options opt;
  opt.directory = dir;
  opt.max_segment_bytes = 24 * 1024;
  RecordLog log{io::StdioFileSystem::instance(), opt};
  telemetry::DurableRecordSink durable{log};
  log.open();

  telemetry::SignalingDataset dataset;
  testing::MetricsLog ue_days;
  DayCheckpoint day0;
  day0.seed = cfg.seed;
  sim.set_threads(threads);
  sim.restore(day0);
  sim.attach_durable_log(&durable);
  sim.add_sink(&dataset);
  sim.add_metrics_sink(&ue_days);
  if (switch_threads_mid_study) {
    sim.run_day(0);
    sim.set_threads(threads == 2 ? 4 : 2);  // shard geometry changes mid-study
    sim.run_day(1);
    sim.run_day(2);
  } else {
    sim.run();
  }
  sim.remove_sink(&dataset);
  sim.remove_sink(&durable);
  sim.remove_metrics_sink(&ue_days);

  ReuseCapture c;
  for (const auto& record : dataset.records()) {
    RecordLog::encode_record(record, c.record_bytes);
  }
  c.metrics = ue_days.rows();
  c.records_emitted = sim.records_emitted();
  c.total_handovers = sim.core_network().total_handovers();
  c.wal = log_bytes(dir);
  c.governor_peak = budget.peak_bytes();
  c.record_buffer_bytes = budget.accountant("exec_record_buffers").bytes();
  return c;
}

void expect_reuse_eq(const ReuseCapture& warm, const ReuseCapture& fresh) {
  ASSERT_FALSE(fresh.record_bytes.empty());
  ASSERT_EQ(warm.record_bytes, fresh.record_bytes);
  ASSERT_EQ(warm.metrics.size(), fresh.metrics.size());
  for (std::size_t i = 0; i < fresh.metrics.size(); ++i) {
    expect_metrics_eq(warm.metrics[i], fresh.metrics[i], i);
  }
  EXPECT_EQ(warm.records_emitted, fresh.records_emitted);
  EXPECT_EQ(warm.total_handovers, fresh.total_handovers);
  ASSERT_FALSE(fresh.wal.empty());
  EXPECT_EQ(warm.wal, fresh.wal);
  EXPECT_EQ(warm.governor_peak, fresh.governor_peak);
}

TEST(ShardStateReuse, OutputsIdenticalToFreshStateAcrossThreadCounts) {
  for (const unsigned threads : {2u, 4u, 0u}) {  // 0 = hardware concurrency
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TempDir fresh_dir{"reuse_fresh_" + std::to_string(threads)};
    TempDir warm_dir{"reuse_warm_" + std::to_string(threads)};
    const ReuseCapture fresh = run_reuse_arm(false, threads, fresh_dir.path);
    const ReuseCapture warm = run_reuse_arm(true, threads, warm_dir.path);
    expect_reuse_eq(warm, fresh);
  }
}

TEST(ShardStateReuse, SurvivesMidStudyThreadCountChange) {
  // Day 0 at 2 workers, days 1-2 at 4: the shard count changes under the
  // reused slab, which must rebuild without leaking day-0 state into day 1.
  TempDir fresh_dir{"reuse_fresh_switch"};
  TempDir warm_dir{"reuse_warm_switch"};
  const ReuseCapture fresh = run_reuse_arm(false, 2, fresh_dir.path, true);
  const ReuseCapture warm = run_reuse_arm(true, 2, warm_dir.path, true);
  expect_reuse_eq(warm, fresh);
}

TEST(ShardStateReuse, SupervisedDaysReuseTheSameSlab) {
  // With a supervisor installed the days run through StudySupervisor on the
  // same runner and slab: warm and fresh runs must still agree everywhere,
  // and at Steady pressure the warm slab keeps its record buffers (and
  // their accounting) after the last day instead of rebuilding them daily.
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TempDir fresh_dir{"reuse_sup_fresh_" + std::to_string(threads)};
    TempDir warm_dir{"reuse_sup_warm_" + std::to_string(threads)};
    const ReuseCapture fresh = run_reuse_arm(false, threads, fresh_dir.path,
                                             /*switch_threads_mid_study=*/false,
                                             /*supervised=*/true);
    const ReuseCapture warm = run_reuse_arm(true, threads, warm_dir.path,
                                            /*switch_threads_mid_study=*/false,
                                            /*supervised=*/true);
    expect_reuse_eq(warm, fresh);
    EXPECT_GT(warm.record_buffer_bytes, 0u);
    EXPECT_EQ(fresh.record_buffer_bytes, 0u);
  }
}

// --- bounded staging ---------------------------------------------------------
//
// Sharded days cut fixed 256-UE shards behind an always-on window, so staging
// is one slot per window position whatever the population. The record-buffer
// peak is therefore exactly one window of slots, each holding the capacity
// push-growth reaches for the largest shard it staged: at 4N UEs the shard
// count quadruples but the slot count does not, and both populations still
// emit the serial run's stream and WAL bytes.

/// Samples one governor account at every day end and keeps its maximum.
class AccountPeakSink final : public telemetry::RecordSink {
 public:
  explicit AccountPeakSink(govern::Accountant account) : account_(account) {}
  void consume(const HandoverRecord&) override {}
  void on_day_end(int) override { peak_ = std::max(peak_, account_.bytes()); }
  std::uint64_t peak() const noexcept { return peak_; }

 private:
  govern::Accountant account_;
  std::uint64_t peak_ = 0;
};

/// Each shard's record count: the ordered merge hands every sink one span
/// per shard, in shard order, and each day ends with on_day_end.
class ShardSizeSink final : public telemetry::RecordSink {
 public:
  void consume(const HandoverRecord&) override { ADD_FAILURE() << "expected spans"; }
  void consume_span(std::span<const HandoverRecord> records) override {
    days_.back().push_back(records.size());
  }
  void on_day_end(int) override { days_.emplace_back(); }
  const std::vector<std::vector<std::size_t>>& days() const noexcept { return days_; }

 private:
  std::vector<std::vector<std::size_t>> days_{1};
};

struct StagingCapture {
  std::vector<std::uint8_t> record_bytes;
  std::string wal;
  std::uint64_t record_buffer_peak = 0;
  std::vector<std::vector<std::size_t>> shard_records;  ///< per day, per shard
};

StagingCapture run_staging_arm(std::uint32_t ues, unsigned threads,
                               const std::string& dir) {
  StudyConfig cfg = StudyConfig::test_scale();
  cfg.days = 2;
  cfg.population.count = ues;
  // Declared before the simulator so it outlives the slots that book into it.
  govern::MemoryBudget budget;  // budget 0: accounting only, always Steady
  Simulator sim{cfg};
  govern::ScopedGlobalGovernor install{&budget};

  RecordLog::Options opt;
  opt.directory = dir;
  RecordLog log{io::StdioFileSystem::instance(), opt};
  telemetry::DurableRecordSink durable{log};
  log.open();
  telemetry::SignalingDataset dataset;
  AccountPeakSink peak{budget.accountant("exec_record_buffers")};
  ShardSizeSink sizes;
  sim.set_threads(threads);
  sim.attach_durable_log(&durable);
  sim.add_sink(&dataset);
  sim.add_sink(&peak);
  if (threads > 1) sim.add_sink(&sizes);
  sim.run();
  sim.remove_sink(&sizes);
  sim.remove_sink(&peak);
  sim.remove_sink(&dataset);
  sim.remove_sink(&durable);

  StagingCapture c;
  for (const auto& record : dataset.records()) {
    RecordLog::encode_record(record, c.record_bytes);
  }
  c.wal = log_bytes(dir);
  c.record_buffer_peak = peak.peak();
  c.shard_records = sizes.days();
  c.shard_records.pop_back();  // the empty entry after the last day
  return c;
}

/// The record-buffer bytes `slots` warm slots hold after staging the given
/// shards, shard s in slot s % slots: each slot keeps the capacity
/// push-growth reaches for the largest shard it held.
std::uint64_t window_bytes(const std::vector<std::vector<std::size_t>>& shard_records,
                           std::size_t slots) {
  std::vector<std::size_t> largest(slots, 0);
  for (const auto& day : shard_records) {
    for (std::size_t s = 0; s < day.size(); ++s) {
      largest[s % slots] = std::max(largest[s % slots], day[s]);
    }
  }
  std::uint64_t bytes = 0;
  for (const std::size_t n : largest) {
    std::vector<HandoverRecord> grown;
    for (std::size_t i = 0; i < n; ++i) grown.emplace_back();
    bytes += grown.capacity() * sizeof(HandoverRecord);
  }
  return bytes;
}

TEST(BoundedStaging, RecordBufferPeakIsOneWindowOfSlotsAtAnyPopulation) {
  constexpr std::uint32_t kUes = 2'000;
  for (const std::uint32_t ues : {kUes, 4 * kUes}) {
    SCOPED_TRACE("ues=" + std::to_string(ues));
    TempDir serial_dir{"staging_serial_" + std::to_string(ues)};
    const StagingCapture serial = run_staging_arm(ues, 1, serial_dir.path);
    ASSERT_FALSE(serial.record_bytes.empty());
    ASSERT_FALSE(serial.wal.empty());
    EXPECT_EQ(serial.record_buffer_peak, 0u);  // the serial path stages nothing
    for (const unsigned threads : {2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      TempDir dir{"staging_" + std::to_string(ues) + "_" + std::to_string(threads)};
      const StagingCapture sharded = run_staging_arm(ues, threads, dir.path);
      EXPECT_EQ(sharded.record_bytes, serial.record_bytes);
      EXPECT_EQ(sharded.wal, serial.wal);

      ShardedDayRunner::Options geometry;
      geometry.threads = threads;
      geometry.items_per_shard = Simulator::kMinUesPerShard;
      const ShardedDayRunner runner{geometry};
      const std::size_t slots = runner.slot_count(ues);
      EXPECT_EQ(slots, 2u * threads);  // the auto window, at N and 4N alike
      ASSERT_EQ(sharded.shard_records.size(), 2u);
      for (const auto& day : sharded.shard_records) {
        ASSERT_EQ(day.size(), runner.shard_count(ues));
      }
      EXPECT_EQ(sharded.record_buffer_peak, window_bytes(sharded.shard_records, slots));
    }
  }
}

}  // namespace
}  // namespace tl
