// Supervised-execution tests: the tl::Status taxonomy and exception
// classification, cooperative cancellation tokens, the seeded task/poison
// fault injector, StudySupervisor's reaction ladder (retry with backoff,
// watchdog deadlines, bisection + quarantine) over synthetic item sets, and
// the headline property — a supervised simulator run under a seeded fault
// storm quarantines exactly the poison UEs and emits a record stream (and
// durable WAL bytes) identical to an uninjected serial run over the
// surviving population, at every thread count and across kill/resume.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint_codec.hpp"
#include "core/simulator.hpp"
#include "exec/sharded_runner.hpp"
#include "io/faulty_file.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "supervise/cancellation.hpp"
#include "supervise/retry.hpp"
#include "supervise/status.hpp"
#include "supervise/supervisor.hpp"
#include "supervise/task_fault_injector.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/signaling_dataset.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace tl {
namespace {

using core::DayCheckpoint;
using core::Simulator;
using core::StudyConfig;
using supervise::CancelledError;
using supervise::CancelToken;
using supervise::classify_exception;
using supervise::DayReport;
using supervise::PermanentError;
using supervise::StudySupervisor;
using supervise::SupervisionError;
using supervise::SupervisorOptions;
using supervise::TaskFault;
using supervise::TaskFaultConfig;
using supervise::TaskFaultInjector;
using supervise::TransientError;
using telemetry::HandoverRecord;
using telemetry::RecordLog;

namespace fs = std::filesystem;

// --- helpers -----------------------------------------------------------------

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "tl_supervise_" + name) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

/// Committed WAL bytes plus segment boundaries, same oracle as the
/// durability chaos harness uses.
std::string log_bytes(const std::string& dir) {
  auto& real = io::StdioFileSystem::instance();
  std::vector<std::string> names = real.list(dir, "wal-");
  std::sort(names.begin(), names.end());
  std::string all;
  for (const auto& name : names) {
    std::ifstream is{dir + "/" + name, std::ios::binary};
    std::ostringstream os;
    os << is.rdbuf();
    all += "[" + name + "]";
    all += os.str();
  }
  return all;
}

std::exception_ptr capture(const std::function<void()>& thrower) {
  try {
    thrower();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

// --- status taxonomy ---------------------------------------------------------

TEST(Status, CodesRenderAndClassifyRetryability) {
  EXPECT_EQ(to_string(StatusCode::kOk), "OK");
  EXPECT_EQ(to_string(StatusCode::kDeadlineExceeded), "DEADLINE_EXCEEDED");
  EXPECT_EQ(to_string(StatusCode::kUnavailable), "UNAVAILABLE");
  EXPECT_EQ(to_string(StatusCode::kInternal), "INTERNAL");

  // The retry policy in one place: transient-looking codes retry, failures
  // pinned to the input or the environment do not.
  for (const StatusCode code :
       {StatusCode::kCancelled, StatusCode::kDeadlineExceeded,
        StatusCode::kUnavailable, StatusCode::kUnknown}) {
    EXPECT_TRUE(is_retryable(code)) << to_string(code);
  }
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kResourceExhausted,
        StatusCode::kInvalidArgument, StatusCode::kInternal,
        StatusCode::kAborted}) {
    EXPECT_FALSE(is_retryable(code)) << to_string(code);
  }
}

TEST(Status, DefaultIsOkAndRenderingIncludesMessage) {
  const Status ok;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);

  const Status st{StatusCode::kDeadlineExceeded, "shard 3 exceeded 500 ms"};
  EXPECT_FALSE(st.is_ok());
  EXPECT_TRUE(st.retryable());
  EXPECT_NE(st.to_string().find("DEADLINE_EXCEEDED"), std::string::npos);
  EXPECT_NE(st.to_string().find("shard 3 exceeded 500 ms"), std::string::npos);
}

TEST(Status, ClassifyMapsTheExceptionTaxonomy) {
  const auto classify = [](const std::function<void()>& thrower) {
    return classify_exception(capture(thrower));
  };
  EXPECT_EQ(classify([] { throw CancelledError{StatusCode::kCancelled}; }).code(),
            StatusCode::kCancelled);
  EXPECT_EQ(
      classify([] { throw CancelledError{StatusCode::kDeadlineExceeded}; }).code(),
      StatusCode::kDeadlineExceeded);
  EXPECT_EQ(classify([] { throw io::IoError{"EIO"}; }).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(classify([] { throw TransientError{"flap"}; }).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(classify([] { throw PermanentError{"poison"}; }).code(),
            StatusCode::kInternal);
  EXPECT_EQ(classify([] { throw std::bad_alloc{}; }).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(classify([] { throw std::invalid_argument{"bad"}; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(classify([] { throw std::logic_error{"bug"}; }).code(),
            StatusCode::kInternal);
  EXPECT_EQ(classify([] { throw std::runtime_error{"???"}; }).code(),
            StatusCode::kUnknown);
  // Context survives the mapping.
  EXPECT_NE(classify([] { throw io::IoError{"fsync wal-0001"}; })
                .message()
                .find("fsync wal-0001"),
            std::string::npos);
}

TEST(Status, ClassifyRefusesToAbsorbSimulatedCrash) {
  // A simulated process death must unwind, never become a retryable Status.
  EXPECT_THROW(classify_exception(capture([] { throw io::SimulatedCrash{}; })),
               io::SimulatedCrash);
}

// --- cancellation ------------------------------------------------------------

TEST(CancelTokenTest, FirstCancelWinsAndResetRearms) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.throw_if_cancelled());

  token.cancel(StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), StatusCode::kDeadlineExceeded);

  // A later, different cancel reason does not overwrite the recorded cause.
  token.cancel(StatusCode::kCancelled);
  EXPECT_EQ(token.reason(), StatusCode::kDeadlineExceeded);

  token.reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.throw_if_cancelled());
}

TEST(CancelTokenTest, ThrowIfCancelledCarriesTheReason) {
  CancelToken token;
  token.cancel(StatusCode::kDeadlineExceeded);
  try {
    token.throw_if_cancelled();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& error) {
    EXPECT_EQ(error.code(), StatusCode::kDeadlineExceeded);
  }
}

// --- task fault injector -----------------------------------------------------

TEST(TaskFaultInjectorTest, DecisionsArePureSeededAndAttemptCapped) {
  TaskFaultConfig cfg;
  cfg.seed = 0xFA11;
  cfg.throw_rate = 0.05;
  cfg.io_error_rate = 0.05;
  cfg.slow_rate = 0.05;
  cfg.max_faulty_attempts = 2;
  const TaskFaultInjector inj{cfg};

  int faulty = 0;
  const int keys = 2'000;
  for (int k = 0; k < keys; ++k) {
    const int day = k % 7;
    const auto shard = static_cast<std::size_t>(k / 7);
    const TaskFault fault = inj.decide_task(day, shard, 1);
    // Purity: the decision is a function of (seed, day, shard, attempt).
    ASSERT_EQ(inj.decide_task(day, shard, 1), fault);
    if (fault != TaskFault::kNone) ++faulty;
    // Convergence guarantee: past the cap, a (day, shard) never faults again.
    EXPECT_EQ(inj.decide_task(day, shard, cfg.max_faulty_attempts + 1),
              TaskFault::kNone);
  }
  // 15% nominal fault rate over 2000 keys: a loose statistical band.
  EXPECT_GT(faulty, keys / 10);
  EXPECT_LT(faulty, keys / 4);
}

TEST(TaskFaultInjectorTest, PoisonSetIsUeKeyedAndIncludesExplicitIds) {
  TaskFaultConfig cfg;
  cfg.seed = 0xFA12;
  cfg.poison_ue_fraction = 0.01;
  cfg.poison_ues = {42, 7, 42};  // unsorted, duplicated — injector canonicalizes
  const TaskFaultInjector inj{cfg};

  const auto set = inj.poison_set(5'000);
  EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
  EXPECT_TRUE(std::binary_search(set.begin(), set.end(), 7u));
  EXPECT_TRUE(std::binary_search(set.begin(), set.end(), 42u));
  // ~1% sampled on top of the two explicit ids.
  EXPECT_GT(set.size(), 20u);
  EXPECT_LT(set.size(), 110u);
  for (const std::uint32_t ue : set) EXPECT_TRUE(inj.is_poison(ue));

  // UE-keyed means the set is independent of days, shards, and thread
  // counts by construction: same seed, same universe, same set.
  const TaskFaultInjector again{cfg};
  EXPECT_EQ(again.poison_set(5'000), set);
}

TEST(TaskFaultInjectorTest, OnUeThrowsDeterministicallyForPoison) {
  TaskFaultConfig cfg;
  cfg.seed = 0xFA13;
  cfg.poison_ues = {9};
  TaskFaultInjector inj{cfg};

  EXPECT_NO_THROW(inj.on_ue(8, nullptr));
  EXPECT_THROW(inj.on_ue(9, nullptr), PermanentError);

  // The hang subset stalls until the cap, then fails the same way: every
  // attempt at a poison UE fails no matter who is watching.
  cfg.poison_hang_fraction = 1.0;
  cfg.hang_cap_ms = 1;
  const TaskFaultInjector hanging{cfg};
  EXPECT_THROW(hanging.on_ue(9, nullptr), PermanentError);
}

TEST(TaskFaultInjectorTest, OnTaskBeginThrowsTheDecidedExceptionType) {
  TaskFaultConfig cfg;
  cfg.seed = 0xFA14;
  cfg.throw_rate = 0.25;
  cfg.io_error_rate = 0.25;
  const TaskFaultInjector inj{cfg};

  bool saw_throw = false;
  bool saw_io = false;
  for (std::size_t shard = 0; shard < 200 && !(saw_throw && saw_io); ++shard) {
    switch (inj.decide_task(0, shard, 1)) {
      case TaskFault::kThrow:
        saw_throw = true;
        EXPECT_THROW(inj.on_task_begin(0, shard, 1, nullptr), std::runtime_error);
        break;
      case TaskFault::kIoError:
        saw_io = true;
        EXPECT_THROW(inj.on_task_begin(0, shard, 1, nullptr), io::IoError);
        break;
      default:
        EXPECT_NO_THROW(inj.on_task_begin(0, shard, 1, nullptr));
        break;
    }
  }
  EXPECT_TRUE(saw_throw);
  EXPECT_TRUE(saw_io);
}

// --- supervisor over synthetic items ----------------------------------------

/// The synthetic days' engine: 2 workers and shards of 24 items, so 96 items
/// split into four shards of 24.
exec::ShardedDayRunner& synthetic_runner() {
  static exec::ShardedDayRunner runner{[] {
    exec::ShardedDayRunner::Options opt;
    opt.threads = 2;
    opt.items_per_shard = 24;
    return opt;
  }()};
  return runner;
}

/// Drives one supervised day over items 0..items-1 on synthetic_runner().
/// Simulation stages item ids into per-shard vectors; merge concatenates
/// them. `poison` items always throw PermanentError (in probes too —
/// per-item determinism is the bisection contract). `shard_fault` runs only
/// in shard attempts, like the injector's task channel.
DayReport run_synthetic_day(
    StudySupervisor& sup, int day, std::size_t items,
    std::span<const std::uint32_t> pre_quarantined,
    std::vector<std::uint32_t> poison, std::vector<std::uint32_t>& merged,
    const std::function<void(std::size_t shard, const CancelToken*)>& shard_fault =
        {}) {
  std::sort(poison.begin(), poison.end());
  std::vector<std::vector<std::uint32_t>> staged(synthetic_runner().shard_count(items));
  const auto emit = [&](std::vector<std::uint32_t>& out, std::size_t first,
                        std::size_t last, const CancelToken* cancel,
                        std::span<const std::uint32_t> skip) {
    out.clear();
    for (std::size_t i = first; i < last; ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      if (std::binary_search(skip.begin(), skip.end(), id)) continue;
      if (cancel != nullptr) cancel->throw_if_cancelled();
      if (std::binary_search(poison.begin(), poison.end(), id)) {
        throw PermanentError{"poison item " + std::to_string(id)};
      }
      out.push_back(id);
    }
  };
  return sup.run_day(
      synthetic_runner(), day, items, pre_quarantined,
      [&](std::size_t shard, std::size_t first, std::size_t last,
          const CancelToken* cancel, std::span<const std::uint32_t> skip) {
        if (shard_fault) shard_fault(shard, cancel);
        emit(staged[shard], first, last, cancel, skip);
      },
      [&](std::size_t first, std::size_t last, const CancelToken* cancel,
          std::span<const std::uint32_t> skip) {
        std::vector<std::uint32_t> scratch;
        emit(scratch, first, last, cancel, skip);
      },
      [&](std::size_t shard) {
        merged.insert(merged.end(), staged[shard].begin(), staged[shard].end());
      });
}

std::vector<std::uint32_t> iota_minus(std::size_t items,
                                      const std::vector<std::uint32_t>& removed) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < items; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    if (!std::binary_search(removed.begin(), removed.end(), id)) out.push_back(id);
  }
  return out;
}

SupervisorOptions fast_options() {
  SupervisorOptions opt;
  opt.retry.max_retries = 4;
  opt.retry.backoff_initial_ms = 1;
  opt.retry.backoff_cap_ms = 4;
  return opt;
}

TEST(StudySupervisorTest, CleanDayMergesAllItemsInOrder) {
  StudySupervisor sup{fast_options()};
  std::vector<std::uint32_t> merged;
  const DayReport report = run_synthetic_day(sup, 0, 96, {}, {}, merged);

  EXPECT_EQ(merged, iota_minus(96, {}));
  EXPECT_EQ(report.day, 0);
  EXPECT_EQ(report.shards, synthetic_runner().shard_count(96));
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.timeouts, 0u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_FALSE(report.degraded());
  ASSERT_EQ(report.outcomes.size(), report.shards);
  for (const auto& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.status.is_ok());
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_TRUE(outcome.trail.empty());
  }
}

TEST(StudySupervisorTest, PreQuarantinedItemsAreSkipped) {
  StudySupervisor sup{fast_options()};
  std::vector<std::uint32_t> merged;
  const std::vector<std::uint32_t> skip = {3, 40, 95};
  const DayReport report = run_synthetic_day(sup, 0, 96, skip, {}, merged);
  EXPECT_EQ(merged, iota_minus(96, skip));
  EXPECT_TRUE(report.quarantined.empty());
}

TEST(StudySupervisorTest, TransientFailureIsRetriedAndCounted) {
  StudySupervisor sup{fast_options()};
  std::vector<std::uint32_t> merged;
  std::atomic<int> shard1_attempts{0};
  const DayReport report = run_synthetic_day(
      sup, 0, 96, {}, {}, merged, [&](std::size_t shard, const CancelToken*) {
        if (shard == 1 && shard1_attempts.fetch_add(1) == 0) {
          throw TransientError{"first attempt flap"};
        }
      });

  EXPECT_EQ(merged, iota_minus(96, {}));
  EXPECT_EQ(report.retries, 1u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_TRUE(report.degraded());
  const auto& outcome = report.outcomes[1];
  EXPECT_EQ(outcome.attempts, 2);
  ASSERT_EQ(outcome.trail.size(), 1u);
  EXPECT_EQ(outcome.trail[0].code, StatusCode::kUnavailable);
  EXPECT_EQ(sup.summary().transient_failures, 1u);
}

TEST(StudySupervisorTest, RetryExhaustionEscalatesToBisectionThenRecovers) {
  // Five straight transient failures exhaust max_retries=4; the probe pass
  // finds nothing reproducible, so the shard re-runs with a fresh budget and
  // succeeds — degraded day, empty quarantine.
  StudySupervisor sup{fast_options()};
  std::vector<std::uint32_t> merged;
  std::atomic<int> attempts{0};
  const DayReport report = run_synthetic_day(
      sup, 0, 96, {}, {}, merged, [&](std::size_t shard, const CancelToken*) {
        if (shard == 2 && attempts.fetch_add(1) < 5) {
          throw TransientError{"persistent flap"};
        }
      });

  EXPECT_EQ(merged, iota_minus(96, {}));
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_GT(report.bisection_probes, 0u);
  EXPECT_GE(report.outcomes[2].attempts, 6);
}

TEST(StudySupervisorTest, WatchdogDeadlineCancelsHangingShard) {
  SupervisorOptions opt = fast_options();
  opt.retry.attempt_deadline_ms = 40;
  StudySupervisor sup{opt};
  std::vector<std::uint32_t> merged;
  std::atomic<int> hangs{0};
  const DayReport report = run_synthetic_day(
      sup, 0, 96, {}, {}, merged, [&](std::size_t shard, const CancelToken* cancel) {
        if (shard == 0 && hangs.fetch_add(1) == 0) {
          // Cooperative hang: only the watchdog can end this before the
          // 5 s safety bound.
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (std::chrono::steady_clock::now() < give_up) {
            if (cancel != nullptr) cancel->throw_if_cancelled();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      });

  EXPECT_EQ(merged, iota_minus(96, {}));
  EXPECT_GE(report.timeouts, 1u);
  EXPECT_GE(report.retries, 1u);
  ASSERT_FALSE(report.outcomes[0].trail.empty());
  EXPECT_EQ(report.outcomes[0].trail[0].code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(report.quarantined.empty());
}

TEST(StudySupervisorTest, PoisonItemIsBisectedAndQuarantined) {
  std::vector<std::uint32_t> merged;
  std::vector<std::uint32_t> seen_callbacks;
  SupervisorOptions opt = fast_options();
  opt.on_quarantine = [&](const supervise::QuarantinedItem& q) {
    seen_callbacks.push_back(q.item);
  };
  StudySupervisor watched{opt};
  const DayReport report =
      run_synthetic_day(watched, 3, 96, {}, {13}, merged);

  EXPECT_EQ(merged, iota_minus(96, {13}));
  ASSERT_EQ(report.quarantined.size(), 1u);
  const auto& q = report.quarantined[0];
  EXPECT_EQ(q.item, 13u);
  EXPECT_EQ(q.day, 3);
  EXPECT_EQ(q.status.code(), StatusCode::kInternal);
  EXPECT_NE(q.status.message().find("poison item 13"), std::string::npos);
  ASSERT_FALSE(q.trail.empty());  // the shard attempts that led here
  EXPECT_EQ(seen_callbacks, std::vector<std::uint32_t>{13});
  EXPECT_GT(report.bisection_probes, 0u);
  EXPECT_TRUE(report.degraded());
  // The condemned item's shard completed over the survivors.
  for (const auto& outcome : report.outcomes) EXPECT_TRUE(outcome.status.is_ok());
}

TEST(StudySupervisorTest, MultiplePoisonsAcrossAndWithinShards) {
  StudySupervisor sup{fast_options()};
  std::vector<std::uint32_t> merged;
  const std::vector<std::uint32_t> poison = {5, 6, 40, 90};
  const DayReport report = run_synthetic_day(sup, 0, 96, {}, poison, merged);

  EXPECT_EQ(merged, iota_minus(96, poison));
  ASSERT_EQ(report.quarantined.size(), poison.size());
  for (std::size_t i = 0; i < poison.size(); ++i) {
    EXPECT_EQ(report.quarantined[i].item, poison[i]);  // sorted by item
  }
}

TEST(StudySupervisorTest, QuarantineDisabledTurnsPoisonIntoSupervisionError) {
  SupervisorOptions opt = fast_options();
  opt.quarantine_enabled = false;
  StudySupervisor sup{opt};
  std::vector<std::uint32_t> merged;
  EXPECT_THROW(run_synthetic_day(sup, 0, 96, {}, {13}, merged), SupervisionError);
}

TEST(StudySupervisorTest, NonReproducibleShardFailureEventuallyGivesUp) {
  // The shard fails deterministically but no single item reproduces it
  // under probing (an interaction bug): after max_bisection_rounds re-runs
  // the supervisor must refuse to loop forever.
  SupervisorOptions opt = fast_options();
  opt.max_bisection_rounds = 2;
  StudySupervisor sup{opt};
  std::vector<std::uint32_t> merged;
  EXPECT_THROW(
      run_synthetic_day(sup, 0, 96, {}, {}, merged,
                        [&](std::size_t shard, const CancelToken*) {
                          if (shard == 0) throw PermanentError{"interaction bug"};
                        }),
      SupervisionError);
}

TEST(StudySupervisorTest, SimulatedCrashPropagatesUnabsorbed) {
  StudySupervisor sup{fast_options()};
  std::vector<std::uint32_t> merged;
  EXPECT_THROW(run_synthetic_day(sup, 0, 96, {}, {}, merged,
                                 [&](std::size_t shard, const CancelToken*) {
                                   if (shard == 1) throw io::SimulatedCrash{};
                                 }),
               io::SimulatedCrash);
}

TEST(StudySupervisorTest, BackoffIsDeterministicJitteredAndCapped) {
  SupervisorOptions opt = fast_options();
  opt.retry.backoff_initial_ms = 100;
  opt.retry.backoff_cap_ms = 400;
  opt.retry.backoff_multiplier = 2.0;
  StudySupervisor sup{opt};

  // First attempt never sleeps.
  EXPECT_EQ(sup.backoff_ms(0, 0, 0), 0u);
  EXPECT_EQ(sup.backoff_ms(0, 0, 1), 0u);
  // Jitter keeps each retry within [0.5, 1.5) of the exponential base.
  for (int day = 0; day < 4; ++day) {
    for (std::size_t shard = 0; shard < 4; ++shard) {
      EXPECT_GE(sup.backoff_ms(day, shard, 2), 50u);
      EXPECT_LT(sup.backoff_ms(day, shard, 2), 150u);
      EXPECT_GE(sup.backoff_ms(day, shard, 3), 100u);
      EXPECT_LT(sup.backoff_ms(day, shard, 3), 300u);
      // Deep retries are capped (400 ms base, jittered).
      EXPECT_LT(sup.backoff_ms(day, shard, 10), 600u);
      // Same key, same sleep: scheduling is reproducible.
      EXPECT_EQ(sup.backoff_ms(day, shard, 2), sup.backoff_ms(day, shard, 2));
    }
  }
}

TEST(StudySupervisorTest, SummaryAccumulatesAcrossDays) {
  StudySupervisor sup{fast_options()};
  std::vector<std::uint32_t> merged;
  const DayReport day0 = run_synthetic_day(sup, 0, 96, {}, {13}, merged);
  ASSERT_EQ(day0.quarantined.size(), 1u);

  // Day 1 starts with day 0's quarantine — no rediscovery, no new failures.
  merged.clear();
  const std::vector<std::uint32_t> carried = {13};
  const DayReport day1 = run_synthetic_day(sup, 1, 96, carried, {13}, merged);
  EXPECT_TRUE(day1.quarantined.empty());
  EXPECT_EQ(merged, iota_minus(96, carried));

  const auto& summary = sup.summary();
  EXPECT_EQ(summary.days, 2u);
  EXPECT_EQ(summary.degraded_days, 1u);
  EXPECT_GE(summary.permanent_failures, 1u);
  ASSERT_EQ(summary.quarantine.items.size(), 1u);
  EXPECT_EQ(summary.quarantine.items[0].item, 13u);

  sup.reset_summary();
  EXPECT_EQ(sup.summary().days, 0u);
  EXPECT_TRUE(sup.summary().quarantine.items.empty());
}

// --- supervised simulator: the byte-determinism property --------------------

/// One shared test-scale world (construction dominates cost), reset via
/// restore(day0) between runs like the exec determinism suite does.
struct SupWorld {
  StudyConfig cfg;
  std::unique_ptr<Simulator> sim;
  DayCheckpoint day0;

  static SupWorld& instance() {
    static SupWorld world = [] {
      SupWorld w;
      w.cfg = StudyConfig::test_scale();
      w.cfg.days = 2;
      w.cfg.population.count = 1'400;
      w.sim = std::make_unique<Simulator>(w.cfg);
      w.day0.seed = w.cfg.seed;
      return w;
    }();
    return world;
  }
};

/// Detaches the sink and clears the supervisor even when run() throws.
/// The sinks live on each helper's stack while the simulator is a shared
/// static: a failed run that skipped the manual remove_sink() would leave a
/// dangling pointer for the NEXT test to dereference mid-simulation.
struct AttachedSink {
  AttachedSink(Simulator& sim, telemetry::RecordSink& sink) : sim_(sim), sink_(sink) {
    sim_.add_sink(&sink_);
  }
  AttachedSink(Simulator& sim, telemetry::DurableRecordSink& sink)
      : sim_(sim), sink_(sink) {
    sim_.attach_durable_log(&sink);
  }
  ~AttachedSink() {
    sim_.remove_sink(&sink_);  // also clears the durable-log wiring
    sim_.set_supervisor(nullptr);
  }

 private:
  Simulator& sim_;
  telemetry::RecordSink& sink_;
};

/// Sanitizers stretch wall time (TSan ~20x) without stretching the watchdog:
/// deadlines that are generous in a plain build fire on legitimate work and
/// turn timing tests into give-up cascades. Scale them at compile time.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TL_TEST_UNDER_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define TL_TEST_UNDER_TSAN 1
#endif
#if defined(TL_TEST_UNDER_TSAN)
constexpr int kDeadlineScale = 20;
#else
constexpr int kDeadlineScale = 1;
#endif

/// The poison UEs injected by every storm test: spread across the id space,
/// with an adjacent pair (one shard must condemn two neighbours).
const std::vector<std::uint32_t> kPoisonUes = {7, 702, 703, 1'399};

struct SupCapture {
  std::vector<std::uint8_t> record_bytes;
  std::uint32_t record_crc = 0;
  std::uint64_t records_emitted = 0;
  std::uint64_t total_handovers = 0;
  std::vector<devices::UeId> quarantined;
};

/// Serial, unsupervised, uninjected run over the population minus
/// `withdrawn` — the oracle every supervised storm must reproduce.
SupCapture run_oracle(const std::vector<std::uint32_t>& withdrawn) {
  SupWorld& w = SupWorld::instance();
  telemetry::SignalingDataset dataset;
  w.sim->set_supervisor(nullptr);
  w.sim->set_threads(1);
  w.sim->restore(w.day0);
  w.sim->set_quarantined_ues({withdrawn.begin(), withdrawn.end()});
  {
    AttachedSink attached{*w.sim, dataset};
    w.sim->run();
  }

  SupCapture capture;
  for (const auto& record : dataset.records()) {
    RecordLog::encode_record(record, capture.record_bytes);
  }
  capture.record_crc =
      util::crc32c(capture.record_bytes.data(), capture.record_bytes.size());
  capture.records_emitted = w.sim->records_emitted();
  capture.total_handovers = w.sim->core_network().total_handovers();
  capture.quarantined = w.sim->quarantined_ues();
  return capture;
}

SupCapture run_supervised(StudySupervisor& sup, unsigned sim_threads = 1) {
  SupWorld& w = SupWorld::instance();
  telemetry::SignalingDataset dataset;
  w.sim->set_threads(sim_threads);
  w.sim->restore(w.day0);
  w.sim->set_supervisor(&sup);
  {
    AttachedSink attached{*w.sim, dataset};
    w.sim->run();
  }

  SupCapture capture;
  for (const auto& record : dataset.records()) {
    RecordLog::encode_record(record, capture.record_bytes);
  }
  capture.record_crc =
      util::crc32c(capture.record_bytes.data(), capture.record_bytes.size());
  capture.records_emitted = w.sim->records_emitted();
  capture.total_handovers = w.sim->core_network().total_handovers();
  capture.quarantined = w.sim->quarantined_ues();
  return capture;
}

TaskFaultConfig storm_config() {
  TaskFaultConfig fc;
  fc.seed = 0xFA01;
  fc.throw_rate = 0.04;
  fc.io_error_rate = 0.04;
  fc.hang_rate = 0.02;
  fc.slow_rate = 0.05;
  fc.slow_ms = 1;
  fc.max_faulty_attempts = 3;
  fc.hang_cap_ms = 40;  // self-resolving: no deadline needed
  fc.poison_ues = kPoisonUes;
  return fc;
}

TEST(SupervisedSimulator, FaultStormMatchesSerialOracleAtEveryThreadCount) {
  const SupCapture oracle = run_oracle(kPoisonUes);
  ASSERT_GT(oracle.records_emitted, 100u) << "world too small to prove anything";

  const TaskFaultInjector injector{storm_config()};
  for (const unsigned threads : {1u, 2u, 4u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SupervisorOptions opt;
    opt.retry.max_retries = 4;
    opt.retry.backoff_initial_ms = 1;
    opt.retry.backoff_cap_ms = 8;
    opt.injector = &injector;
    StudySupervisor sup{opt};

    const SupCapture storm = run_supervised(sup, threads);

    // Quarantine = exactly the poison set, discovered by bisection.
    EXPECT_EQ(storm.quarantined,
              std::vector<devices::UeId>(kPoisonUes.begin(), kPoisonUes.end()));
    // Output = byte-for-byte the uninjected serial run over the survivors.
    EXPECT_EQ(storm.record_crc, oracle.record_crc);
    ASSERT_EQ(storm.record_bytes, oracle.record_bytes);
    EXPECT_EQ(storm.records_emitted, oracle.records_emitted);
    EXPECT_EQ(storm.total_handovers, oracle.total_handovers);

    // The storm must actually have stormed: every poison UE implies at
    // least one failed attempt, and the summary says the days degraded.
    const auto& summary = sup.summary();
    EXPECT_EQ(summary.days, 2u);
    EXPECT_GE(summary.degraded_days, 1u);
    EXPECT_GE(summary.permanent_failures, 1u);
    EXPECT_GT(summary.bisection_probes, 0u);
    EXPECT_EQ(summary.quarantine.items.size(), kPoisonUes.size());
  }
}

TEST(SupervisedSimulator, HangStormWithDeadlinesStaysByteIdentical) {
  // Hangs that only the watchdog can end (the cap is far beyond the
  // deadline): timeouts fire, shards retry, bytes must not change.
  const SupCapture oracle = run_oracle({});

  TaskFaultConfig fc;
  fc.seed = 0xFA02;
  fc.hang_rate = 0.5;
  fc.max_faulty_attempts = 2;
  fc.hang_cap_ms = 30'000;
  const TaskFaultInjector injector{fc};

  SupervisorOptions opt;
  // Scaled so legitimate shard work still beats the watchdog under TSan;
  // the hangs above dwarf it either way, so timeouts keep firing.
  opt.retry.attempt_deadline_ms = 200 * kDeadlineScale;
  opt.retry.backoff_initial_ms = 1;
  opt.retry.backoff_cap_ms = 4;
  opt.injector = &injector;
  StudySupervisor sup{opt};

  const SupCapture storm = run_supervised(sup, 2);
  EXPECT_TRUE(storm.quarantined.empty());
  ASSERT_EQ(storm.record_bytes, oracle.record_bytes);
  EXPECT_GE(sup.summary().timeouts, 1u);
  EXPECT_GE(sup.summary().retries, 1u);
}

TEST(SupervisedSimulator, WalBytesMatchPreQuarantinedSerialRun) {
  SupWorld& w = SupWorld::instance();
  auto& real = io::StdioFileSystem::instance();

  // Oracle: serial, unsupervised, poison UEs withdrawn up front.
  TempDir ref_dir{"wal_ref"};
  {
    RecordLog::Options opt;
    opt.directory = ref_dir.path;
    RecordLog log{real, opt};
    telemetry::DurableRecordSink sink{log};
    w.sim->set_supervisor(nullptr);
    w.sim->set_threads(1);
    w.sim->restore(w.day0);
    w.sim->set_quarantined_ues({kPoisonUes.begin(), kPoisonUes.end()});
    AttachedSink attached{*w.sim, sink};
    w.sim->run();
  }
  const std::string ref_bytes = log_bytes(ref_dir.path);
  ASSERT_FALSE(ref_bytes.empty());

  // Supervised storm run, quarantining the same UEs as it goes. The WAL —
  // records, segment boundaries, and the commit markers' embedded
  // checkpoints (which carry the quarantine set) — must match exactly.
  TempDir storm_dir{"wal_storm"};
  const TaskFaultInjector injector{storm_config()};
  SupervisorOptions opt;
  opt.retry.backoff_initial_ms = 1;
  opt.retry.backoff_cap_ms = 8;
  opt.injector = &injector;
  StudySupervisor sup{opt};
  {
    RecordLog::Options log_opt;
    log_opt.directory = storm_dir.path;
    RecordLog log{real, log_opt};
    telemetry::DurableRecordSink sink{log};
    w.sim->set_threads(4);
    w.sim->restore(w.day0);
    w.sim->set_supervisor(&sup);
    AttachedSink attached{*w.sim, sink};
    w.sim->run();
  }
  EXPECT_EQ(log_bytes(storm_dir.path), ref_bytes);
}

TEST(SupervisedSimulator, BooksSuccessfulAttemptsAndMergesAsExecStages) {
  // Supervised days book the engine's stage families the way
  // ShardedDayRunner does: one simulated shard and one shard-sim span per
  // successful attempt, one merge span per shard. Failed attempts stay out
  // of the latency histogram.
  TaskFaultConfig fc;
  fc.seed = 0xFA04;
  fc.throw_rate = 0.2;
  fc.io_error_rate = 0.2;
  fc.max_faulty_attempts = 2;
  const TaskFaultInjector injector{fc};
  SupervisorOptions opt = fast_options();
  opt.injector = &injector;
  StudySupervisor sup{opt};

  obs::MetricsRegistry registry;
  {
    obs::ScopedGlobalRegistry install{&registry};
    (void)run_supervised(sup, 2);
  }
  const obs::MetricsSnapshot snap = registry.scrape();

  const auto& summary = sup.summary();
  const std::uint64_t failed = summary.transient_failures + summary.permanent_failures;
  ASSERT_GT(failed, 0u) << "the storm must fail some attempts";
  ASSERT_TRUE(summary.quarantine.items.empty());
  // Without quarantine, every shard of every day succeeds exactly once. The
  // geometry is the study's: a runner at the same threads and shard size.
  exec::ShardedDayRunner::Options geometry;
  geometry.threads = 2;
  geometry.items_per_shard = Simulator::kMinUesPerShard;
  const std::uint64_t shard_days =
      exec::ShardedDayRunner{geometry}.shard_count(
          SupWorld::instance().sim->population().size()) *
      summary.days;
  EXPECT_EQ(summary.shard_attempts - failed, shard_days);

  const auto* simulated = snap.find_counter("tl_exec_shards_simulated_total");
  const auto* sim = snap.find_histogram("tl_exec_shard_sim_seconds");
  const auto* merge = snap.find_histogram("tl_exec_shard_merge_seconds");
  ASSERT_NE(simulated, nullptr);
  ASSERT_NE(sim, nullptr);
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(simulated->value, shard_days);
  EXPECT_EQ(sim->count, shard_days);
  EXPECT_EQ(merge->count, shard_days);
}

TEST(SupervisedSimulator, RunsAtTheStudysThreadsAndGeometry) {
  // Installing a supervisor changes how shard failures are handled, not how
  // the day is cut: at the study's thread count a supervised run simulates
  // and merges exactly the shards an unsupervised run does, and emits the
  // same bytes.
  SupWorld& w = SupWorld::instance();
  struct Arm {
    std::vector<std::uint8_t> record_bytes;
    std::uint64_t shards = 0;
    std::uint64_t merges = 0;
  };
  const auto run_arm = [&w](StudySupervisor* sup) {
    obs::MetricsRegistry registry;
    telemetry::SignalingDataset dataset;
    {
      obs::ScopedGlobalRegistry install{&registry};
      w.sim->set_threads(2);
      w.sim->restore(w.day0);
      w.sim->set_supervisor(sup);
      AttachedSink attached{*w.sim, dataset};
      w.sim->run();
    }
    Arm arm;
    for (const auto& record : dataset.records()) {
      RecordLog::encode_record(record, arm.record_bytes);
    }
    const obs::MetricsSnapshot snap = registry.scrape();
    if (const auto* c = snap.find_counter("tl_exec_shards_simulated_total")) {
      arm.shards = c->value;
    }
    if (const auto* h = snap.find_histogram("tl_exec_shard_merge_seconds")) {
      arm.merges = h->count;
    }
    return arm;
  };

  const Arm plain = run_arm(nullptr);
  StudySupervisor sup{SupervisorOptions{}};
  const Arm supervised = run_arm(&sup);

  ASSERT_GT(plain.shards, 0u);
  EXPECT_EQ(supervised.shards, plain.shards);
  EXPECT_EQ(supervised.merges, plain.merges);
  ASSERT_FALSE(plain.record_bytes.empty());
  EXPECT_EQ(supervised.record_bytes, plain.record_bytes);
}

TEST(SupervisedSimulator, GivingUpMidDayRollsBackAndRerunsByteIdentically) {
  // A strict supervisor gives up on day 1's last shard, possibly after the
  // pipelined merge folded in the shards before it. run_day must roll the day
  // back like any failed day, and re-running it under a quarantining
  // supervisor must commit the WAL of a serial run that withdrew the poison
  // UE from day 1 on.
  SupWorld& w = SupWorld::instance();
  auto& real = io::StdioFileSystem::instance();
  const std::uint32_t poison = 1'399;  // the last UE: the last shard's range
  TaskFaultConfig fc;
  fc.poison_ues = {poison};
  const TaskFaultInjector injector{fc};

  TempDir ref_dir{"giveup_ref"};
  {
    RecordLog::Options opt;
    opt.directory = ref_dir.path;
    RecordLog log{real, opt};
    telemetry::DurableRecordSink sink{log};
    log.open();
    w.sim->set_supervisor(nullptr);
    w.sim->set_threads(1);
    w.sim->restore(w.day0);
    AttachedSink attached{*w.sim, sink};
    w.sim->run_day(0);
    w.sim->set_quarantined_ues({poison});
    w.sim->run_day(1);
  }
  const std::string ref_bytes = log_bytes(ref_dir.path);
  ASSERT_FALSE(ref_bytes.empty());

  SupervisorOptions strict_opt;
  strict_opt.quarantine_enabled = false;
  strict_opt.injector = &injector;
  StudySupervisor strict{strict_opt};
  SupervisorOptions lenient_opt;
  lenient_opt.injector = &injector;
  StudySupervisor lenient{lenient_opt};

  TempDir dir{"giveup"};
  {
    RecordLog::Options opt;
    opt.directory = dir.path;
    RecordLog log{real, opt};
    telemetry::DurableRecordSink sink{log};
    log.open();
    w.sim->set_threads(2);
    w.sim->restore(w.day0);
    AttachedSink attached{*w.sim, sink};
    w.sim->run_day(0);  // unsupervised: the poison channel stays silent

    ASSERT_EQ(log.last_committed_day(), 0);
    const std::uint64_t records_before = w.sim->records_emitted();
    const std::uint64_t handovers_before = w.sim->core_network().total_handovers();
    const auto state_before = core::encode_checkpoint(w.sim->checkpoint());

    w.sim->set_supervisor(&strict);
    EXPECT_THROW(w.sim->run_day(1), SupervisionError);
    EXPECT_EQ(log.last_committed_day(), 0);
    EXPECT_EQ(w.sim->records_emitted(), records_before);
    EXPECT_EQ(w.sim->core_network().total_handovers(), handovers_before);
    EXPECT_EQ(w.sim->next_day(), 1);
    EXPECT_EQ(log.buffered_records(), 0u);
    EXPECT_EQ(core::encode_checkpoint(w.sim->checkpoint()), state_before);

    w.sim->set_supervisor(&lenient);
    w.sim->run_day(1);
    EXPECT_EQ(w.sim->quarantined_ues(), std::vector<devices::UeId>{poison});
  }
  EXPECT_EQ(log_bytes(dir.path), ref_bytes);
}

// --- kill/resume under a supervised fault storm ------------------------------

int supervised_chaos_schedules() {
  if (const char* env = std::getenv("TL_CHAOS_SCHEDULES")) {
    const int n = std::atoi(env);
    if (n > 0) return std::max(2, n / 10);
  }
  return 10;
}

TEST(SupervisedChaos, KillResumeUnderFaultStormYieldsIdenticalWal) {
  // Three fault layers at once: the task/poison injector (absorbed by the
  // supervisor), transient disk errors (absorbed by the caller's retry
  // loop), and hard crash points (kill the run; resume from the WAL).
  // Every schedule must still converge to the reference bytes — including
  // the commit markers that carry the quarantine set across the crash.
  StudyConfig cfg = StudyConfig::test_scale();
  cfg.days = 3;
  cfg.population.count = 400;
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.max_segment_bytes = 24 * 1024;
  opt.write_chunk_bytes = 1024;

  TaskFaultConfig fc;
  fc.seed = 0xFA03;
  fc.throw_rate = 0.05;
  fc.io_error_rate = 0.05;
  fc.slow_rate = 0.02;
  fc.slow_ms = 1;
  fc.max_faulty_attempts = 2;
  fc.poison_ues = {3, 201};
  const TaskFaultInjector injector{fc};

  SupervisorOptions sup_opt;
  sup_opt.retry.backoff_initial_ms = 1;
  sup_opt.retry.backoff_cap_ms = 4;
  sup_opt.injector = &injector;
  StudySupervisor sup{sup_opt};

  Simulator sim{cfg};
  DayCheckpoint day0;
  day0.seed = cfg.seed;
  sim.set_threads(2);
  sim.set_supervisor(&sup);

  // Reference: supervised storm through a fault-free decorated filesystem.
  TempDir ref_dir{"chaos_ref"};
  std::uint64_t horizon = 0;
  {
    io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};
    RecordLog::Options ref_opt = opt;
    ref_opt.directory = ref_dir.path;
    RecordLog log{ffs, ref_opt};
    telemetry::DurableRecordSink sink{log};
    log.open();
    sim.restore(day0);
    sim.attach_durable_log(&sink);
    sim.run();
    sim.remove_sink(&sink);
    horizon = ffs.ops();
  }
  const std::string ref_bytes = log_bytes(ref_dir.path);
  const std::vector<devices::UeId> ref_quarantine = sim.quarantined_ues();
  ASSERT_EQ(ref_quarantine,
            std::vector<devices::UeId>(fc.poison_ues.begin(), fc.poison_ues.end()));
  ASSERT_GT(horizon, 20u);

  const int schedules = supervised_chaos_schedules();
  int total_crashes = 0;
  for (int schedule = 0; schedule < schedules; ++schedule) {
    TempDir dir{"chaos_" + std::to_string(schedule)};
    util::Rng meta =
        util::Rng::derive(0x5C4A05ULL, static_cast<std::uint64_t>(schedule));
    int attempts = 0;
    bool complete = false;
    while (!complete) {
      ASSERT_LT(attempts, 64) << "schedule " << schedule << " livelocked";
      ++attempts;
      io::IoFaultPlan plan;
      const bool clean = attempts > 1 && meta.chance(0.4);
      if (!clean) {
        const double transient_rate = (schedule % 3 == 0) ? 0.01 : 0.0;
        plan = io::IoFaultPlan::chaos(meta(), horizon + 8, transient_rate);
      }
      io::FaultyFileSystem ffs{real, plan, meta()};
      RecordLog::Options run_opt = opt;
      run_opt.directory = dir.path;
      RecordLog log{ffs, run_opt};
      telemetry::DurableRecordSink sink{log};
      try {
        log.open();
        sim.restore(day0);
        sim.attach_durable_log(&sink);
        sim.run();
        complete = true;
      } catch (const io::SimulatedCrash&) {
        ++total_crashes;
      } catch (const io::IoError&) {
        // transient disk fault aborted a commit; retry resumes from the log
      }
      sim.remove_sink(&sink);
    }
    ASSERT_EQ(log_bytes(dir.path), ref_bytes) << "schedule " << schedule;
    EXPECT_EQ(sim.quarantined_ues(), ref_quarantine) << "schedule " << schedule;
  }
  EXPECT_GT(total_crashes, 0);
}

// --- checkpoint formats carry the quarantine ---------------------------------

DayCheckpoint quarantine_checkpoint() {
  DayCheckpoint cp;
  cp.next_day = 4;
  cp.seed = 0xABCDEF01ULL;
  cp.records_emitted = 777;
  cp.core.mme(geo::kAllRegions[0]).handovers.procedures = 99;
  cp.quarantined_ues = {1, 5, 99, 70'000};
  return cp;
}

TEST(CheckpointQuarantine, BinaryV2RoundTripsTheQuarantineSet) {
  const DayCheckpoint cp = quarantine_checkpoint();
  const auto bytes = core::encode_checkpoint(cp);
  const DayCheckpoint back = core::decode_checkpoint(bytes);
  EXPECT_EQ(back.next_day, cp.next_day);
  EXPECT_EQ(back.seed, cp.seed);
  EXPECT_EQ(back.records_emitted, cp.records_emitted);
  EXPECT_EQ(back.quarantined_ues, cp.quarantined_ues);

  DayCheckpoint empty = cp;
  empty.quarantined_ues.clear();
  EXPECT_TRUE(core::decode_checkpoint(core::encode_checkpoint(empty))
                  .quarantined_ues.empty());
}

TEST(CheckpointQuarantine, LegacyV1CheckpointsStillDecode) {
  // A v1 checkpoint is the v2 fixed section with version=1 and no
  // quarantine list: old WAL commit markers must keep resuming.
  DayCheckpoint cp = quarantine_checkpoint();
  cp.quarantined_ues.clear();
  auto bytes = core::encode_checkpoint(cp);
  bytes.resize(bytes.size() - 8);  // drop u32 count + u32 crc
  bytes[4] = 1;                    // version LE
  bytes[5] = 0;
  const std::uint32_t crc = util::crc32c(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(util::mask_crc32c(crc) >> (8 * i)));
  }
  const DayCheckpoint back = core::decode_checkpoint(bytes);
  EXPECT_EQ(back.next_day, cp.next_day);
  EXPECT_EQ(back.seed, cp.seed);
  EXPECT_EQ(back.records_emitted, cp.records_emitted);
  EXPECT_TRUE(back.quarantined_ues.empty());
}

TEST(CheckpointQuarantine, RejectsNonCanonicalQuarantineList) {
  DayCheckpoint cp = quarantine_checkpoint();
  cp.quarantined_ues = {5, 1, 99, 70'000};  // encoder trusts the caller here
  const auto bytes = core::encode_checkpoint(cp);
  EXPECT_THROW(core::decode_checkpoint(bytes), std::runtime_error);
}

// --- run_with_retries: the single-operation slice of the retry ladder -------

supervise::RetryPolicy fast_retry_policy() {
  supervise::RetryPolicy policy;
  policy.max_retries = 4;
  policy.backoff_initial_ms = 0;
  policy.backoff_cap_ms = 0;
  return policy;
}

TEST(RunWithRetries, SucceedsAfterTransientFailures) {
  int calls = 0;
  const supervise::RetryReport report = supervise::run_with_retries(
      fast_retry_policy(), "flaky poll", [&](const supervise::CancelToken&) {
        if (++calls < 3) throw supervise::TransientError{"blip"};
      });
  EXPECT_TRUE(report.ok()) << report.status.to_string();
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.retries, 2);
  EXPECT_EQ(report.timeouts, 0);
  EXPECT_EQ(calls, 3);
}

TEST(RunWithRetries, PermanentFailureDoesNotRetry) {
  int calls = 0;
  const supervise::RetryReport report = supervise::run_with_retries(
      fast_retry_policy(), "broken op", [&](const supervise::CancelToken&) {
        ++calls;
        throw supervise::PermanentError{"structurally wrong"};
      });
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kInternal);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(calls, 1);
}

TEST(RunWithRetries, ExhaustionReportsAborted) {
  supervise::RetryPolicy policy = fast_retry_policy();
  policy.max_retries = 2;
  int calls = 0;
  const supervise::RetryReport report = supervise::run_with_retries(
      policy, "always down", [&](const supervise::CancelToken&) {
        ++calls;
        throw supervise::TransientError{"still down"};
      });
  EXPECT_EQ(report.status.code(), StatusCode::kAborted);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(calls, 3);
  EXPECT_NE(report.status.message().find("retries exhausted"),
            std::string::npos);
}

TEST(RunWithRetries, DeadlineWatchdogCancelsTheToken) {
  supervise::RetryPolicy policy = fast_retry_policy();
  policy.max_retries = 1;
  policy.attempt_deadline_ms = 20;
  const supervise::RetryReport report = supervise::run_with_retries(
      policy, "stuck op", [&](const supervise::CancelToken& token) {
        // Cooperative loop: spins until the watchdog cancels it.
        while (true) {
          token.throw_if_cancelled();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.timeouts, 2);
  EXPECT_EQ(report.status.code(), StatusCode::kAborted);
}

TEST(RunWithRetries, SimulatedCrashPropagatesUncounted) {
  EXPECT_THROW(supervise::run_with_retries(
                   fast_retry_policy(), "dying op",
                   [&](const supervise::CancelToken&) {
                     throw io::SimulatedCrash{};
                   }),
               io::SimulatedCrash);
}

TEST(RunWithRetries, BackoffScheduleIsDeterministicAndCapped) {
  supervise::RetryPolicy policy;
  policy.backoff_initial_ms = 8;
  policy.backoff_cap_ms = 50;
  policy.backoff_multiplier = 2.0;
  // The first attempt never sleeps.
  EXPECT_EQ(supervise::retry_backoff_ms(policy, 1), 0u);
  for (int attempt = 2; attempt <= 8; ++attempt) {
    const std::uint64_t ms = supervise::retry_backoff_ms(policy, attempt);
    // Jitter scales the capped exponential by [0.5, 1.5).
    EXPECT_LE(ms, policy.backoff_cap_ms * 3 / 2) << attempt;
    EXPECT_EQ(ms, supervise::retry_backoff_ms(policy, attempt)) << attempt;
  }
  EXPECT_GE(supervise::retry_backoff_ms(policy, 2),
            policy.backoff_initial_ms / 2);
}

}  // namespace
}  // namespace tl
