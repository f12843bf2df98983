// Observability-layer tests: registry semantics (sharded counters summing
// exactly across threads, idempotent registration, enable/disable), the
// exposition writers, ScopedTimer, StudyMonitor, the analysis-layer fixes
// the obs histograms rely on (validated Histogram edges, NaN-safe binning,
// cached ReservoirSample quantiles, exact Ecdf::inverse), and the headline
// guarantee: metrics are observational only — the record stream and the
// durable log's on-disk bytes are byte-identical with metrics on or off,
// at any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/ecdf.hpp"
#include "analysis/histogram.hpp"
#include "core/simulator.hpp"
#include "io/file.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/study_monitor.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/signaling_dataset.hpp"
#include "util/accumulator.hpp"

namespace tl {
namespace {

using core::DayCheckpoint;
using core::Simulator;
using core::StudyConfig;
using telemetry::RecordLog;

namespace fs = std::filesystem;

// --- registry semantics ------------------------------------------------------

TEST(MetricsRegistry, CountersSumExactlyAcrossThreads) {
  obs::MetricsRegistry reg;
  const obs::Counter counter = reg.counter("test_total", "help text");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < 10'000; ++i) counter.inc();
    });
  }
  for (auto& th : threads) th.join();
  counter.inc(5);

  const obs::MetricsSnapshot snap = reg.scrape();
  const obs::CounterSnapshot* c = snap.find_counter("test_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 80'005u);
  EXPECT_EQ(c->help, "help text");
}

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  obs::MetricsRegistry reg;
  const obs::Counter a = reg.counter("same");
  const obs::Counter b = reg.counter("same");
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(reg.scrape().find_counter("same")->value, 5u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", {0.0, 1.0}), std::logic_error);
  reg.gauge("g");
  EXPECT_THROW(reg.counter("g"), std::logic_error);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  obs::MetricsRegistry reg;
  const obs::Gauge g = reg.gauge("depth");
  g.set(10.0);
  g.add(-3.0);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(reg.scrape().find_gauge("depth")->value, 8.5);
}

TEST(MetricsRegistry, HistogramBinsUnderOverflowAndNan) {
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("lat", {0.0, 1.0, 2.0});
  h.observe(0.5);
  h.observe(1.0);
  h.observe(1.5);
  h.observe(-1.0);                                      // underflow
  h.observe(5.0);                                       // overflow
  h.observe(std::numeric_limits<double>::quiet_NaN());  // nan slot

  const obs::MetricsSnapshot snap = reg.scrape();
  const obs::HistogramSnapshot* s = snap.find_histogram("lat");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->counts.size(), 2u);
  EXPECT_EQ(s->counts[0], 1u);  // 0.5
  EXPECT_EQ(s->counts[1], 2u);  // 1.0, 1.5
  EXPECT_EQ(s->underflow, 1u);
  EXPECT_EQ(s->overflow, 1u);
  EXPECT_EQ(s->nan, 1u);
  EXPECT_EQ(s->count, 5u);  // NaN excluded
  EXPECT_DOUBLE_EQ(s->sum, 0.5 + 1.0 + 1.5 - 1.0 + 5.0);
  EXPECT_DOUBLE_EQ(s->quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s->quantile(0.4), 1.0);  // 2nd of 5 lands in underflow+bin0
  EXPECT_DOUBLE_EQ(s->quantile(0.5), 2.0);  // 3rd of 5 lands in [1,2)
  EXPECT_DOUBLE_EQ(s->quantile(1.0), 2.0);  // overflow -> last edge
  EXPECT_THROW(s->quantile(1.5), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramRejectsBadEdges) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("a", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("b", {1.0}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("c", {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("d", {2.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, DisabledRegistryDropsOperations) {
  obs::MetricsRegistry reg;
  const obs::Counter c = reg.counter("c");
  c.inc();
  reg.set_enabled(false);
  EXPECT_FALSE(c.live());
  c.inc(100);
  reg.set_enabled(true);
  c.inc();
  EXPECT_EQ(reg.scrape().find_counter("c")->value, 2u);
}

TEST(MetricsRegistry, NullHandlesAreNoOps) {
  const obs::Counter c;
  const obs::Gauge g;
  const obs::Histogram h;
  EXPECT_FALSE(c.live());
  c.inc();  // must not crash
  g.set(1.0);
  g.add(1.0);
  h.observe(1.0);
}

TEST(MetricsRegistry, ScrapeIsSortedByName) {
  obs::MetricsRegistry reg;
  reg.counter("zebra");
  reg.counter("alpha");
  reg.counter("middle");
  const obs::MetricsSnapshot snap = reg.scrape();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "middle");
  EXPECT_EQ(snap.counters[2].name, "zebra");
}

TEST(MetricsRegistry, ExponentialEdgesAndDefaults) {
  const std::vector<double> edges = obs::MetricsRegistry::exponential_edges(1.0, 2.0, 3);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_DOUBLE_EQ(edges[0], 1.0);
  EXPECT_DOUBLE_EQ(edges[3], 8.0);
  const std::vector<double> lat = obs::MetricsRegistry::latency_edges_s();
  ASSERT_GE(lat.size(), 2u);
  EXPECT_DOUBLE_EQ(lat.front(), 100e-6);
  for (std::size_t i = 1; i < lat.size(); ++i) EXPECT_GT(lat[i], lat[i - 1]);
  EXPECT_THROW(obs::MetricsRegistry::exponential_edges(0.0, 2.0, 3),
               std::invalid_argument);
}

TEST(GlobalRegistry, ScopedInstallBumpsEpochAndRestores) {
  obs::MetricsRegistry* before = obs::global_registry();
  const std::uint64_t epoch0 = obs::global_epoch();
  {
    obs::MetricsRegistry reg;
    obs::ScopedGlobalRegistry install{&reg};
    EXPECT_EQ(obs::global_registry(), &reg);
    EXPECT_GT(obs::global_epoch(), epoch0);
  }
  EXPECT_EQ(obs::global_registry(), before);
  EXPECT_GT(obs::global_epoch(), epoch0 + 1);
}

// --- ScopedTimer -------------------------------------------------------------

TEST(ScopedTimer, RecordsOneSpanIntoTheHistogram) {
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("span_s", {0.0, 10.0});
  {
    obs::ScopedTimer timer{h};
  }
  EXPECT_EQ(reg.scrape().find_histogram("span_s")->count, 1u);
}

TEST(ScopedTimer, StopIsIdempotentAndReturnsSeconds) {
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("span_s", {0.0, 10.0});
  obs::ScopedTimer timer{h};
  const double first = timer.stop();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(timer.stop(), 0.0);  // second stop records nothing
  EXPECT_EQ(reg.scrape().find_histogram("span_s")->count, 1u);
}

TEST(ScopedTimer, CancelAbandonsTheSpan) {
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("span_s", {0.0, 10.0});
  {
    obs::ScopedTimer timer{h};
    timer.cancel();
  }
  EXPECT_EQ(reg.scrape().find_histogram("span_s")->count, 0u);
}

TEST(ScopedTimer, DeadHistogramSkipsTheClock) {
  obs::ScopedTimer timer{obs::Histogram{}};
  EXPECT_EQ(timer.stop(), 0.0);
}

// --- exposition --------------------------------------------------------------

TEST(Exposition, PrometheusTextFormat) {
  obs::MetricsRegistry reg;
  reg.counter("req_total", "requests").inc(7);
  reg.gauge("depth").set(2.5);
  const obs::Histogram h = reg.histogram("lat_s", {0.0, 1.0, 2.0}, "latency");
  h.observe(-0.5);  // underflow folds into every cumulative bucket
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);  // overflow: only in +Inf

  const std::string text = obs::to_prometheus(reg.scrape());
  EXPECT_NE(text.find("# HELP req_total requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("req_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("depth 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_s_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_s_bucket{le=\"2\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_s_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_s_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_s_sum 10.5\n"), std::string::npos);
}

TEST(Exposition, OutputIsDeterministicAcrossScrapes) {
  obs::MetricsRegistry reg;
  reg.counter("b").inc(1);
  reg.counter("a").inc(2);
  reg.gauge("z").set(4.0);
  EXPECT_EQ(obs::to_prometheus(reg.scrape()), obs::to_prometheus(reg.scrape()));
}

// --- StudyMonitor ------------------------------------------------------------

TEST(StudyMonitor, SnapshotDerivesTotalsAndRates) {
  obs::MetricsRegistry reg;
  const obs::Counter days = reg.counter("tl_sim_days_total");
  const obs::Counter ue_days = reg.counter("tl_sim_ue_days_total");
  const obs::Counter records = reg.counter("tl_sim_records_total");
  reg.gauge("tl_supervise_quarantine_size").set(3.0);

  obs::StudyMonitor monitor{reg};
  days.inc(2);
  ue_days.inc(4'000);
  records.inc(120'000);
  const obs::StudyMonitor::Snapshot snap = monitor.snapshot();
  EXPECT_EQ(snap.days, 2u);
  EXPECT_EQ(snap.ue_days, 4'000u);
  EXPECT_EQ(snap.records, 120'000u);
  EXPECT_DOUBLE_EQ(snap.quarantine_size, 3.0);
  EXPECT_GT(snap.uptime_s, 0.0);
  EXPECT_GT(snap.ue_days_per_sec, 0.0);  // first interval spans construction
  EXPECT_GT(snap.records_per_sec, 0.0);

  // A second snapshot with no new work reports zero interval rates.
  const obs::StudyMonitor::Snapshot idle = monitor.snapshot();
  EXPECT_DOUBLE_EQ(idle.ue_days_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(idle.records_per_sec, 0.0);
  EXPECT_EQ(idle.ue_days, 4'000u);
}

TEST(StudyMonitor, WritesExpositionFiles) {
  obs::MetricsRegistry reg;
  reg.counter("tl_sim_records_total").inc(42);
  obs::StudyMonitor monitor{reg};

  const std::string dir = ::testing::TempDir() + "tl_obs_monitor";
  fs::create_directories(dir);
  monitor.write_prometheus_file(dir + "/metrics.prom");

  std::ifstream prom{dir + "/metrics.prom"};
  std::stringstream prom_body;
  prom_body << prom.rdbuf();
  EXPECT_NE(prom_body.str().find("tl_sim_records_total 42"), std::string::npos);
  fs::remove_all(dir);

  EXPECT_THROW(monitor.write_prometheus_file("/nonexistent-dir/x/metrics.prom"),
               std::runtime_error);
}

TEST(StudyMonitor, ExpositionDumpsPublishAtomically) {
  // Scrape files are replaced via tmp + fsync + rename: after any number of
  // rewrites the destination holds exactly one complete dump and no .tmp
  // sibling survives — an external collector can never read a torn file.
  obs::MetricsRegistry reg;
  obs::StudyMonitor monitor{reg};
  const std::string dir = ::testing::TempDir() + "tl_obs_atomic";
  fs::create_directories(dir);
  const std::string path = dir + "/metrics.prom";
  for (int i = 1; i <= 5; ++i) {
    reg.counter("tl_sim_records_total").inc(7);
    monitor.write_prometheus_file(path);
    EXPECT_FALSE(fs::exists(path + ".tmp")) << i;
    std::ifstream in{path};
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("tl_sim_records_total " + std::to_string(7 * i)),
              std::string::npos)
        << i;
  }
  // A failed rewrite (tmp path unopenable) must leave the old dump intact.
  const auto before = fs::file_size(path);
  fs::create_directory(path + ".tmp");  // squats the tmp name
  EXPECT_THROW(monitor.write_prometheus_file(path), std::runtime_error);
  fs::remove(path + ".tmp");
  EXPECT_EQ(fs::file_size(path), before);
  fs::remove_all(dir);
}

// --- analysis-layer regression fixes ----------------------------------------

TEST(HistogramValidation, RejectsFewerThanTwoEdges) {
  // Regression: edges.size() - 1 underflowed for 0/1 edges, resizing bins_
  // to SIZE_MAX (alloc failure at best).
  EXPECT_THROW(analysis::Histogram{std::vector<double>{}}, std::invalid_argument);
  EXPECT_THROW(analysis::Histogram{std::vector<double>{1.0}}, std::invalid_argument);
}

TEST(HistogramValidation, RejectsNonMonotoneOrNanEdges) {
  EXPECT_THROW(analysis::Histogram(std::vector<double>{1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(analysis::Histogram(std::vector<double>{2.0, 1.0, 3.0}),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(analysis::Histogram(std::vector<double>{0.0, nan, 2.0}),
               std::invalid_argument);
  EXPECT_NO_THROW(analysis::Histogram(std::vector<double>{0.0, 1.0}));
}

TEST(HistogramNan, BinIndexReturnsNposForNan) {
  // Regression: NaN compared false against every guard and fell through
  // std::upper_bound into bin 0.
  const analysis::Histogram h{std::vector<double>{0.0, 1.0, 2.0}};
  EXPECT_EQ(h.bin_index(std::numeric_limits<double>::quiet_NaN()),
            analysis::Histogram::npos);
  EXPECT_EQ(h.bin_index(0.5), 0u);
  EXPECT_EQ(h.bin_index(1.5), 1u);
}

TEST(HistogramNan, AddTalliesNanSeparately) {
  analysis::Histogram h{std::vector<double>{0.0, 1.0, 2.0}};
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(0.5);
  h.add(-1.0);
  EXPECT_EQ(h.nan(), 1u);
  EXPECT_EQ(h.bins()[0].count, 1u);
  EXPECT_EQ(h.bins()[1].count, 0u);  // NaN must not land in any bin
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.total(), 1u);  // only binned samples; NaN/underflow excluded
}

TEST(ReservoirQuantile, RepeatedCallsAreIdenticalAndCheap) {
  util::ReservoirSample sample{64};
  for (int i = 0; i < 1'000; ++i) sample.add(static_cast<double>(i % 97));
  const double q1 = sample.quantile(0.25);
  const double q2 = sample.quantile(0.25);
  const double q3 = sample.quantile(0.25);
  EXPECT_EQ(q1, q2);
  EXPECT_EQ(q2, q3);
  // Sweeping quantiles reuses the same cached sorted view: monotone output.
  double prev = sample.quantile(0.0);
  for (double p = 0.1; p <= 1.0; p += 0.1) {
    const double q = sample.quantile(p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(ReservoirQuantile, AddInvalidatesTheCachedSort) {
  util::ReservoirSample sample{8};
  for (int i = 0; i < 8; ++i) sample.add(1.0);
  EXPECT_DOUBLE_EQ(sample.quantile(1.0), 1.0);
  // Capacity not exceeded yet means every add lands in the reservoir; a new
  // maximum must be visible to the next quantile call.
  util::ReservoirSample fresh{8};
  fresh.add(1.0);
  EXPECT_DOUBLE_EQ(fresh.quantile(1.0), 1.0);
  fresh.add(5.0);
  EXPECT_DOUBLE_EQ(fresh.quantile(1.0), 5.0);
  fresh.add(0.5);
  EXPECT_DOUBLE_EQ(fresh.quantile(0.0), 0.5);
}

TEST(EcdfInverse, ExactAtEveryStep) {
  // Regression: ceil(p * n) - 1 misindexed when p * n rounded just above an
  // integer (e.g. 0.7 * 10 = 7.000000000000001 -> index 7, not 6). The
  // predicate form — smallest i with (i+1)/n >= p — is exact by definition.
  std::vector<double> samples;
  for (int i = 1; i <= 10; ++i) samples.push_back(static_cast<double>(i));
  const analysis::Ecdf ecdf{samples};
  EXPECT_DOUBLE_EQ(ecdf.inverse(0.7), 7.0);   // the historical failure case
  EXPECT_DOUBLE_EQ(ecdf.inverse(0.1), 1.0);   // p = 1/n -> minimum
  EXPECT_DOUBLE_EQ(ecdf.inverse(1.0), 10.0);  // p = 1 -> maximum
  EXPECT_DOUBLE_EQ(ecdf.inverse(0.05), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.inverse(0.71), 8.0);
}

TEST(EcdfInverse, AgreesWithAtForLargeN) {
  // inverse(p) must return the smallest sample v with at(v) >= p — the exact
  // predicate, for every step probability of a 1000-sample distribution.
  std::vector<double> samples;
  for (int i = 0; i < 1'000; ++i) samples.push_back(static_cast<double>(i));
  const analysis::Ecdf ecdf{samples};
  const double n = 1'000.0;
  for (int k = 1; k <= 1'000; k += 7) {
    const double p = static_cast<double>(k) / n;
    const double v = ecdf.inverse(p);
    EXPECT_EQ(v, samples[static_cast<std::size_t>(k) - 1]) << "p=" << p;
    EXPECT_GE(ecdf.at(v), p);
  }
}

// --- determinism with metrics on --------------------------------------------

/// One shared test-scale world (the test_exec pattern): built once, every
/// run restores to day 0.
struct ObsWorld {
  StudyConfig cfg;
  std::unique_ptr<Simulator> sim;
  DayCheckpoint day0;

  static ObsWorld& instance() {
    static ObsWorld world = [] {
      ObsWorld w;
      w.cfg = StudyConfig::test_scale();
      w.cfg.days = 2;
      w.cfg.population.count = 1'200;
      w.sim = std::make_unique<Simulator>(w.cfg);
      w.day0.seed = w.cfg.seed;
      return w;
    }();
    return world;
  }
};

std::vector<std::uint8_t> run_record_bytes(unsigned threads,
                                           obs::MetricsRegistry* registry) {
  ObsWorld& w = ObsWorld::instance();
  std::unique_ptr<obs::ScopedGlobalRegistry> install;
  if (registry != nullptr) {
    install = std::make_unique<obs::ScopedGlobalRegistry>(registry);
  }
  telemetry::SignalingDataset dataset;
  w.sim->set_threads(threads);
  w.sim->restore(w.day0);
  w.sim->add_sink(&dataset);
  w.sim->run();
  w.sim->remove_sink(&dataset);

  std::vector<std::uint8_t> bytes;
  for (const auto& record : dataset.records()) {
    RecordLog::encode_record(record, bytes);
  }
  return bytes;
}

TEST(ObsDeterminism, RecordBytesIdenticalWithMetricsOnAtAnyThreadCount) {
  const std::vector<std::uint8_t> baseline = run_record_bytes(1, nullptr);
  ASSERT_FALSE(baseline.empty());
  for (const unsigned threads : {1u, 2u, 4u}) {
    obs::MetricsRegistry registry;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run_record_bytes(threads, &registry), baseline);
    // The instrumentation really ran: days and records counted.
    const obs::MetricsSnapshot snap = registry.scrape();
    EXPECT_EQ(snap.find_counter("tl_sim_days_total")->value,
              static_cast<std::uint64_t>(ObsWorld::instance().cfg.days));
    EXPECT_EQ(snap.find_counter("tl_sim_records_total")->value,
              baseline.size() / RecordLog::kRecordEncodedSize);
  }
}

TEST(ObsDeterminism, CountersMatchTheRunExactly) {
  obs::MetricsRegistry registry;
  const std::vector<std::uint8_t> bytes = run_record_bytes(2, &registry);
  const ObsWorld& w = ObsWorld::instance();
  const obs::MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.find_counter("tl_sim_ue_days_total")->value,
            static_cast<std::uint64_t>(w.cfg.population.count) * w.cfg.days);
  EXPECT_EQ(snap.find_counter("tl_sim_records_total")->value,
            bytes.size() / RecordLog::kRecordEncodedSize);
  EXPECT_GT(snap.find_counter("tl_exec_pool_tasks_total")->value, 0u);
  EXPECT_GT(snap.find_counter("tl_exec_shards_simulated_total")->value, 0u);
  const obs::HistogramSnapshot* day = snap.find_histogram("tl_sim_day_seconds");
  ASSERT_NE(day, nullptr);
  EXPECT_EQ(day->count, static_cast<std::uint64_t>(w.cfg.days));
}

std::string wal_bytes(const std::string& dir) {
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

std::string run_durable_wal(unsigned threads, const std::string& dir,
                            obs::MetricsRegistry* registry) {
  ObsWorld& w = ObsWorld::instance();
  std::unique_ptr<obs::ScopedGlobalRegistry> install;
  if (registry != nullptr) {
    install = std::make_unique<obs::ScopedGlobalRegistry>(registry);
  }
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = dir;
  opt.max_segment_bytes = 24 * 1024;  // several rolls, so boundaries count
  RecordLog log{real, opt};
  telemetry::DurableRecordSink sink{log};
  log.open();
  w.sim->set_threads(threads);
  w.sim->restore(w.day0);
  w.sim->attach_durable_log(&sink);
  w.sim->run();
  w.sim->remove_sink(&sink);
  return wal_bytes(dir);
}

struct WalTempDir {
  explicit WalTempDir(const std::string& name)
      : path(::testing::TempDir() + "tl_obs_" + name) {
    fs::remove_all(path);
  }
  ~WalTempDir() { fs::remove_all(path); }
  std::string path;
};

TEST(ObsDeterminism, WalBytesIdenticalWithMetricsOnAtAnyThreadCount) {
  WalTempDir off_dir{"wal_off"};
  const std::string baseline = run_durable_wal(1, off_dir.path, nullptr);
  ASSERT_FALSE(baseline.empty());

  for (const unsigned threads : {1u, 2u, 4u}) {
    obs::MetricsRegistry registry;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    WalTempDir on_dir{"wal_on_" + std::to_string(threads)};
    EXPECT_EQ(run_durable_wal(threads, on_dir.path, &registry), baseline);
    // WAL instrumentation saw exactly the committed volume.
    const obs::MetricsSnapshot snap = registry.scrape();
    EXPECT_GT(snap.find_counter("tl_wal_bytes_total")->value, 0u);
    EXPECT_GT(snap.find_counter("tl_wal_fsyncs_total")->value, 0u);
    EXPECT_EQ(snap.find_counter("tl_wal_records_total")->value,
              snap.find_counter("tl_sim_records_total")->value);
    EXPECT_EQ(snap.find_counter("tl_wal_recovery_dropped_bytes_total")->value, 0u);
  }
}

}  // namespace
}  // namespace tl
