// The repository benchmark: three closed-loop workloads, each in one process.
//
//   perfbench --workload study_serial|study_wal|serve_tail [--seed 42]
//             [--seconds 20] [--trace 0|1] [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// installed. --trace 1 is the separate traced run: it times the public
// world-build steps, runs the timed phase once plain and once instrumented
// (sink decorators, TimedFileSystem, an obs::MetricsRegistry and a
// govern::MemoryBudget far above use), replays a 1-in-64 sample of the
// UE-days through each hot-loop layer's public function, checks that the
// replay reproduces the simulator's records for those UE-days, and prints
// the per-layer metrics. Spans go to <workdir>/spans.tsv.
//
// Human-readable lines go to stderr; the last line of stdout is the JSON
// result. A failed correctness check counts the operations it covers as
// failed; the exit code is 0 whenever a result is printed.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "govern/governor.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "serve/wal_tailer.hpp"
#include "telemetry/aggregates.hpp"
#include "util/cli.hpp"

namespace tl::perfbench {
namespace {

// --- workload shapes (see STEADINESS.md for why each exists) ---------------

// setup_s is the median of the set-ups one run makes: this many before the
// timed phase (the last one runs it) and as many after its check, so the
// samples span the run rather than one drift window of the host's speed.
// serve_tail's set-up simulates a week, so it repeats fewer times.
constexpr int kSetupReps = 3;
constexpr int kServeSetupReps = 2;

// Both study workloads time at least one whole week, so every run covers
// the same weekday/weekend mix.
constexpr int kWeek = 7;

// study_serial: the bench world, 1 thread, days cycling through one week.
constexpr double kSerialScale = 0.02;
constexpr std::uint32_t kSerialUes = 25'000;

// study_wal: 5x denser grid, 3 workers + the merging caller on 4 cores.
constexpr double kWalScale = 0.1;
constexpr std::uint32_t kWalUes = 24'000;
constexpr unsigned kWalThreads = 3;
constexpr int kWalStudyDays = 366;  // upper bound; the clock ends the phase

// serve_tail: study_wal's world at a serve-sized population.
constexpr std::uint32_t kServeUes = 5'000;
constexpr int kServePoolDays = 7;
constexpr int kServeMinDays = 100;  // p90 keeps >= 10 samples beyond it
constexpr std::uint64_t kServeSegmentBytes = 8ull << 20;

constexpr unsigned kRerunThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

/// Output of one invocation: the JSON result plus human-readable lines.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics.push_back({name, {value, unit}});
    std::cerr << "[perfbench] " << name << " = " << value << " " << unit;
    if (samples > 0) std::cerr << " (n=" << samples << ")";
    std::cerr << "\n";
  }
  void fail(std::uint64_t operations, const std::string& why) {
    correct = false;
    failed += operations;
    std::cerr << "[perfbench] CHECK FAILED: " << why << "\n";
  }
  std::string json() const {
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out << (i ? ", " : "") << "\"" << metrics[i].first
          << "\": {\"value\": " << metrics[i].second.first << ", \"unit\": \""
          << metrics[i].second.second << "\"}";
    }
    out << "}}";
    return out.str();
  }
};

/// Everything the traced run installs. Constructing it installs the
/// registry and the governor process-wide; destroying it removes them.
struct Instruments {
  obs::MetricsRegistry registry;
  obs::ScopedGlobalRegistry registry_scope{&registry};
  govern::MemoryBudget governor{[] {
    govern::MemoryBudget::Options o;
    o.budget_bytes = 1ull << 40;  // far above any workload: stays Steady
    return o;
  }()};
  govern::ScopedGlobalGovernor governor_scope{&governor};
  TimedFileSystem fs{io::StdioFileSystem::instance()};
  SpanLog& spans;
  double sink_s = 0.0;
  std::vector<double> commit_s;  ///< one per WAL day commit
  std::map<std::string, std::uint64_t> peak_bytes;  ///< per accountant

  explicit Instruments(SpanLog& log) : spans(log) {}

  void sample_governor() {
    for (const auto& account : governor.snapshot().accounts) {
      auto& peak = peak_bytes[account.name];
      peak = std::max(peak, account.bytes);
    }
  }
  double peak_mb(std::initializer_list<const char*> names) const {
    std::uint64_t bytes = 0;
    for (const char* name : names) {
      const auto it = peak_bytes.find(name);
      if (it != peak_bytes.end()) bytes += it->second;
    }
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  }
};

/// Sink decorator of the traced run: times every call into the wrapped
/// sink, samples the governor at each day end, and (for the WAL sink)
/// keeps each day's commit time.
class TimedSink final : public telemetry::RecordSink {
 public:
  TimedSink(telemetry::RecordSink& inner, Instruments& ins, const char* name,
            bool wal = false)
      : inner_(inner), ins_(ins), name_(name), wal_(wal) {}

  void consume(const telemetry::HandoverRecord& record) override {
    const auto start = Clock::now();
    inner_.consume(record);
    ins_.sink_s += seconds_between(start, Clock::now());
  }
  void consume_span(std::span<const telemetry::HandoverRecord> records) override {
    const auto start = Clock::now();
    inner_.consume_span(records);
    const auto end = Clock::now();
    ins_.sink_s += seconds_between(start, end);
    ins_.spans.add(name_, start, end);
  }
  void on_day_end(int day) override {
    ins_.sample_governor();
    const auto start = Clock::now();
    inner_.on_day_end(day);
    const auto end = Clock::now();
    ins_.sink_s += seconds_between(start, end);
    ins_.spans.add(wal_ ? "telemetry.commit_day" : name_, start, end);
    if (wal_) ins_.commit_s.push_back(seconds_between(start, end));
  }

 private:
  telemetry::RecordSink& inner_;
  Instruments& ins_;
  const char* name_;
  bool wal_;
};

class TimedMetricsSink final : public telemetry::MetricsSink {
 public:
  TimedMetricsSink(telemetry::MetricsSink& inner, Instruments& ins)
      : inner_(inner), ins_(ins) {}
  void consume(const telemetry::UeDayMetrics& metrics) override {
    const auto start = Clock::now();
    inner_.consume(metrics);
    ins_.sink_s += seconds_between(start, Clock::now());
  }
  void consume_span(std::span<const telemetry::UeDayMetrics> rows) override {
    const auto start = Clock::now();
    inner_.consume_span(rows);
    ins_.sink_s += seconds_between(start, Clock::now());
  }

 private:
  telemetry::MetricsSink& inner_;
  Instruments& ins_;
};

/// The consumers a study workload attaches; detach() removes them all.
struct Consumers {
  core::Simulator& sim;
  DigestSink digest;
  std::vector<std::unique_ptr<telemetry::RecordSink>> owned;
  std::unique_ptr<telemetry::MetricsSink> owned_metrics;
  std::vector<telemetry::RecordSink*> attached;
  std::vector<telemetry::MetricsSink*> attached_metrics;

  explicit Consumers(core::Simulator& s) : sim(s) {}
  Consumers(const Consumers&) = delete;
  Consumers& operator=(const Consumers&) = delete;
  ~Consumers() { detach(); }

  /// Attaches `sink`, through a TimedSink when `ins` is set.
  void add(telemetry::RecordSink& sink, Instruments* ins, const char* name) {
    telemetry::RecordSink* target = &sink;
    if (ins != nullptr) {
      owned.push_back(std::make_unique<TimedSink>(sink, *ins, name));
      target = owned.back().get();
    }
    sim.add_sink(target);
    attached.push_back(target);
  }
  void add_metrics(telemetry::MetricsSink& sink, Instruments* ins) {
    telemetry::MetricsSink* target = &sink;
    if (ins != nullptr) {
      owned_metrics = std::make_unique<TimedMetricsSink>(sink, *ins);
      target = owned_metrics.get();
    }
    sim.add_metrics_sink(target);
    attached_metrics.push_back(target);
  }
  /// Attaches the durable log. Traced, its TimedSink takes the log's place
  /// in the sink list; the checkpoint provider attach_durable_log installed
  /// stays on the log's sink, so markers still embed the checkpoint.
  void add_durable(telemetry::DurableRecordSink& sink, Instruments* ins) {
    sim.attach_durable_log(&sink);
    attached.push_back(&sink);
    if (ins != nullptr) {
      sim.remove_sink(&sink);
      attached.pop_back();
      owned.push_back(std::make_unique<TimedSink>(sink, *ins, "telemetry.wal", true));
      sim.add_sink(owned.back().get());
      attached.push_back(owned.back().get());
    }
  }
  void detach() {
    for (auto* s : attached) sim.remove_sink(s);
    for (auto* s : attached_metrics) sim.remove_metrics_sink(s);
    attached.clear();
    attached_metrics.clear();
  }
};

/// The six batch aggregators plus UeDayStore that bench_world.hpp's
/// simulated_world() attaches.
struct BenchAggregators {
  telemetry::TemporalAggregator temporal;
  telemetry::SectorDayAggregator sector_day;
  telemetry::DistrictAggregator districts;
  telemetry::CauseAggregator causes;
  telemetry::DurationAggregator durations;
  telemetry::TypeMixAggregator mix;
  telemetry::UeDayStore ue_days;

  explicit BenchAggregators(const core::Simulator& sim)
      : temporal(sim.deployment().sectors().size(), sim.config().days),
        sector_day(sim.deployment().sectors().size(), sim.config().days),
        districts(sim.country().districts().size(), sim.catalog().manufacturers().size()),
        causes(sim.config().days, sim.catalog().manufacturers().size()),
        mix(sim.config().days) {}

  void attach(Consumers& c, Instruments* ins) {
    c.add(temporal, ins, "sink.temporal");
    c.add(sector_day, ins, "sink.sector_day");
    c.add(districts, ins, "sink.districts");
    c.add(causes, ins, "sink.causes");
    c.add(durations, ins, "sink.durations");
    c.add(mix, ins, "sink.type_mix");
    c.add_metrics(ue_days, ins);
  }
};

/// A fresh durable log in `dir` (any earlier contents removed first by the
/// caller, outside every timer).
struct WalRig {
  telemetry::RecordLog log;
  telemetry::DurableRecordSink sink{log};
  WalRig(io::FileSystem& fs, const std::string& dir)
      : log(fs, [&] {
          telemetry::RecordLog::Options o;
          o.directory = dir;
          return o;
        }()) {
    log.open();
  }
};

struct StudyPhase {
  std::vector<int> days;       ///< study day index of each timed day
  std::vector<double> day_s;   ///< wall time of each timed day
  double wall_s = 0.0;
  std::uint64_t ue_days = 0;
  std::uint64_t records = 0;
  double ue_days_per_s() const { return static_cast<double>(ue_days) / wall_s; }
};

/// The timed phase of a study workload: whole days, in the order `day_of`
/// gives, until `seconds` have passed and at least `min_days` ran.
template <typename DayOf>
StudyPhase run_study(core::Simulator& sim, const DigestSink& digest, double seconds,
                     int min_days, DayOf day_of, SpanLog* spans) {
  StudyPhase phase;
  const std::uint64_t records_before = digest.records();
  const auto start = Clock::now();
  for (int n = 0; n < min_days || seconds_between(start, Clock::now()) < seconds; ++n) {
    const int day = day_of(n);
    const auto day_start = Clock::now();
    const std::int32_t span = spans ? spans->open("core.run_day") : -1;
    sim.run_day(day);
    if (spans) spans->close(span);
    phase.day_s.push_back(seconds_between(day_start, Clock::now()));
    phase.days.push_back(day);
  }
  phase.wall_s = seconds_between(start, Clock::now());
  phase.ue_days = static_cast<std::uint64_t>(phase.days.size()) * sim.population().size();
  phase.records = digest.records() - records_before;
  return phase;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  if (ec) throw std::runtime_error{"perfbench: cannot remove " + path + ": " + ec.message()};
}

/// Adds the five study-facing end-to-end metrics of a study phase.
void add_study_metrics(Result& r, const StudyPhase& p) {
  std::vector<double> lag_ms;
  for (double s : p.day_s) lag_ms.push_back(s * 1e3);
  r.add("ue_days_per_s", p.ue_days_per_s(), "1/s");
  r.add("records_per_s", static_cast<double>(p.records) / p.wall_s, "1/s");
  r.add("day_lag_ms_p50", quantile(lag_ms, 0.5), "ms", lag_ms.size());
  r.add("day_lag_ms_p90", quantile(lag_ms, 0.9), "ms", lag_ms.size());
}

// --- the traced run's world-build replay -----------------------------------

struct BuildSteps {
  double population_s = 0.0;
  double plans_s = 0.0;
  double steps_s = 0.0;  ///< all public steps together
};

/// Runs the public world-build steps in the order Simulator's constructor
/// runs them, timing each (the simulator's private calibration is the rest).
BuildSteps time_build_steps(const core::StudyConfig& cfg, SpanLog& spans) {
  BuildSteps t;
  const std::int32_t root = spans.open("core.world_build_steps");
  const auto step = [&](const char* name, auto&& body) {
    const auto start = Clock::now();
    auto result = body();
    const auto end = Clock::now();
    spans.add(name, start, end);
    t.steps_s += seconds_between(start, end);
    return std::make_pair(std::move(result), seconds_between(start, end));
  };
  auto country = step("geo.synthesize_country",
                      [&] { return geo::synthesize_country(cfg.census); }).first;
  auto deployment = step("topology.deployment_build", [&] {
                      return topology::Deployment::build(country, cfg.deployment);
                    }).first;
  auto catalog = step("devices.catalog_build",
                      [&] { return devices::Catalog::build(cfg.catalog); }).first;
  auto [population, population_s] = step("devices.population_build", [&] {
    return devices::Population::build(country, catalog, cfg.population);
  });
  t.population_s = population_s;
  step("ran.coverage_build", [&] {
    return ran::CoverageMap::build(country, deployment, cfg.coverage);
  });
  const mobility::ActivityModel activity;
  const mobility::TraceGenerator traces{country, activity, cfg.seed * 31 + 11};
  t.plans_s = step("mobility.plans", [&] {
                std::vector<mobility::UePlan> plans;
                plans.reserve(population.size());
                for (const auto& ue : population.ues()) plans.push_back(traces.plan_for(ue));
                return plans;
              }).second;
  spans.close(root);
  return t;
}

/// Per-layer figures the traced run collects, keyed by metric name.
using LayerMetrics = std::map<std::string, std::pair<double, std::string>>;

void put(LayerMetrics& m, const std::string& name, double value, const char* unit) {
  m[name] = {value, unit};
}

double counter(const obs::MetricsSnapshot& s, const char* name) {
  const auto* c = s.find_counter(name);
  return c ? static_cast<double>(c->value) : 0.0;
}

/// geo/ran/policy/core_network/mobility/encode figures of a sampled replay,
/// plus the core figures that compare it with the simulator's loop.
void put_replay_metrics(LayerMetrics& m, const LayerStats& s, double sim_us_per_ue_day) {
  const double ue_days = static_cast<double>(std::max<std::uint64_t>(s.ue_days, 1));
  put(m, "mobility.trace_us", s.generate.ns_per_call() / 1e3, "us");
  put(m, "mobility.events_per_ue_day", static_cast<double>(s.events) / ue_days, "count");
  put(m, "geo.nearest_ns", s.nearest.ns_per_call(), "ns");
  put(m, "geo.nearest_k3_ns", s.nearest_k3.ns_per_call(), "ns");
  put(m, "geo.nearest_miss_pct",
      s.nearest.calls ? 100.0 * static_cast<double>(s.nearest_misses) /
                            static_cast<double>(s.nearest.calls)
                      : 0.0,
      "%");
  put(m, "ran.locate_ns", s.locate.ns_per_call(), "ns");
  put(m, "policy.decide_ns", s.decide.ns_per_call(), "ns");
  put(m, "policy.handover_pct",
      s.decide.calls ? 100.0 * static_cast<double>(s.handovers) /
                           static_cast<double>(s.decide.calls)
                     : 0.0,
      "%");
  put(m, "core_network.execute_ns", s.execute.ns_per_call(), "ns");
  put(m, "telemetry.encode_ns", s.encode.ns_per_call(), "ns");
  put(m, "core.sim_us_per_ue_day", sim_us_per_ue_day, "us");
  put(m, "core.layers_accounted_pct",
      100.0 * (s.loop_seconds * 1e6 / ue_days) / sim_us_per_ue_day, "%");
}

/// exec figures from the registry's shard spans.
void put_exec_metrics(LayerMetrics& m, const obs::MetricsSnapshot& snap, double wall_s) {
  const auto* sim = snap.find_histogram("tl_exec_shard_sim_seconds");
  const auto* merge = snap.find_histogram("tl_exec_shard_merge_seconds");
  const double merge_s = merge ? merge->sum : 0.0;
  put(m, "exec.shard_sim_s", sim ? sim->sum : 0.0, "s");
  put(m, "exec.merge_s", merge_s, "s");
  put(m, "exec.merge_wall_pct", wall_s > 0 ? 100.0 * merge_s / wall_s : 0.0, "%");
}

/// io figures of a TimedFileSystem.
void put_io_metrics(LayerMetrics& m, const TimedFileSystem::Stats& io) {
  put(m, "io.write_mb", static_cast<double>(io.write_bytes) / (1024.0 * 1024.0), "MB");
  put(m, "io.write_calls", static_cast<double>(io.write_calls), "count");
  put(m, "io.fsyncs", static_cast<double>(io.fsync_s.size()), "count");
  put(m, "io.fsync_ms_p50", quantile(io.fsync_s, 0.5) * 1e3, "ms");
  put(m, "io.read_mb", static_cast<double>(io.read_bytes) / (1024.0 * 1024.0), "MB");
}

void put_wal_metrics(LayerMetrics& m, const Instruments& ins, const obs::MetricsSnapshot& snap) {
  const double records = counter(snap, "tl_wal_records_total");
  put(m, "telemetry.wal_commit_ms_p50", quantile(ins.commit_s, 0.5) * 1e3, "ms");
  put(m, "telemetry.wal_bytes_per_record",
      records > 0 ? counter(snap, "tl_wal_bytes_total") / records : 0.0, "B");
  put(m, "govern.wal_day_buffer_peak_mb", ins.peak_mb({"wal_day_buffer"}), "MB");
}

// --- serve -------------------------------------------------------------------

serve::WalTailer::Options tailer_options(const std::string& dir) {
  serve::WalTailer::Options o;
  o.wal_directory = dir + "/wal";
  o.checkpoint_path = dir + "/serve.ckpt";
  o.window_days = 28;
  o.checkpoint_every_days = 1;
  o.retention = true;
  return o;
}

serve::StreamAggregates::Options aggregate_options(const serve::WalTailer::Options& t) {
  serve::StreamAggregates::Options o;
  o.window_days = t.window_days;
  o.sketch_k = t.sketch_k;
  o.sample_modulus = t.sample_modulus;
  return o;
}

/// One writer RecordLog and one WalTailer over the same directory.
struct ServeRig {
  telemetry::RecordLog log;
  serve::WalTailer tailer;
  ServeRig(io::FileSystem& fs, const std::string& dir)
      : log(fs,
            [&] {
              telemetry::RecordLog::Options o;
              o.directory = dir + "/wal";
              o.max_segment_bytes = kServeSegmentBytes;
              return o;
            }()),
        tailer(fs, tailer_options(dir)) {
    log.open();
    tailer.open();
  }
};

/// A second reader of the traced serve phase: RecordLog::follow into its
/// own StreamAggregates, timing follow, consume, on_day_end and serialize
/// (public calls the tailer makes internally and a benchmark cannot time).
class MirrorReader final : public telemetry::RecordSink {
 public:
  explicit MirrorReader(const serve::StreamAggregates::Options& o) : aggregates_(o) {}

  void follow(const std::string& wal_dir) {
    const auto start = Clock::now();
    const double inside_before = consume_s_ + seal_s_;
    const auto r = telemetry::RecordLog::follow(io::StdioFileSystem::instance(), wal_dir,
                                                cursor_, *this);
    follow_s_ += seconds_between(start, Clock::now()) - (consume_s_ + seal_s_ - inside_before);
    records_ += r.records_delivered;
    const auto ser_start = Clock::now();
    state_.clear();
    aggregates_.serialize(state_);
    const auto end = Clock::now();
    last_serialize_s_ = seconds_between(ser_start, end);
    busy_s_ += seconds_between(start, end);
  }
  void consume(const telemetry::HandoverRecord& record) override {
    const auto start = Clock::now();
    aggregates_.consume(record);
    consume_s_ += seconds_between(start, Clock::now());
  }
  void on_day_end(int day) override {
    const auto start = Clock::now();
    aggregates_.on_day_end(day);
    seal_s_ += seconds_between(start, Clock::now());
    ++days_;
  }

  double follow_ns_per_record() const { return per(follow_s_ * 1e9, records_); }
  double aggregate_ns_per_record() const { return per(consume_s_ * 1e9, records_); }
  double seal_us() const { return per(seal_s_ * 1e6, days_); }
  double last_serialize_s() const { return last_serialize_s_; }
  /// Wall time spent in follow(), serialize included.
  double busy_s() const { return busy_s_; }

 private:
  static double per(double total, std::uint64_t n) {
    return n ? total / static_cast<double>(n) : 0.0;
  }
  serve::StreamAggregates aggregates_;
  telemetry::LogCursor cursor_;
  std::vector<std::uint8_t> state_;
  double follow_s_ = 0.0, consume_s_ = 0.0, seal_s_ = 0.0, last_serialize_s_ = 0.0,
         busy_s_ = 0.0;
  std::uint64_t records_ = 0, days_ = 0;
};

struct ServePhase {
  int days = 0;
  std::uint64_t records_sealed = 0;
  double wall_s = 0.0;
  std::vector<double> lag_ms;
  // traced only
  std::vector<double> poll_ms;
  std::vector<double> checkpoint_ms;
  std::uint64_t segments_retired = 0;
  double append_s = 0.0;
  std::optional<MirrorReader> mirror;
};

/// The serve_tail loop: per day, the writer appends one pool day (shifted
/// to the new day) and commits it; then the tailer polls until the log is
/// clean. Runs at least `min_days` days and at least `seconds`.
ServePhase run_serve(ServeRig& rig, const std::vector<PoolDay>& pool, double seconds,
                     int min_days, Instruments* ins) {
  ServePhase phase;
  if (ins != nullptr) phase.mirror.emplace(aggregate_options(rig.tailer.options()));
  const auto start = Clock::now();
  for (int day = 0;
       day < min_days || seconds_between(start, Clock::now()) < seconds; ++day) {
    const std::size_t n = pool[static_cast<std::size_t>(day) % pool.size()].records.size();
    const auto append_start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) rig.log.append(serve_record(pool, day, i));
    if (ins != nullptr) {
      phase.append_s += seconds_between(append_start, Clock::now());
      ins->sample_governor();
    }
    const auto commit_start = Clock::now();
    rig.log.commit_day(day, {});
    if (ins != nullptr) {
      const auto commit_end = Clock::now();
      ins->commit_s.push_back(seconds_between(commit_start, commit_end));
      ins->spans.add("telemetry.commit_day", commit_start, commit_end);
      phase.mirror->follow(rig.tailer.options().wal_directory);
    }
    while (true) {
      const auto poll_start = Clock::now();
      const double ckpt_before = ins ? ins->fs.stats().checkpoint_s : 0.0;
      const serve::WalTailer::PollResult r = rig.tailer.poll();
      phase.records_sealed += r.records_delivered;
      if (ins != nullptr) {
        const auto poll_end = Clock::now();
        ins->spans.add("serve.poll", poll_start, poll_end);
        phase.poll_ms.push_back(seconds_between(poll_start, poll_end) * 1e3);
        phase.segments_retired += r.segments_retired;
        if (r.checkpointed) {
          phase.checkpoint_ms.push_back(
              (ins->fs.stats().checkpoint_s - ckpt_before + phase.mirror->last_serialize_s()) *
              1e3);
        }
        ins->sample_governor();
      }
      if (r.state == telemetry::TailState::kClean) break;
      if (r.state != telemetry::TailState::kMore) {
        throw std::runtime_error{std::string{"perfbench: tailer stopped at "} +
                                 telemetry::to_string(r.state)};
      }
    }
    // The whole committed day is sealed and checkpointed here.
    phase.lag_ms.push_back(seconds_between(commit_start, Clock::now()) * 1e3);
    phase.days = day + 1;
  }
  phase.wall_s = seconds_between(start, Clock::now());
  return phase;
}

/// serve/analysis/io/WAL figures of a traced serve phase.
void put_serve_metrics(LayerMetrics& m, const ServePhase& p, const ServeRig& rig,
                       const Instruments& ins) {
  const auto snap = ins.registry.scrape();
  const double checkpoints = counter(snap, "tl_serve_checkpoints_total");
  put(m, "serve.poll_ms_p50", quantile(p.poll_ms, 0.5), "ms");
  put(m, "serve.follow_ns_per_record", p.mirror->follow_ns_per_record(), "ns");
  put(m, "serve.aggregate_ns_per_record", p.mirror->aggregate_ns_per_record(), "ns");
  put(m, "serve.seal_us", p.mirror->seal_us(), "us");
  put(m, "serve.checkpoint_ms_p50", quantile(p.checkpoint_ms, 0.5), "ms");
  put(m, "serve.checkpoint_kb",
      checkpoints > 0 ? counter(snap, "tl_serve_checkpoint_bytes_total") / checkpoints / 1024.0
                      : 0.0,
      "KB");
  put(m, "serve.segments_retired", static_cast<double>(p.segments_retired), "count");
  put(m, "analysis.sketch_items",
      static_cast<double>(rig.tailer.aggregates().stored_sketch_items()), "count");
  put(m, "govern.serve_aggregates_peak_mb", ins.peak_mb({"serve_aggregates"}), "MB");
  put_io_metrics(m, ins.fs.stats());
  put_wal_metrics(m, ins, snap);
}

/// Feeds `pool` through a traced serve rig for exactly its own days: the
/// study workloads' probe of the layers their timed phase does not run.
LayerMetrics serve_probe(const std::vector<PoolDay>& pool, SpanLog& spans,
                         const std::string& dir) {
  remove_tree(dir);
  Instruments ins{spans};
  const std::int32_t span = spans.open("serve_probe");
  ServeRig rig{ins.fs, dir};
  const ServePhase phase =
      run_serve(rig, pool, 0.0, static_cast<int>(pool.size()), &ins);
  spans.close(span);
  LayerMetrics m;
  put_serve_metrics(m, phase, rig, ins);
  return m;
}

std::vector<PoolDay> pool_from_replay(const LayerStats& stats) {
  std::vector<PoolDay> pool;
  for (const auto& [day, records] : stats.records_by_day) {
    if (!records.empty()) pool.push_back(PoolDay{day, records});
  }
  return pool;
}

// --- workloads ----------------------------------------------------------------

/// Records every simulated day into a pool, for serve_tail's setup.
class PoolSink final : public telemetry::RecordSink {
 public:
  explicit PoolSink(std::vector<PoolDay>& pool) : pool_(pool) {}
  void consume(const telemetry::HandoverRecord& record) override { open_.push_back(record); }
  void on_day_end(int day) override {
    pool_.push_back(PoolDay{day, std::move(open_)});
    open_.clear();
  }

 private:
  std::vector<PoolDay>& pool_;
  std::vector<telemetry::HandoverRecord> open_;
};

void print_layers(Result& r, const LayerMetrics& m) {
  for (const auto& [name, value] : m) r.add(name, value.first, value.second);
}

/// The replay check: the sampled replay must still produce exactly the
/// records the simulator emitted for the same UE-days.
void check_replay(Result& r, const SampledDigestSink& simulated, const LayerStats& replay) {
  const std::uint64_t diverged = replay_mismatched_days(simulated.days(), replay);
  if (diverged > 0) {
    r.fail(diverged, "the sampled replay no longer reproduces the simulator's records");
  }
}

/// The part of the traced run every study workload shares.
void traced_study(Result& r, const Args& a, const core::StudyConfig& cfg, unsigned threads,
                  bool with_aggregators, bool with_wal,
                  const std::function<int(int)>& day_of, const std::string& dir) {
  SpanLog spans;
  LayerMetrics m;
  const BuildSteps steps = time_build_steps(cfg, spans);
  put(m, "devices.population_build_s", steps.population_s, "s");
  put(m, "mobility.plans_s", steps.plans_s, "s");

  // Reference arm: the same timed phase with nothing installed.
  double plain_rate = 0.0;
  {
    const auto build_start = Clock::now();
    core::Simulator sim{cfg};
    const double world_s = seconds_between(build_start, Clock::now());
    spans.add("core.simulator_build", build_start, Clock::now());
    put(m, "core.world_build_s", world_s, "s");
    put(m, "core.calibrate_s", world_s - steps.steps_s, "s");
    sim.set_threads(threads);
    remove_tree(dir + "/plain");
    Consumers c{sim};
    std::optional<BenchAggregators> aggregators;
    std::optional<WalRig> wal;
    if (with_aggregators) aggregators.emplace(sim).attach(c, nullptr);
    c.add(c.digest, nullptr, "sink.digest");
    if (with_wal) c.add_durable(wal.emplace(io::StdioFileSystem::instance(), dir + "/plain").sink, nullptr);
    plain_rate = run_study(sim, c.digest, a.seconds, kWeek, day_of, nullptr).ue_days_per_s();
  }
  remove_tree(dir + "/plain");

  // Traced arm, on a simulator built under the instruments: its shard slab
  // accounts into this governor and is gone before the governor is.
  remove_tree(dir + "/traced");
  Instruments ins{spans};
  core::Simulator sim{cfg};
  sim.set_threads(threads);
  Consumers c{sim};
  std::optional<BenchAggregators> aggregators;
  std::optional<WalRig> wal;
  if (with_aggregators) aggregators.emplace(sim).attach(c, &ins);
  c.add(c.digest, &ins, "sink.digest");
  if (with_wal) c.add_durable(wal.emplace(ins.fs, dir + "/traced").sink, &ins);
  // The replay check's capture: untimed, and not part of the consumer set.
  SampledDigestSink sampled{cfg.seed};
  c.add(sampled, nullptr, "sink.sampled");
  const StudyPhase phase = run_study(sim, c.digest, a.seconds, kWeek, day_of, &spans);
  const auto snap = ins.registry.scrape();
  r.attempted = phase.days.size();
  put(m, "telemetry.sink_s", ins.sink_s, "s");
  put(m, "core.day_s_p50", quantile(phase.day_s, 0.5), "s");
  const auto* sim_hist = snap.find_histogram("tl_exec_shard_sim_seconds");
  const double sim_us = (sim_hist ? sim_hist->sum : phase.wall_s) * 1e6 /
                        static_cast<double>(phase.ue_days);
  put(m, "obs.trace_overhead_pct", 100.0 * (plain_rate / phase.ue_days_per_s() - 1.0), "%");
  put(m, "govern.exec_buffers_peak_mb",
      ins.peak_mb({"exec_record_buffers", "exec_metrics_buffers"}), "MB");
  c.detach();

  // Correctness checks, outside the timed phase.
  if (with_wal) {
    const std::uint64_t bad = wal_mismatched_days(ins.fs, dir + "/traced", c.digest.days());
    if (bad > 0) r.fail(bad, "WAL replay disagrees with the live stream");
    put_wal_metrics(m, ins, snap);
    put_io_metrics(m, ins.fs.stats());
  } else {
    if (!rerun_day_matches(sim, c.digest.days().back(), kRerunThreads)) {
      r.fail(1, "2-thread re-run of the last day changed its stream CRC");
    }
    ins.sample_governor();
    put(m, "govern.exec_buffers_peak_mb",
        ins.peak_mb({"exec_record_buffers", "exec_metrics_buffers"}), "MB");
  }
  // At 1 thread the only sharded day is the 2-thread check re-run.
  put_exec_metrics(m, ins.registry.scrape(), phase.wall_s);

  // study_serial's week wraps around; each distinct day is replayed once.
  std::vector<int> days = phase.days;
  std::sort(days.begin(), days.end());
  days.erase(std::unique(days.begin(), days.end()), days.end());
  LayerStats layers;
  replay_sampled_ue_days(sim, days, with_aggregators, spans, layers);
  put_replay_metrics(m, layers, sim_us);
  check_replay(r, sampled, layers);

  // Layers the timed phase does not run are measured by the serve probe on
  // this workload's own sampled records; figures the phase has win.
  LayerMetrics probe = serve_probe(pool_from_replay(layers), spans, dir + "/probe");
  for (auto& [name, value] : probe) m.try_emplace(name, value);
  remove_tree(dir + "/probe");
  remove_tree(dir + "/traced");

  print_layers(r, m);
  spans.write(dir + "/spans.tsv");
}

Result study_serial(const Args& a) {
  Result r;
  const std::string dir = a.workdir + "/study_serial";
  remove_tree(dir);
  std::filesystem::create_directories(dir);
  const core::StudyConfig cfg = world_config(kSerialScale, kSerialUes, kWeek, a.seed);
  const auto day_of = [](int n) { return n % kWeek; };
  if (a.trace) {
    traced_study(r, a, cfg, 1, true, false, day_of, dir);
    return r;
  }
  std::unique_ptr<core::Simulator> sim;
  std::unique_ptr<BenchAggregators> aggregators;
  const auto set_up = [&] {
    aggregators.reset();
    sim.reset();
    const auto start = Clock::now();
    sim = std::make_unique<core::Simulator>(cfg);
    aggregators = std::make_unique<BenchAggregators>(*sim);
    return seconds_between(start, Clock::now());
  };
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) setups.push_back(set_up());
  StudyPhase phase;
  double rss_mb = 0.0;
  {
    Consumers c{*sim};
    aggregators->attach(c, nullptr);
    c.add(c.digest, nullptr, "sink.digest");
    phase = run_study(*sim, c.digest, a.seconds, kWeek, day_of, nullptr);
    rss_mb = peak_rss_mb();
    r.attempted = phase.days.size();
    c.detach();
    if (!rerun_day_matches(*sim, c.digest.days().back(), kRerunThreads)) {
      r.fail(1, "2-thread re-run of the last day changed its stream CRC");
    }
  }
  for (int rep = 0; rep < kSetupReps; ++rep) setups.push_back(set_up());
  r.add("setup_s", quantile(setups, 0.5), "s", setups.size());
  add_study_metrics(r, phase);
  r.add("peak_rss_mb", rss_mb, "MB");
  return r;
}

Result study_wal(const Args& a) {
  Result r;
  const std::string dir = a.workdir + "/study_wal";
  remove_tree(dir);
  std::filesystem::create_directories(dir);
  const core::StudyConfig cfg = world_config(kWalScale, kWalUes, kWalStudyDays, a.seed);
  const auto day_of = [](int n) { return n; };
  if (a.trace) {
    traced_study(r, a, cfg, kWalThreads, false, true, day_of, dir);
    return r;
  }
  auto& fs = io::StdioFileSystem::instance();
  std::unique_ptr<core::Simulator> sim;
  std::unique_ptr<WalRig> wal;
  std::string wal_dir;
  int wal_dirs = 0;
  const auto set_up = [&] {
    wal.reset();
    sim.reset();
    // A new directory per set-up: nothing to delete inside the timer.
    wal_dir = dir + "/wal" + std::to_string(wal_dirs++);
    const auto start = Clock::now();
    sim = std::make_unique<core::Simulator>(cfg);
    sim->set_threads(kWalThreads);
    wal = std::make_unique<WalRig>(fs, wal_dir);
    return seconds_between(start, Clock::now());
  };
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) setups.push_back(set_up());
  StudyPhase phase;
  double rss_mb = 0.0;
  {
    Consumers c{*sim};
    c.add(c.digest, nullptr, "sink.digest");
    c.add_durable(wal->sink, nullptr);
    phase = run_study(*sim, c.digest, a.seconds, kWeek, day_of, nullptr);
    rss_mb = peak_rss_mb();
    r.attempted = phase.days.size();
    c.detach();
    const std::uint64_t bad = wal_mismatched_days(fs, wal_dir, c.digest.days());
    if (bad > 0) r.fail(bad, "WAL replay disagrees with the live stream");
  }
  for (int rep = 0; rep < kSetupReps; ++rep) setups.push_back(set_up());
  r.add("setup_s", quantile(setups, 0.5), "s", setups.size());
  add_study_metrics(r, phase);
  r.add("peak_rss_mb", rss_mb, "MB");
  wal.reset();
  sim.reset();
  remove_tree(dir);
  return r;
}

/// serve_tail's pool capture: kServePoolDays simulated days of `sim`.
StudyPhase capture_pool(core::Simulator& sim, std::vector<PoolDay>& pool, SpanLog* spans) {
  PoolSink pool_sink{pool};
  DigestSink digest;
  sim.add_sink(&pool_sink);
  sim.add_sink(&digest);
  const StudyPhase phase =
      run_study(sim, digest, 0.0, kServePoolDays, [](int n) { return n; }, spans);
  sim.remove_sink(&pool_sink);
  sim.remove_sink(&digest);
  return phase;
}

void add_serve_metrics(Result& r, const ServePhase& p) {
  r.add("ue_days_per_s",
        static_cast<double>(p.days) * static_cast<double>(kServeUes) / p.wall_s, "1/s");
  r.add("records_per_s", static_cast<double>(p.records_sealed) / p.wall_s, "1/s");
  r.add("day_lag_ms_p50", quantile(p.lag_ms, 0.5), "ms", p.lag_ms.size());
  r.add("day_lag_ms_p90", quantile(p.lag_ms, 0.9), "ms", p.lag_ms.size());
}

/// serve_tail's check: the tailer sealed every committed day, and its
/// aggregates serialize like a batch instance fed the same days.
void check_serve(Result& r, const ServeRig& rig, const std::vector<PoolDay>& pool,
                 const ServePhase& phase) {
  std::vector<std::uint8_t> state;
  rig.tailer.aggregates().serialize(state);
  if (rig.tailer.aggregates().days_sealed() != static_cast<std::uint64_t>(phase.days) ||
      !serve_state_matches(pool, phase.days, aggregate_options(rig.tailer.options()),
                           state)) {
    r.fail(static_cast<std::uint64_t>(phase.days),
           "tailer aggregates differ from a batch instance fed the same days");
  }
}

Result serve_tail(const Args& a) {
  Result r;
  const std::string dir = a.workdir + "/serve_tail";
  remove_tree(dir);
  std::filesystem::create_directories(dir);
  const core::StudyConfig cfg = world_config(kWalScale, kServeUes, kServePoolDays, a.seed);
  auto& fs = io::StdioFileSystem::instance();

  if (!a.trace) {
    std::vector<PoolDay> pool;
    std::unique_ptr<ServeRig> rig;
    int rig_dirs = 0;
    const auto set_up = [&] {
      rig.reset();
      pool.clear();
      const std::string rig_dir = dir + "/rig" + std::to_string(rig_dirs++);
      const auto start = Clock::now();
      {
        core::Simulator sim{cfg};
        sim.set_threads(kWalThreads);
        capture_pool(sim, pool, nullptr);
      }
      rig = std::make_unique<ServeRig>(fs, rig_dir);
      return seconds_between(start, Clock::now());
    };
    std::vector<double> setups;
    for (int rep = 0; rep < kServeSetupReps; ++rep) setups.push_back(set_up());
    const ServePhase phase = run_serve(*rig, pool, a.seconds, kServeMinDays, nullptr);
    const double rss_mb = peak_rss_mb();
    r.attempted = static_cast<std::uint64_t>(phase.days);
    check_serve(r, *rig, pool, phase);
    for (int rep = 0; rep < kServeSetupReps; ++rep) setups.push_back(set_up());
    r.add("setup_s", quantile(setups, 0.5), "s", setups.size());
    add_serve_metrics(r, phase);
    r.add("peak_rss_mb", rss_mb, "MB");
    rig.reset();
    remove_tree(dir);
    return r;
  }

  SpanLog spans;
  LayerMetrics m;
  const BuildSteps steps = time_build_steps(cfg, spans);
  put(m, "devices.population_build_s", steps.population_s, "s");
  put(m, "mobility.plans_s", steps.plans_s, "s");

  // The pool capture is this workload's only simulation: the core and exec
  // figures, and the replay sample, come from it. The simulator is built
  // under the instruments and destroyed before them.
  std::vector<PoolDay> pool;
  {
    Instruments capture{spans};
    const auto build_start = Clock::now();
    core::Simulator sim{cfg};
    const double world_s = seconds_between(build_start, Clock::now());
    spans.add("core.simulator_build", build_start, Clock::now());
    put(m, "core.world_build_s", world_s, "s");
    put(m, "core.calibrate_s", world_s - steps.steps_s, "s");
    sim.set_threads(kWalThreads);
    SampledDigestSink sampled{cfg.seed};  // the replay check's capture
    sim.add_sink(&sampled);
    const StudyPhase p = capture_pool(sim, pool, &spans);
    sim.remove_sink(&sampled);
    capture.sample_governor();
    const auto snap = capture.registry.scrape();
    put(m, "core.day_s_p50", quantile(p.day_s, 0.5), "s");
    put_exec_metrics(m, snap, p.wall_s);
    put(m, "govern.exec_buffers_peak_mb",
        capture.peak_mb({"exec_record_buffers", "exec_metrics_buffers"}), "MB");
    const auto* sim_hist = snap.find_histogram("tl_exec_shard_sim_seconds");
    LayerStats layers;
    replay_sampled_ue_days(sim, p.days, false, spans, layers);
    put_replay_metrics(m, layers,
                       (sim_hist ? sim_hist->sum : p.wall_s) * 1e6 /
                           static_cast<double>(p.ue_days));
    check_replay(r, sampled, layers);
  }

  // Reference arm with nothing installed, then the traced arm.
  double plain_rate = 0.0;
  {
    ServeRig rig{fs, dir + "/plain"};
    const ServePhase phase = run_serve(rig, pool, a.seconds, kServeMinDays, nullptr);
    plain_rate = static_cast<double>(phase.records_sealed) / phase.wall_s;
  }
  remove_tree(dir + "/plain");
  {
    Instruments ins{spans};
    ServeRig rig{ins.fs, dir + "/traced"};
    const ServePhase phase = run_serve(rig, pool, a.seconds, kServeMinDays, &ins);
    r.attempted = static_cast<std::uint64_t>(phase.days);
    check_serve(r, rig, pool, phase);
    put_serve_metrics(m, phase, rig, ins);
    put(m, "telemetry.sink_s", phase.append_s, "s");
    // The second reader is the benchmark's own measuring device, not
    // tracing: its time comes off the traced arm's clock.
    const double traced_wall_s = phase.wall_s - phase.mirror->busy_s();
    put(m, "obs.trace_overhead_pct",
        100.0 * (plain_rate / (static_cast<double>(phase.records_sealed) / traced_wall_s) - 1.0),
        "%");
  }
  print_layers(r, m);
  spans.write(dir + "/spans.tsv");
  remove_tree(dir + "/traced");
  return r;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + flag};
    const std::string value = argv[++i];
    const auto bad = [&]() -> std::invalid_argument {
      return std::invalid_argument{"bad value for " + flag + ": " + value};
    };
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      const auto seed = util::parse_uint(value);
      if (!seed) throw bad();
      a.seed = *seed;
    } else if (flag == "--seconds") {
      const auto seconds = util::parse_double(value, 0.0, 3600.0);
      if (!seconds) throw bad();
      a.seconds = *seconds;
    } else if (flag == "--trace") {
      const auto trace = util::parse_uint(value, 0, 1);
      if (!trace) throw bad();
      a.trace = *trace == 1;
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else {
      throw std::invalid_argument{"unknown flag " + flag};
    }
  }
  return a;
}

}  // namespace
}  // namespace tl::perfbench

int main(int argc, char** argv) {
  using namespace tl::perfbench;
  try {
    const Args args = parse(argc, argv);
    Result result;
    if (args.workload == "study_serial") {
      result = study_serial(args);
    } else if (args.workload == "study_wal") {
      result = study_wal(args);
    } else if (args.workload == "serve_tail") {
      result = serve_tail(args);
    } else {
      std::cerr << "usage: perfbench --workload study_serial|study_wal|serve_tail "
                   "[--seed N] [--seconds S] [--trace 0|1] [--workdir DIR]\n";
      return 2;
    }
    std::cerr << "[perfbench] " << args.workload << ": attempted = " << result.attempted
              << " days, failed = " << result.failed
              << (result.correct ? ", every check passed" : ", a check FAILED") << "\n";
    std::cout << result.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "[perfbench] error: " << e.what() << "\n";
    return 1;
  }
}
