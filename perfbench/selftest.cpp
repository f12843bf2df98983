// The benchmark's own tests: each correctness check must pass on a clean
// run and fail on a planted defect, the traced run's sampled replay must
// reproduce the simulator's records, and TimedFileSystem must write exactly
// the bytes a direct write does.
//
//   perfbench_selftest WORKDIR      (python3 perfbench/run.py --selftest)

#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "io/faulty_file.hpp"
#include "perfbench.hpp"
#include "serve/wal_tailer.hpp"

namespace {

using namespace tl;
using namespace tl::perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

core::StudyConfig tiny_config() {
  core::StudyConfig cfg = core::StudyConfig::test_scale();
  const std::uint32_t ues = cfg.population.count;
  cfg.days = 3;
  cfg.seed = 7;
  cfg.finalize();  // resets the population count to the scale's default
  cfg.population.count = ues;
  return cfg;
}

/// Forwards every record, with one field of record `victim` changed.
class TamperingSink final : public telemetry::RecordSink {
 public:
  TamperingSink(telemetry::RecordSink& inner, std::uint64_t victim)
      : inner_(inner), victim_(victim) {}
  void consume(const telemetry::HandoverRecord& record) override {
    telemetry::HandoverRecord copy = record;
    if (seen_++ == victim_) copy.duration_ms += 1.0f;
    inner_.consume(copy);
  }
  void on_day_end(int day) override { inner_.on_day_end(day); }

 private:
  telemetry::RecordSink& inner_;
  std::uint64_t victim_;
  std::uint64_t seen_ = 0;
};

void rerun_check_catches_changed_field(core::Simulator& sim) {
  DigestSink clean;
  DigestSink tampered;
  TamperingSink tamper{tampered, 5};
  sim.add_sink(&clean);
  sim.add_sink(&tamper);
  sim.set_threads(1);
  sim.run_day(1);
  sim.remove_sink(&clean);
  sim.remove_sink(&tamper);
  expect(clean.days().front().records > 5, "rerun: the day has records to tamper with");
  expect(rerun_day_matches(sim, clean.days().front(), 2),
         "rerun: 2-thread re-run reproduces the serial day's CRC");
  expect(!rerun_day_matches(sim, tampered.days().front(), 2),
         "rerun: a changed record field fails the check");
}

void replay_check_catches_divergence(core::Simulator& sim) {
  // Two threads: the replay must match the ordered merge of sharded days.
  SampledDigestSink simulated{sim.config().seed};
  sim.add_sink(&simulated);
  sim.set_threads(2);
  for (int day = 0; day < 2; ++day) sim.run_day(day);
  sim.remove_sink(&simulated);
  SpanLog spans;
  LayerStats replay;
  replay_sampled_ue_days(sim, {0, 1}, false, spans, replay);
  expect(!replay.records_by_day[1].empty() && simulated.days().size() == 2 &&
             simulated.days()[1].records == replay.records_by_day[1].size(),
         "replay: the sample holds records on every day");
  expect(replay_mismatched_days(simulated.days(), replay) == 0,
         "replay: the sampled replay reproduces the simulator's records");
  replay.records_by_day[1].front().target_sector += 1;
  expect(replay_mismatched_days(simulated.days(), replay) == 1,
         "replay: a replay that diverges from the simulator fails the check");
  replay.records_by_day.erase(1);
  expect(replay_mismatched_days(simulated.days(), replay) == 1,
         "replay: a day the replay skipped fails the check");
}

/// Simulates days 0..2 into a fresh WAL at `dir` through `fs`.
std::vector<DayDigest> write_wal(core::Simulator& sim, io::FileSystem& fs,
                                 const std::string& dir) {
  std::filesystem::remove_all(dir);
  telemetry::RecordLog::Options o;
  o.directory = dir;
  telemetry::RecordLog log{fs, o};
  log.open();
  telemetry::DurableRecordSink durable{log};
  DigestSink digest;
  sim.add_sink(&digest);
  sim.add_sink(&durable);
  for (int day = 0; day < 3; ++day) sim.run_day(day);
  sim.remove_sink(&digest);
  sim.remove_sink(&durable);
  return digest.days();
}

void wal_check_catches_flipped_byte(core::Simulator& sim, const std::string& dir) {
  auto& fs = io::StdioFileSystem::instance();
  const std::vector<DayDigest> live = write_wal(sim, fs, dir);
  expect(wal_mismatched_days(fs, dir, live) == 0, "wal: clean WAL replays every day");
  const std::string segment = dir + "/" + telemetry::RecordLog::segment_name(0);
  io::inject_bit_rot(fs, segment, fs.file_size(segment) / 2, 0x10);
  expect(wal_mismatched_days(fs, dir, live) > 0, "wal: a flipped WAL byte fails the check");
}

std::vector<PoolDay> capture(core::Simulator& sim) {
  struct Pool final : telemetry::RecordSink {
    std::vector<PoolDay> days;
    std::vector<telemetry::HandoverRecord> open;
    void consume(const telemetry::HandoverRecord& r) override { open.push_back(r); }
    void on_day_end(int day) override {
      days.push_back(PoolDay{day, std::move(open)});
      open.clear();
    }
  } pool;
  sim.add_sink(&pool);
  for (int day = 0; day < 2; ++day) sim.run_day(day);
  sim.remove_sink(&pool);
  return pool.days;
}

serve::WalTailer::Options tailer_options(const std::string& dir) {
  serve::WalTailer::Options o;
  o.wal_directory = dir + "/wal";
  o.checkpoint_path = dir + "/serve.ckpt";
  return o;
}

/// Commits serve days [0, days) of `pool` (skipping record `drop` of day 1
/// when set) and tails them; returns the tailer's serialized aggregates.
std::vector<std::uint8_t> serve_days(io::FileSystem& fs, const std::string& dir,
                                     const std::vector<PoolDay>& pool, int days,
                                     std::size_t drop = SIZE_MAX) {
  std::filesystem::remove_all(dir);
  telemetry::RecordLog::Options o;
  o.directory = dir + "/wal";
  o.max_segment_bytes = 64 << 10;
  telemetry::RecordLog log{fs, o};
  log.open();
  serve::WalTailer tailer{fs, tailer_options(dir)};
  tailer.open();
  for (int day = 0; day < days; ++day) {
    const std::size_t n = pool[static_cast<std::size_t>(day) % pool.size()].records.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (day == 1 && i == drop) continue;
      log.append(serve_record(pool, day, i));
    }
    log.commit_day(day, {});
    while (tailer.poll().state != telemetry::TailState::kClean) {
    }
  }
  std::vector<std::uint8_t> state;
  tailer.aggregates().serialize(state);
  return state;
}

serve::StreamAggregates::Options aggregate_options() {
  const serve::WalTailer::Options t = tailer_options("");
  serve::StreamAggregates::Options o;
  o.window_days = t.window_days;
  o.sketch_k = t.sketch_k;
  o.sample_modulus = t.sample_modulus;
  return o;
}

void serve_check_catches_dropped_record(const std::vector<PoolDay>& pool,
                                        const std::string& dir) {
  auto& fs = io::StdioFileSystem::instance();
  const int days = 5;
  expect(serve_state_matches(pool, days, aggregate_options(),
                             serve_days(fs, dir, pool, days)),
         "serve: tailer state equals the batch oracle");
  expect(!serve_state_matches(pool, days, aggregate_options(),
                              serve_days(fs, dir, pool, days, 3)),
         "serve: a record dropped on the way to the tailer fails the check");
}

std::vector<char> slurp(const std::filesystem::path& p) {
  std::ifstream in{p, std::ios::binary};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Every regular file under `a` exists under `b` with the same bytes, and
/// the two trees hold the same number of files.
bool same_tree(const std::string& a, const std::string& b) {
  std::size_t files_a = 0, files_b = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(a)) {
    if (!e.is_regular_file()) continue;
    ++files_a;
    const auto other = std::filesystem::path(b) / std::filesystem::relative(e.path(), a);
    if (!std::filesystem::exists(other) || slurp(e.path()) != slurp(other)) return false;
  }
  for (const auto& e : std::filesystem::recursive_directory_iterator(b)) {
    if (e.is_regular_file()) ++files_b;
  }
  return files_a == files_b && files_a > 0;
}

void timed_fs_writes_identical_bytes(core::Simulator& sim, const std::vector<PoolDay>& pool,
                                     const std::string& dir) {
  auto& direct = io::StdioFileSystem::instance();
  TimedFileSystem timed{direct};
  write_wal(sim, direct, dir + "/wal_direct");
  write_wal(sim, timed, dir + "/wal_timed");
  expect(same_tree(dir + "/wal_direct", dir + "/wal_timed"),
         "timed fs: WAL segments are byte-identical to direct writes");
  serve_days(direct, dir + "/serve_direct", pool, 4);
  serve_days(timed, dir + "/serve_timed", pool, 4);
  expect(same_tree(dir + "/serve_direct", dir + "/serve_timed"),
         "timed fs: serve WAL and checkpoint are byte-identical to direct writes");
  expect(slurp(dir + "/serve_direct/serve.ckpt") == slurp(dir + "/serve_timed/serve.ckpt") &&
             !slurp(dir + "/serve_timed/serve.ckpt").empty(),
         "timed fs: the serve checkpoint was written and matches");
  const auto& s = timed.stats();
  expect(s.write_bytes > 0 && s.write_calls > 0 && !s.fsync_s.empty() && s.read_bytes > 0 &&
             s.checkpoint_s > 0.0,
         "timed fs: counts bytes, calls, fsyncs and checkpoint time");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: perfbench_selftest WORKDIR\n";
    return 2;
  }
  const std::string dir = argv[1];
  try {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    core::Simulator sim{tiny_config()};
    rerun_check_catches_changed_field(sim);
    replay_check_catches_divergence(sim);
    wal_check_catches_flipped_byte(sim, dir + "/wal_check");
    const std::vector<PoolDay> pool = capture(sim);
    serve_check_catches_dropped_record(pool, dir + "/serve_check");
    timed_fs_writes_identical_bytes(sim, pool, dir + "/timed_fs");
    std::filesystem::remove_all(dir);
  } catch (const std::exception& e) {
    std::cout << "FAIL unexpected exception: " << e.what() << "\n";
    return 1;
  }
  std::cout << (g_failures == 0 ? "all perfbench self-tests passed\n"
                                : "perfbench self-tests FAILED\n");
  return g_failures == 0 ? 0 : 1;
}
