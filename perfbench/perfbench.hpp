#pragma once

// Shared pieces of the repository benchmark (see run.py for the command
// line and STEADINESS.md for what each workload measures and why).
//
//  - world configs for the three workloads;
//  - the correctness checks, written as free functions over their inputs so
//    the self-test can plant a defect and watch each one fail;
//  - TimedFileSystem, an io::FileSystem decorator that times calls and
//    counts bytes (the seam FaultyFileSystem uses), for the traced run;
//  - SpanLog, the traced run's in-memory span store, written out at exit.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "io/file.hpp"
#include "serve/stream_aggregates.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/sinks.hpp"
#include "util/crc32c.hpp"

namespace tl::core {
class Simulator;
}

namespace tl::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seed of the network under test: the country (census) and the site
/// deployment. The bench world's default seed, so the sites and sectors are
/// those bench_throughput measures.
inline constexpr std::uint64_t kWorldSeed = 42;

/// The bench world of bench/bench_world.hpp (census of 320 districts,
/// 47M inhabitants) at `scale`, with `ues` UEs and `days` study days. The
/// country and deployment come from kWorldSeed; `seed` draws everything
/// else: devices, UEs, their movement and every per-UE-day stream. A seed
/// that also redrew the deployment would move the site-lookup cost by a
/// quarter between seeds (measured on study_serial: 5.8k vs 7.2k
/// UE-days/s for seeds 1 and 2), swamping every change a run is meant to
/// show.
core::StudyConfig world_config(double scale, std::uint32_t ues, int days,
                               std::uint64_t seed);

/// Record count and CRC32C of one day's wire-encoded record stream.
struct DayDigest {
  int day = -1;
  std::uint64_t records = 0;
  std::uint32_t crc = 0;
  friend bool operator==(const DayDigest&, const DayDigest&) = default;
};

/// The CRC consumer: CRC32C over every record's WAL encoding, closed into
/// one DayDigest per on_day_end.
class DigestSink final : public telemetry::RecordSink {
 public:
  void consume(const telemetry::HandoverRecord& record) override;
  void on_day_end(int day) override;
  const std::vector<DayDigest>& days() const noexcept { return days_; }
  std::uint64_t records() const noexcept { return total_; }

 private:
  util::Crc32c crc_;
  std::uint64_t open_records_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint8_t> scratch_;
  std::vector<DayDigest> days_;
};

/// study_serial's check: re-runs `expected.day` on `sim` at `threads`
/// workers with only a fresh DigestSink attached (the caller detaches its
/// own sinks first) and compares the digest.
bool rerun_day_matches(core::Simulator& sim, const DayDigest& expected,
                       unsigned threads);

/// study_wal's check: replays the committed WAL at `directory` and compares
/// every day's record count and CRC with the live stream's digests. Returns
/// the number of live days that do not match (a replay that throws fails
/// them all).
std::uint64_t wal_mismatched_days(io::FileSystem& fs, const std::string& directory,
                                  const std::vector<DayDigest>& live);

/// One captured simulated day, replayed into the serve WAL as later days.
struct PoolDay {
  int day = 0;
  std::vector<telemetry::HandoverRecord> records;
};

/// Record `i` of the serve stream's day `day`: pool day `day % pool.size()`
/// with its timestamp moved forward by whole days.
telemetry::HandoverRecord serve_record(const std::vector<PoolDay>& pool, int day,
                                       std::size_t i);

/// serve_tail's check: a batch StreamAggregates fed serve days [0, days)
/// must serialize to exactly `tailer_state`.
bool serve_state_matches(const std::vector<PoolDay>& pool, int days,
                         const serve::StreamAggregates::Options& options,
                         const std::vector<std::uint8_t>& tailer_state);

/// io::FileSystem decorator that counts bytes and write calls, and times
/// every fsync and every call on a checkpoint file (a path containing
/// kCheckpointMarker), so a tailer's checkpoint I/O can be told apart from
/// its WAL reads.
class TimedFileSystem final : public io::FileSystem {
 public:
  static constexpr const char* kCheckpointMarker = ".ckpt";

  struct Stats {
    std::uint64_t write_bytes = 0;
    std::uint64_t write_calls = 0;
    std::uint64_t read_bytes = 0;
    std::vector<double> fsync_s;  ///< one entry per File::sync()
    double checkpoint_s = 0.0;    ///< time inside calls on checkpoint files
  };

  explicit TimedFileSystem(io::FileSystem& inner) : inner_(inner) {}

  std::unique_ptr<io::File> open(const std::string& path, io::OpenMode mode) override;
  bool exists(const std::string& path) override;
  std::uint64_t file_size(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  void create_directories(const std::string& path) override;
  std::vector<std::string> list(const std::string& dir,
                                const std::string& prefix) override;

  const Stats& stats() const noexcept { return stats_; }
  Stats& mutable_stats() noexcept { return stats_; }

 private:
  io::FileSystem& inner_;
  Stats stats_;
};

/// In-memory span store for the traced run. Single-threaded: spans are
/// recorded only on the benchmark's own thread (sinks run there too, during
/// the ordered merge).
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t ue_day = 0;  ///< (ue << 16 | day) + 1; 0 = not a UE-day span
  };

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name, std::uint64_t ue_day = 0);
  void close(std::int32_t index);
  /// A finished span of known bounds under the innermost open one.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint64_t ue_day = 0);
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Tab-separated: name, start_ns, end_ns, parent, ue_day.
  void write(const std::string& path) const;

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Linear-interpolated quantile of `values` (copied, then sorted); 0 when
/// empty.
double quantile(std::vector<double> values, double q);

/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb();

/// What the traced run's sampled replay measured: calls into each hot-loop
/// layer's public function, made with the simulator's own inputs for a
/// deterministic 1-in-kSampleModulus sample of the UE-days it simulated.
struct LayerStats {
  static constexpr std::uint64_t kSampleModulus = 64;

  struct Call {
    std::uint64_t calls = 0;
    double seconds = 0.0;
    double ns_per_call() const noexcept {
      return calls ? seconds * 1e9 / static_cast<double>(calls) : 0.0;
    }
  };

  std::uint64_t ue_days = 0;  ///< sampled UE-days replayed
  std::uint64_t events = 0;   ///< trace events they generated
  Call generate, nearest, nearest_k3, locate, begin_ue_day, decide, execute, encode;
  std::uint64_t handovers = 0;       ///< decide() calls that chose a handover
  std::uint64_t nearest_misses = 0;  ///< nearest() farther than brute force
  /// Time of the calls the simulator's own loop makes (every Call above
  /// except the measurement-only nearest_k3 and encode).
  double loop_seconds = 0.0;
  /// The records the replay produced, one entry per simulated day, in day
  /// order: the replay check compares them with the simulator's, and the
  /// traced run's serve probe commits them as WAL days.
  std::map<int, std::vector<telemetry::HandoverRecord>> records_by_day;
};

/// Whether UE-day (ue, day) is in the replay sample; `anon_id` is the UE's
/// Ue::anon_id, which its records carry as anon_user_id.
bool sampled_ue_day(std::uint64_t seed, std::uint64_t anon_id, int day);

/// Replays the sampled UE-days of `days` the way Simulator::simulate_ue_day
/// runs them (legacy-only UEs too when `legacy` is set, as the simulator
/// does when a metrics sink is attached), timing each public layer call
/// into `stats` and recording one span per call under a span per UE-day.
void replay_sampled_ue_days(const core::Simulator& sim, const std::vector<int>& days,
                            bool legacy, SpanLog& spans, LayerStats& stats);

/// The simulator's side of the replay check: a DigestSink over the records
/// of sampled UE-days only, one DayDigest per simulated day.
class SampledDigestSink final : public telemetry::RecordSink {
 public:
  explicit SampledDigestSink(std::uint64_t seed) : seed_(seed) {}
  void consume(const telemetry::HandoverRecord& record) override {
    if (sampled_ue_day(seed_, record.anon_user_id, record.day())) digest_.consume(record);
  }
  void on_day_end(int day) override { digest_.on_day_end(day); }
  const std::vector<DayDigest>& days() const noexcept { return digest_.days(); }

 private:
  std::uint64_t seed_;
  DigestSink digest_;
};

/// The traced run's replay check: each day the simulator ran (`simulated`,
/// from a SampledDigestSink) must carry exactly the records the replay
/// produced for that day, in the same order. Returns the number of
/// simulated days that do not.
std::uint64_t replay_mismatched_days(const std::vector<DayDigest>& simulated,
                                     const LayerStats& replay);

}  // namespace tl::perfbench
