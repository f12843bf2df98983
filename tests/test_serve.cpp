// Serve-mode tests: WAL tail-follow semantics (pending vs torn tails,
// exactly-once delivery, concurrent reader/crashing-writer regression),
// retention on pruned chains, StreamAggregates windowing + serialization,
// WalTailer checkpoint/resume, and the kill-the-tailer chaos proof that
// aggregates converge bit-for-bit to a batch oracle across seeded
// kill/recover schedules (TL_CHAOS_SCHEDULES elevates the count in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "analysis/ecdf.hpp"
#include "io/faulty_file.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "serve/stream_aggregates.hpp"
#include "serve/wal_tailer.hpp"
#include "supervise/retry.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/sinks.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tl {
namespace {

using serve::StreamAggregates;
using serve::WalTailer;
using telemetry::HandoverRecord;
using telemetry::LogCursor;
using telemetry::RecordLog;
using telemetry::TailReadResult;
using telemetry::TailState;

namespace stdfs = std::filesystem;

// --- helpers -----------------------------------------------------------------

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "tl_serve_" + name) {
    stdfs::remove_all(path);
  }
  ~TempDir() { stdfs::remove_all(path); }
  std::string path;
};

/// Deterministic in (day, i) — the writer-crash tests rely on recovery
/// regenerating byte-identical frames from these.
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

/// Commits days [first, first + count) with kPerDay records each; the app
/// state payload is a deterministic function of the day.
void commit_days(RecordLog& log, int first, int count) {
  for (int day = first; day < first + count; ++day) {
    for (std::uint32_t i = 0; i < kPerDay; ++i) log.append(make_record(day, i));
    const std::vector<std::uint8_t> state{static_cast<std::uint8_t>(day),
                                          0x5A};
    log.commit_day(day, state);
  }
}

/// A fresh multi-segment WAL at `dir` holding days [0, days).
void build_wal(const std::string& dir, int days,
               std::uint64_t max_segment_bytes = 16 * 1024) {
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = dir;
  opt.max_segment_bytes = max_segment_bytes;
  opt.write_chunk_bytes = 512;
  RecordLog log{real, opt};
  log.open();
  commit_days(log, 0, days);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// A CRC-framed WAL frame exactly as the writer lays it down.
std::vector<std::uint8_t> make_frame(std::uint8_t type,
                                     const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = util::crc32c(&type, 1);
  crc = util::crc32c(payload.data(), payload.size(), crc);
  put_u32(out, util::mask_crc32c(crc));
  out.push_back(type);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> make_marker_payload(
    int day, std::uint64_t in_day, std::uint64_t total,
    const std::vector<std::uint8_t>& app_state = {}) {
  std::vector<std::uint8_t> p;
  put_u32(p, static_cast<std::uint32_t>(day));
  put_u64(p, in_day);
  put_u64(p, total);
  put_u32(p, static_cast<std::uint32_t>(app_state.size()));
  p.insert(p.end(), app_state.begin(), app_state.end());
  return p;
}

/// Appends raw bytes to the newest segment of `dir` (crafting torn and
/// pending tails the real writer cannot be asked to produce on demand).
void append_raw(const std::string& dir, const std::vector<std::uint8_t>& bytes,
                std::size_t take = SIZE_MAX) {
  auto& real = io::StdioFileSystem::instance();
  const auto names = real.list(dir, "wal-");
  ASSERT_FALSE(names.empty());
  std::ofstream os{dir + "/" + names.back(),
                   std::ios::binary | std::ios::app};
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(std::min(take, bytes.size())));
  ASSERT_TRUE(os.good());
}

/// Collects everything follow() delivers plus the day boundaries.
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

void copy_wal(const std::string& from, const std::string& to) {
  stdfs::create_directories(to);
  auto& real = io::StdioFileSystem::instance();
  for (const auto& name : real.list(from, "wal-")) {
    stdfs::copy_file(from + "/" + name, to + "/" + name,
                     stdfs::copy_options::overwrite_existing);
  }
}

// --- tail-follow semantics ---------------------------------------------------

TEST(TailFollow, MissingDirectoryIsClean) {
  TempDir tmp{"follow_empty"};
  auto& real = io::StdioFileSystem::instance();
  LogCursor cursor;
  CollectingSink sink;
  const TailReadResult r = RecordLog::follow(real, tmp.path + "/nope", cursor, sink);
  EXPECT_EQ(r.state, TailState::kClean);
  EXPECT_EQ(r.days_delivered, 0u);
  EXPECT_TRUE(cursor.fresh());
}

TEST(TailFollow, DeliversWholeLogThenClean) {
  TempDir tmp{"follow_all"};
  build_wal(tmp.path, 4);
  auto& real = io::StdioFileSystem::instance();
  LogCursor cursor;
  CollectingSink sink;
  const TailReadResult r = RecordLog::follow(real, tmp.path, cursor, sink);
  EXPECT_EQ(r.state, TailState::kClean);
  EXPECT_EQ(r.days_delivered, 4u);
  EXPECT_EQ(r.records_delivered, 4u * kPerDay);
  EXPECT_EQ(sink.days, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(cursor.day, 3);
  EXPECT_EQ(cursor.records, 4u * kPerDay);
  // The newest marker's app state rides out.
  EXPECT_EQ(r.last_app_state, (std::vector<std::uint8_t>{3, 0x5A}));

  // Replay oracle: follow() delivered the exact same stream.
  const auto oracle = RecordLog::read_all(real, tmp.path);
  ASSERT_EQ(sink.records.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(sink.records[i].timestamp, oracle[i].timestamp) << i;
    ASSERT_EQ(sink.records[i].anon_user_id, oracle[i].anon_user_id) << i;
  }

  // A second pass delivers nothing — exactly once.
  CollectingSink again;
  const TailReadResult r2 = RecordLog::follow(real, tmp.path, cursor, again);
  EXPECT_EQ(r2.state, TailState::kClean);
  EXPECT_EQ(r2.days_delivered, 0u);
  EXPECT_TRUE(again.records.empty());
}

TEST(TailFollow, MaxDaysBoundsEachPoll) {
  TempDir tmp{"follow_bounded"};
  build_wal(tmp.path, 5);
  auto& real = io::StdioFileSystem::instance();
  LogCursor cursor;
  CollectingSink sink;
  std::vector<TailState> states;
  for (int polls = 0; polls < 10; ++polls) {
    const TailReadResult r = RecordLog::follow(real, tmp.path, cursor, sink, 2);
    EXPECT_LE(r.days_delivered, 2u);
    states.push_back(r.state);
    if (r.state == TailState::kClean) break;
    ASSERT_EQ(r.state, TailState::kMore);
  }
  EXPECT_EQ(states, (std::vector<TailState>{TailState::kMore, TailState::kMore,
                                            TailState::kClean}));
  EXPECT_EQ(sink.days, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TailFollow, PartialFrameHeaderIsPending) {
  TempDir tmp{"follow_pend_hdr"};
  build_wal(tmp.path, 2, 1 << 20);  // single segment
  const auto frame = make_frame(RecordLog::kRecordFrame, [] {
    std::vector<std::uint8_t> payload;
    RecordLog::encode_record(make_record(2, 0), payload);
    return payload;
  }());
  append_raw(tmp.path, frame, 5);  // header cut short
  auto& real = io::StdioFileSystem::instance();
  LogCursor cursor;
  CollectingSink sink;
  const TailReadResult r = RecordLog::follow(real, tmp.path, cursor, sink);
  EXPECT_EQ(r.state, TailState::kPending);
  EXPECT_EQ(r.days_delivered, 2u);  // committed days still flow
  EXPECT_EQ(cursor.day, 1);
}

TEST(TailFollow, PartialPayloadIsPending) {
  TempDir tmp{"follow_pend_pay"};
  build_wal(tmp.path, 1, 1 << 20);
  std::vector<std::uint8_t> payload;
  RecordLog::encode_record(make_record(1, 0), payload);
  const auto frame = make_frame(RecordLog::kRecordFrame, payload);
  append_raw(tmp.path, frame, frame.size() - 7);
  auto& real = io::StdioFileSystem::instance();
  LogCursor cursor;
  CollectingSink sink;
  EXPECT_EQ(RecordLog::follow(real, tmp.path, cursor, sink).state,
            TailState::kPending);
}

TEST(TailFollow, RecordsWithoutMarkerArePendingAndNeverDelivered) {
  TempDir tmp{"follow_no_marker"};
  build_wal(tmp.path, 1, 1 << 20);
  std::vector<std::uint8_t> payload;
  RecordLog::encode_record(make_record(1, 0), payload);
  append_raw(tmp.path, make_frame(RecordLog::kRecordFrame, payload));
  auto& real = io::StdioFileSystem::instance();
  LogCursor cursor;
  CollectingSink sink;
  for (int poll = 0; poll < 3; ++poll) {
    const TailReadResult r = RecordLog::follow(real, tmp.path, cursor, sink);
    EXPECT_EQ(r.state, TailState::kPending);
  }
  // The unmarked record was read three times and delivered zero times.
  EXPECT_EQ(sink.records.size(), static_cast<std::size_t>(kPerDay));
  // Completing the commit delivers the day exactly once.
  append_raw(tmp.path,
             make_frame(RecordLog::kDayMarkerFrame,
                        make_marker_payload(1, 1, kPerDay + 1)));
  const TailReadResult r = RecordLog::follow(real, tmp.path, cursor, sink);
  EXPECT_EQ(r.state, TailState::kClean);
  EXPECT_EQ(r.days_delivered, 1u);
  EXPECT_EQ(sink.records.size(), static_cast<std::size_t>(kPerDay) + 1);
  EXPECT_EQ(sink.days, (std::vector<int>{0, 1}));
}

TEST(TailFollow, CompleteFrameWithBadCrcIsTorn) {
  TempDir tmp{"follow_torn_crc"};
  build_wal(tmp.path, 1, 1 << 20);
  std::vector<std::uint8_t> payload;
  RecordLog::encode_record(make_record(1, 0), payload);
  auto frame = make_frame(RecordLog::kRecordFrame, payload);
  frame.back() ^= 0xFF;  // complete frame, wrong bytes
  append_raw(tmp.path, frame);
  auto& real = io::StdioFileSystem::instance();
  LogCursor cursor;
  CollectingSink sink;
  const TailReadResult r = RecordLog::follow(real, tmp.path, cursor, sink);
  EXPECT_EQ(r.state, TailState::kTorn);
  EXPECT_EQ(r.days_delivered, 1u);  // the committed prefix still flows
}

TEST(TailFollow, ForeignFrameTypeIsTorn) {
  TempDir tmp{"follow_torn_type"};
  build_wal(tmp.path, 1, 1 << 20);
  append_raw(tmp.path, make_frame(99, {1, 2, 3}));
  auto& real = io::StdioFileSystem::instance();
  LogCursor cursor;
  CollectingSink sink;
  EXPECT_EQ(RecordLog::follow(real, tmp.path, cursor, sink).state,
            TailState::kTorn);
}

TEST(TailFollow, AbsurdFrameLengthIsTorn) {
  TempDir tmp{"follow_torn_len"};
  build_wal(tmp.path, 1, 1 << 20);
  std::vector<std::uint8_t> junk;
  put_u32(junk, 0x7FFFFFFFu);  // > kMaxFrameLen: can never become valid
  put_u32(junk, 0);
  junk.push_back(RecordLog::kRecordFrame);
  append_raw(tmp.path, junk);
  auto& real = io::StdioFileSystem::instance();
  LogCursor cursor;
  CollectingSink sink;
  EXPECT_EQ(RecordLog::follow(real, tmp.path, cursor, sink).state,
            TailState::kTorn);
}

TEST(TailFollow, MarkerCountMismatchThrows) {
  TempDir tmp{"follow_bad_marker"};
  build_wal(tmp.path, 1, 1 << 20);
  // A marker claiming 5 in-day records when none precede it.
  append_raw(tmp.path,
             make_frame(RecordLog::kDayMarkerFrame,
                        make_marker_payload(1, 5, kPerDay + 5)));
  auto& real = io::StdioFileSystem::instance();
  LogCursor cursor;
  CollectingSink sink;
  EXPECT_THROW(RecordLog::follow(real, tmp.path, cursor, sink), io::IoError);
}

TEST(TailFollow, NonMonotonicDayMarkerThrows) {
  TempDir tmp{"follow_day_regress"};
  build_wal(tmp.path, 2, 1 << 20);
  // Day 1 again, after day 1 already committed.
  append_raw(tmp.path,
             make_frame(RecordLog::kDayMarkerFrame,
                        make_marker_payload(1, 0, 2 * kPerDay)));
  auto& real = io::StdioFileSystem::instance();
  LogCursor cursor;
  CollectingSink sink;
  EXPECT_THROW(RecordLog::follow(real, tmp.path, cursor, sink), io::IoError);
}

TEST(TailFollow, CursorSegmentDeletedThrows) {
  TempDir tmp{"follow_seg_gone"};
  build_wal(tmp.path, 6, 8 * 1024);
  auto& real = io::StdioFileSystem::instance();
  const auto names = real.list(tmp.path, "wal-");
  ASSERT_GT(names.size(), 1u);
  LogCursor cursor;
  CollectingSink sink;
  ASSERT_EQ(RecordLog::follow(real, tmp.path, cursor, sink).state,
            TailState::kClean);
  real.remove(tmp.path + "/" + RecordLog::segment_name(cursor.segment));
  EXPECT_THROW(RecordLog::follow(real, tmp.path, cursor, sink), io::IoError);
}

TEST(TailFollow, FreshCursorStartsAtPrunedChainBase) {
  TempDir tmp{"follow_pruned"};
  build_wal(tmp.path, 6, 8 * 1024);
  auto& real = io::StdioFileSystem::instance();
  auto names = real.list(tmp.path, "wal-");
  ASSERT_GT(names.size(), 2u);
  // Prune the first segments, as serve-mode retention would.
  real.remove(tmp.path + "/" + names[0]);
  real.remove(tmp.path + "/" + names[1]);
  LogCursor cursor;
  CollectingSink sink;
  const TailReadResult r = RecordLog::follow(real, tmp.path, cursor, sink);
  EXPECT_EQ(r.state, TailState::kClean);
  EXPECT_GT(r.days_delivered, 0u);
  EXPECT_LT(r.days_delivered, 6u);
  // The adopted cumulative total means cursor.records reflects the whole
  // stream, not just the surviving segments.
  EXPECT_EQ(cursor.records, 6u * kPerDay);
  EXPECT_EQ(cursor.day, 5);
}

// Satellite regression: a reader polling while a writer appends and then
// crashes mid-segment must see only pending (never torn) tails, deliver
// every day exactly once, and converge after the writer recovers.
TEST(TailFollow, ConcurrentReaderSurvivesWriterCrash) {
  TempDir tmp{"follow_concurrent"};
  auto& real = io::StdioFileSystem::instance();
  constexpr int kDays = 6;

  // Dry run on a scratch directory to size the op horizon for the crash.
  std::uint64_t horizon = 0;
  {
    TempDir scratch{"follow_concurrent_dry"};
    io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};
    RecordLog::Options opt;
    opt.directory = scratch.path;
    opt.max_segment_bytes = 16 * 1024;
    opt.write_chunk_bytes = 512;
    RecordLog log{ffs, opt};
    log.open();
    commit_days(log, 0, kDays);
    horizon = ffs.ops();
  }
  ASSERT_GT(horizon, 10u);

  std::atomic<bool> writer_done{false};
  std::atomic<int> crashes{0};

  std::thread writer([&] {
    RecordLog::Options opt;
    opt.directory = tmp.path;
    opt.max_segment_bytes = 16 * 1024;
    opt.write_chunk_bytes = 512;
    // Phase 1: die mid-stream at a planned op.
    {
      io::IoFaultPlan plan;
      plan.add(horizon / 2, io::IoFaultKind::kCrash);
      io::FaultyFileSystem ffs{real, plan, 0x7EA5ULL};
      RecordLog log{ffs, opt};
      try {
        log.open();
        commit_days(log, 0, kDays);
      } catch (const io::SimulatedCrash&) {
        crashes.fetch_add(1);
      }
    }
    // Phase 2: a fresh "process" recovers and finishes the study.
    {
      RecordLog log{real, opt};
      const telemetry::LogRecoveryReport rec = log.open();
      commit_days(log, rec.last_committed_day + 1, kDays - 1 - rec.last_committed_day);
    }
    writer_done.store(true);
  });

  LogCursor cursor;
  CollectingSink sink;
  bool saw_pending = false;
  bool saw_torn = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (true) {
    TailReadResult r;
    try {
      r = RecordLog::follow(real, tmp.path, cursor, sink, 1);
    } catch (const io::IoError&) {
      // The only IoError a live chain can produce here is a transient view
      // (e.g. listing raced a rename); treat as retry.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (r.state == TailState::kTorn) saw_torn = true;
    if (r.state == TailState::kPending) saw_pending = true;
    if (cursor.day == kDays - 1 && writer_done.load()) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "reader stalled";
    if (r.state != TailState::kMore) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  writer.join();

  EXPECT_EQ(crashes.load(), 1);
  EXPECT_FALSE(saw_torn) << "a live writer's tail must never look torn";
  EXPECT_EQ(sink.days, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  const auto oracle = RecordLog::read_all(real, tmp.path);
  ASSERT_EQ(sink.records.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(sink.records[i].timestamp, oracle[i].timestamp) << i;
  }
  RecordProperty("saw_pending", saw_pending ? 1 : 0);
}

// --- pruned-chain writer recovery (base-aware scan) --------------------------

TEST(PrunedChain, WriterReopensAndAppendsAfterRetention) {
  TempDir tmp{"pruned_writer"};
  build_wal(tmp.path, 6, 8 * 1024);
  auto& real = io::StdioFileSystem::instance();
  auto names = real.list(tmp.path, "wal-");
  ASSERT_GT(names.size(), 2u);
  real.remove(tmp.path + "/" + names[0]);
  real.remove(tmp.path + "/" + names[1]);

  RecordLog::Options opt;
  opt.directory = tmp.path;
  opt.max_segment_bytes = 8 * 1024;
  opt.write_chunk_bytes = 512;
  RecordLog log{real, opt};
  const telemetry::LogRecoveryReport rec = log.open();
  EXPECT_EQ(rec.last_committed_day, 5);
  EXPECT_EQ(rec.committed_records, 6u * kPerDay);  // adopted cumulative total
  commit_days(log, 6, 1);
  EXPECT_EQ(log.committed_records(), 7u * kPerDay);

  // The new day tails out of the pruned chain like any other.
  LogCursor cursor;
  CollectingSink sink;
  EXPECT_EQ(RecordLog::follow(real, tmp.path, cursor, sink).state,
            TailState::kClean);
  EXPECT_EQ(cursor.day, 6);
  EXPECT_EQ(cursor.records, 7u * kPerDay);
}

// --- StreamAggregates --------------------------------------------------------

StreamAggregates::Options small_aggs() {
  StreamAggregates::Options o;
  o.window_days = 3;
  o.sketch_k = 32;
  return o;
}

void feed_day(StreamAggregates& aggs, int day) {
  for (std::uint32_t i = 0; i < kPerDay; ++i) aggs.consume(make_record(day, i));
  aggs.on_day_end(day);
}

TEST(StreamAggregatesTest, WindowRetiresOldDaysLifetimeSurvives) {
  StreamAggregates aggs{small_aggs()};
  for (int day = 0; day < 7; ++day) feed_day(aggs, day);
  EXPECT_EQ(aggs.window().size(), 3u);
  EXPECT_EQ(aggs.window().front().day, 4);
  EXPECT_EQ(aggs.window().back().day, 6);
  EXPECT_EQ(aggs.days_sealed(), 7u);
  EXPECT_EQ(aggs.total_records(), 7u * kPerDay);
  // Per-sector lifetime counts cover all 7 days, not just the window.
  std::uint64_t sector_total = 0;
  for (const auto& [sector, tally] : aggs.sectors()) sector_total += tally.handovers;
  EXPECT_EQ(sector_total, 7u * kPerDay);

  const auto report = aggs.report();
  EXPECT_EQ(report.days, 3u);
  EXPECT_EQ(report.first_day, 4);
  EXPECT_EQ(report.last_day, 6);
  EXPECT_EQ(report.handovers, 3u * kPerDay);
  // Every record carries one of 4 vendors and 3 target RATs.
  std::uint64_t vendor_sum = 0;
  for (const auto& t : report.by_vendor) vendor_sum += t.handovers;
  EXPECT_EQ(vendor_sum, report.handovers);
  std::uint64_t district_sum = 0;
  for (const auto& [d, t] : report.by_district) district_sum += t.handovers;
  EXPECT_EQ(district_sum, report.handovers);
}

TEST(StreamAggregatesTest, ReportQuantilesWithinCertifiedBound) {
  StreamAggregates aggs{small_aggs()};
  std::vector<double> durations;
  for (int day = 0; day < 3; ++day) {
    for (std::uint32_t i = 0; i < kPerDay; ++i) {
      const HandoverRecord r = make_record(day, i);
      aggs.consume(r);
      if (r.success && !std::isnan(r.duration_ms)) {
        durations.push_back(static_cast<double>(r.duration_ms));
      }
    }
    aggs.on_day_end(day);
  }
  const auto report = aggs.report();
  ASSERT_EQ(report.sketch_count, durations.size());
  const analysis::Ecdf exact{durations};
  EXPECT_NEAR(exact.at(report.p50_ms), 0.5, report.quantile_rank_error + 1e-9);
  EXPECT_NEAR(exact.at(report.p90_ms), 0.9, report.quantile_rank_error + 1e-9);
  EXPECT_GT(report.p99_ms, report.p50_ms);
}

TEST(StreamAggregatesTest, OutOfOrderDaySealThrows) {
  StreamAggregates aggs{small_aggs()};
  feed_day(aggs, 3);
  EXPECT_THROW(aggs.on_day_end(3), std::logic_error);
  EXPECT_THROW(aggs.on_day_end(1), std::logic_error);
  EXPECT_NO_THROW(aggs.on_day_end(4));
}

TEST(StreamAggregatesTest, SerializeRoundTripsByteIdentically) {
  StreamAggregates aggs{small_aggs()};
  for (int day = 0; day < 5; ++day) feed_day(aggs, day);
  // Leave an open day in flight too.
  aggs.consume(make_record(5, 0));
  std::vector<std::uint8_t> bytes;
  aggs.serialize(bytes);
  StreamAggregates back = StreamAggregates::deserialize(bytes);
  std::vector<std::uint8_t> again;
  back.serialize(again);
  EXPECT_EQ(bytes, again);
  EXPECT_EQ(back.total_records(), aggs.total_records());
  EXPECT_EQ(back.days_sealed(), aggs.days_sealed());
  // The restored instance keeps aggregating identically.
  for (std::uint32_t i = 1; i < kPerDay; ++i) {
    aggs.consume(make_record(5, i));
    back.consume(make_record(5, i));
  }
  aggs.on_day_end(5);
  back.on_day_end(5);
  std::vector<std::uint8_t> a, b;
  aggs.serialize(a);
  back.serialize(b);
  EXPECT_EQ(a, b);
}

TEST(StreamAggregatesTest, SerializedFormatIsPinned) {
  // The serve checkpoint format and the governor's byte readings do not
  // depend on the tally container. These figures were computed with the
  // ordered-map tallies the format was defined with; the hash-map tallies
  // must serialize to the same bytes (keys in ascending order, 0 and
  // UINT32_MAX included), report the same approximate_bytes() and shed the
  // same key counts on a step to kSketchOnly.
  StreamAggregates aggs{small_aggs()};
  const auto feed = [&aggs](int day, std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      HandoverRecord r = make_record(day, i);
      r.district = 1 + (i * 7 + static_cast<std::uint32_t>(day)) % 23;
      r.source_sector = 100 + (i * 13 + 5 * static_cast<std::uint32_t>(day)) % 61;
      if (i % 10 == 0) r.district = 0;
      if (i % 10 == 1) r.district = UINT32_MAX;
      if (i % 12 == 0) r.source_sector = 0;
      if (i % 12 == 1) r.source_sector = UINT32_MAX;
      aggs.consume(r);
    }
  };
  for (int day = 0; day < 5; ++day) {
    feed(day, kPerDay);
    aggs.on_day_end(day);
  }
  feed(5, 40);  // an open day in flight too
  std::vector<std::uint8_t> bytes;
  aggs.serialize(bytes);
  EXPECT_EQ(bytes.size(), 6512u);
  EXPECT_EQ(util::crc32c(bytes.data(), bytes.size()), 0x93207DE0u);
  EXPECT_EQ(aggs.approximate_bytes(), 14688u);

  StreamAggregates::DegradeDecision decision;
  decision.level = serve::DegradeLevel::kSketchOnly;
  aggs.apply_degrade(decision, 5);
  ASSERT_EQ(aggs.degradation_events().size(), 1u);
  EXPECT_EQ(aggs.degradation_events().back().shed_district_keys, 98u);
  EXPECT_EQ(aggs.degradation_events().back().shed_sector_keys, 63u);
  EXPECT_EQ(aggs.approximate_bytes(), 4432u);
}

TEST(StreamAggregatesTest, DeserializeRejectsCorruption) {
  StreamAggregates aggs{small_aggs()};
  feed_day(aggs, 0);
  std::vector<std::uint8_t> bytes;
  aggs.serialize(bytes);
  auto expect_rejected = [](std::vector<std::uint8_t> mutated) {
    EXPECT_THROW(StreamAggregates::deserialize(mutated), std::runtime_error);
  };
  expect_rejected({});
  expect_rejected({bytes.begin(), bytes.end() - 1});
  auto bad = bytes;
  bad[0] ^= 0xFF;  // magic
  expect_rejected(bad);
  bad = bytes;
  bad[4] = 0x66;  // version
  expect_rejected(bad);
  bad = bytes;
  bad.push_back(0);  // trailing garbage
  expect_rejected(bad);
  bad = bytes;
  // Last byte = MSB of the trailing (open-day) sketch's level count; the
  // inflated count runs past the buffer and the sketch decoder rejects it.
  bad.back() ^= 0x01;
  expect_rejected(bad);
}

// --- WalTailer ---------------------------------------------------------------

WalTailer::Options tailer_options(const TempDir& dir, const std::string& wal) {
  WalTailer::Options o;
  o.wal_directory = wal;
  o.checkpoint_path = dir.path + "/serve.ckpt";
  o.window_days = 3;
  o.sketch_k = 32;
  o.checkpoint_every_days = 2;
  o.retention = false;
  o.max_days_per_poll = 64;
  return o;
}

TEST(WalTailerTest, PollIngestsEverythingAndReports) {
  TempDir tmp{"tailer_basic"};
  build_wal(tmp.path, 5);
  auto& real = io::StdioFileSystem::instance();
  WalTailer tailer{real, tailer_options(tmp, tmp.path)};
  tailer.open();
  const WalTailer::PollResult r = tailer.poll();
  EXPECT_EQ(r.state, TailState::kClean);
  EXPECT_EQ(r.days_delivered, 5u);
  EXPECT_EQ(r.records_delivered, 5u * kPerDay);
  EXPECT_TRUE(r.checkpointed);  // 5 days >= checkpoint_every_days
  EXPECT_EQ(tailer.cursor(), tailer.durable_cursor());
  const auto report = tailer.report();
  EXPECT_EQ(report.days, 3u);  // window caps the report
  EXPECT_EQ(report.last_day, 4);
}

TEST(WalTailerTest, CheckpointResumeIsExactlyOnce) {
  TempDir tmp{"tailer_resume"};
  build_wal(tmp.path, 6);
  auto& real = io::StdioFileSystem::instance();

  // Batch oracle over the whole log.
  StreamAggregates oracle{small_aggs()};
  RecordLog::replay(real, tmp.path, oracle);
  std::vector<std::uint8_t> oracle_bytes;
  oracle.serialize(oracle_bytes);

  WalTailer::Options opt = tailer_options(tmp, tmp.path);
  opt.max_days_per_poll = 2;  // several polls, several checkpoints
  {
    WalTailer tailer{real, opt};
    tailer.open();
    ASSERT_EQ(tailer.poll().state, TailState::kMore);  // days 0-1
    ASSERT_EQ(tailer.poll().state, TailState::kMore);  // days 2-3
    // Tailer "process" dies here, after 2 checkpoints.
  }
  {
    WalTailer tailer{real, opt};
    tailer.open();  // resumes from the day-3 checkpoint
    EXPECT_EQ(tailer.cursor().day, 3);
    EXPECT_EQ(tailer.aggregates().days_sealed(), 4u);
    WalTailer::PollResult r = tailer.poll();
    EXPECT_EQ(r.days_delivered, 2u);
    ASSERT_EQ(r.state, TailState::kClean);
    std::vector<std::uint8_t> bytes;
    tailer.aggregates().serialize(bytes);
    EXPECT_EQ(bytes, oracle_bytes);  // no day lost, none double-counted
  }
}

TEST(WalTailerTest, CorruptCheckpointIsRejectedNotIgnored) {
  TempDir tmp{"tailer_corrupt"};
  build_wal(tmp.path, 3);
  auto& real = io::StdioFileSystem::instance();
  const WalTailer::Options opt = tailer_options(tmp, tmp.path);
  {
    WalTailer tailer{real, opt};
    tailer.open();
    tailer.poll();
  }
  // Flip one byte mid-file.
  {
    std::fstream f{opt.checkpoint_path,
                   std::ios::binary | std::ios::in | std::ios::out};
    f.seekp(20);
    char c;
    f.seekg(20);
    f.get(c);
    f.seekp(20);
    f.put(static_cast<char>(c ^ 0x01));
  }
  WalTailer tailer{real, opt};
  EXPECT_THROW(tailer.open(), io::IoError);
}

TEST(WalTailerTest, HugeLedgerPayloadLengthIsRejectedNotRead) {
  // A CRC-valid v2 (loss-ledger) checkpoint whose payload length is close
  // to 2^64: the length checks must not wrap and send the ledger and
  // aggregate reads past the 66-byte file.
  TempDir tmp{"tailer_huge_len"};
  stdfs::create_directories(tmp.path);
  auto& real = io::StdioFileSystem::instance();
  const WalTailer::Options opt = tailer_options(tmp, tmp.path);
  std::vector<std::uint8_t> bytes(WalTailer::kCheckpointMagic,
                                  WalTailer::kCheckpointMagic + 8);
  bytes.push_back(2);  // version with the loss ledger
  put_u32(bytes, 0);   // cursor segment
  put_u64(bytes, 0);   // cursor offset
  put_u32(bytes, 0);   // cursor day
  put_u64(bytes, 2);   // cursor records; also what a wrapped read takes as
                       // the ledger's segment count
  put_u64(bytes, ~std::uint64_t{15});  // payload length 2^64 - 16
  // The 21 bytes after the length start like a real aggregate state (magic,
  // version, window, sketch k, sample modulus), so an unchecked decode
  // would read on past the end of the file.
  for (const char c : {'T', 'L', 'S', 'A'}) bytes.push_back(static_cast<std::uint8_t>(c));
  bytes.push_back(2);
  put_u32(bytes, 3);
  put_u32(bytes, 32);
  put_u32(bytes, 8);
  bytes.resize(62, 0);
  put_u32(bytes, util::mask_crc32c(util::crc32c(bytes.data(), bytes.size())));
  ASSERT_EQ(bytes.size(), 66u);
  {
    std::ofstream os{opt.checkpoint_path, std::ios::binary};
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  }
  WalTailer tailer{real, opt};
  EXPECT_THROW(tailer.open(), io::IoError);
}

TEST(WalTailerTest, StaleTmpFromCrashedCheckpointIsSwept) {
  TempDir tmp{"tailer_tmp"};
  build_wal(tmp.path, 2);
  auto& real = io::StdioFileSystem::instance();
  const WalTailer::Options opt = tailer_options(tmp, tmp.path);
  {
    std::ofstream os{opt.checkpoint_path + ".tmp", std::ios::binary};
    os << "half a checkpoint";
  }
  WalTailer tailer{real, opt};
  tailer.open();  // fresh start; the tmp is garbage, not state
  EXPECT_FALSE(real.exists(opt.checkpoint_path + ".tmp"));
  EXPECT_TRUE(tailer.cursor().fresh());
  EXPECT_EQ(tailer.poll().days_delivered, 2u);
}

TEST(WalTailerTest, CheckpointOptionMismatchIsRejected) {
  TempDir tmp{"tailer_opts"};
  build_wal(tmp.path, 3);
  auto& real = io::StdioFileSystem::instance();
  WalTailer::Options opt = tailer_options(tmp, tmp.path);
  {
    WalTailer tailer{real, opt};
    tailer.open();
    tailer.poll();
  }
  opt.sketch_k = 64;  // a different sketch resolution cannot merge streams
  WalTailer tailer{real, opt};
  EXPECT_THROW(tailer.open(), io::IoError);
}

TEST(WalTailerTest, RetentionDeletesOnlyBehindDurableCursor) {
  TempDir tmp{"tailer_retention"};
  build_wal(tmp.path, 8, 8 * 1024);
  auto& real = io::StdioFileSystem::instance();
  const std::size_t segments_before = real.list(tmp.path, "wal-").size();
  ASSERT_GT(segments_before, 2u);

  StreamAggregates oracle{small_aggs()};
  RecordLog::replay(real, tmp.path, oracle);
  std::vector<std::uint8_t> oracle_bytes;
  oracle.serialize(oracle_bytes);

  WalTailer::Options opt = tailer_options(tmp, tmp.path);
  opt.retention = true;
  opt.checkpoint_every_days = 1;
  {
    WalTailer tailer{real, opt};
    tailer.open();
    WalTailer::PollResult r = tailer.poll();
    ASSERT_EQ(r.state, TailState::kClean);
    EXPECT_GT(r.segments_retired, 0u);
    // Every surviving segment is at or after the durable cursor's.
    for (const auto& name : real.list(tmp.path, "wal-")) {
      std::uint32_t index = 0;
      ASSERT_EQ(std::sscanf(name.c_str(), "wal-%9u.tlseg", &index), 1);
      EXPECT_GE(index, tailer.durable_cursor().segment);
    }
    EXPECT_LT(real.list(tmp.path, "wal-").size(), segments_before);
  }
  // A restart over the pruned chain reproduces the oracle exactly.
  {
    WalTailer tailer{real, opt};
    tailer.open();
    EXPECT_EQ(tailer.poll().days_delivered, 0u);
    std::vector<std::uint8_t> bytes;
    tailer.aggregates().serialize(bytes);
    EXPECT_EQ(bytes, oracle_bytes);
  }
  // And the writer can still append to it (base-aware recovery).
  {
    RecordLog::Options wopt;
    wopt.directory = tmp.path;
    wopt.max_segment_bytes = 8 * 1024;
    wopt.write_chunk_bytes = 512;
    RecordLog log{real, wopt};
    EXPECT_EQ(log.open().last_committed_day, 7);
    commit_days(log, 8, 1);
  }
}

TEST(WalTailerTest, ExportsServeMetrics) {
  TempDir tmp{"tailer_obs"};
  build_wal(tmp.path, 3);
  auto& real = io::StdioFileSystem::instance();
  obs::MetricsRegistry registry;
  obs::ScopedGlobalRegistry scoped{&registry};
  WalTailer tailer{real, tailer_options(tmp, tmp.path)};
  tailer.open();
  tailer.poll();
  const obs::MetricsSnapshot snap = registry.scrape();
  const auto* days = snap.find_counter("tl_serve_days_total");
  ASSERT_NE(days, nullptr);
  EXPECT_EQ(days->value, 3u);
  const auto* records = snap.find_counter("tl_serve_records_total");
  ASSERT_NE(records, nullptr);
  EXPECT_EQ(records->value, 3u * kPerDay);
  const auto* ckpts = snap.find_counter("tl_serve_checkpoints_total");
  ASSERT_NE(ckpts, nullptr);
  EXPECT_EQ(ckpts->value, 1u);
  const auto* cursor_day = snap.find_gauge("tl_serve_cursor_day");
  ASSERT_NE(cursor_day, nullptr);
  EXPECT_EQ(cursor_day->value, 2.0);
}

TEST(WalTailerTest, PollSupervisedRetriesTransientFaults) {
  TempDir tmp{"tailer_retry"};
  build_wal(tmp.path, 3);
  auto& real = io::StdioFileSystem::instance();
  // One EIO early in the poll's op stream, then clean.
  io::IoFaultPlan plan;
  plan.add(0, io::IoFaultKind::kIoError);
  io::FaultyFileSystem ffs{real, plan, 1};
  WalTailer tailer{ffs, tailer_options(tmp, tmp.path)};
  tailer.open();
  supervise::RetryPolicy policy;
  policy.backoff_initial_ms = 0;
  policy.backoff_cap_ms = 0;
  WalTailer::PollResult result;
  const supervise::RetryReport report = supervise::run_with_retries(
      policy, "serve poll", [&](const supervise::CancelToken&) { result = tailer.poll(); });
  EXPECT_TRUE(report.ok()) << report.status.to_string();
  EXPECT_EQ(report.retries, 1);
  EXPECT_EQ(result.state, TailState::kClean);
  EXPECT_EQ(tailer.aggregates().days_sealed(), 3u);
}

// --- the chaos proof ---------------------------------------------------------

TEST(ServeChaos, KillTheTailerConvergesBitForBitToBatchOracle) {
  auto& real = io::StdioFileSystem::instance();
  TempDir ref{"chaos_ref"};
  constexpr int kDays = 8;
  build_wal(ref.path, kDays, 8 * 1024);
  ASSERT_GT(real.list(ref.path, "wal-").size(), 2u);

  // The batch oracle: one uninterrupted pass over the full log.
  StreamAggregates oracle{small_aggs()};
  RecordLog::replay(real, ref.path, oracle);
  std::vector<std::uint8_t> oracle_bytes;
  oracle.serialize(oracle_bytes);

  // Exact-vs-sketch sanity once, outside the schedule loop: the oracle's
  // quantiles respect the certified bound against the true durations.
  std::vector<double> durations;
  for (int day = 0; day < kDays; ++day) {
    for (std::uint32_t i = 0; i < kPerDay; ++i) {
      const HandoverRecord r = make_record(day, i);
      if (r.success && !std::isnan(r.duration_ms) && day >= kDays - 3) {
        durations.push_back(static_cast<double>(r.duration_ms));
      }
    }
  }
  const auto oracle_report = oracle.report();
  const analysis::Ecdf exact{durations};
  ASSERT_NEAR(exact.at(oracle_report.p50_ms), 0.5,
              oracle_report.quantile_rank_error + 1e-9);
  ASSERT_NEAR(exact.at(oracle_report.p90_ms), 0.9,
              oracle_report.quantile_rank_error + 1e-9);

  // Fault-free tailer pass to size the op horizon crashes are drawn from.
  auto make_options = [](const std::string& dir) {
    WalTailer::Options o;
    o.wal_directory = dir;
    o.checkpoint_path = dir + "/serve.ckpt";
    o.window_days = 3;
    o.sketch_k = 32;
    o.checkpoint_every_days = 1;
    o.retention = true;
    o.max_days_per_poll = 2;
    return o;
  };
  std::uint64_t horizon = 0;
  {
    TempDir dry{"chaos_dry"};
    copy_wal(ref.path, dry.path);
    io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};
    WalTailer tailer{ffs, make_options(dry.path)};
    tailer.open();
    while (tailer.poll().state != TailState::kClean) {
    }
    horizon = ffs.ops();
    std::vector<std::uint8_t> bytes;
    tailer.aggregates().serialize(bytes);
    ASSERT_EQ(bytes, oracle_bytes) << "fault-free tail != batch oracle";
  }
  ASSERT_GT(horizon, 10u);

  const int schedules = chaos_schedule_count();
  int total_crashes = 0;
  int total_io_aborts = 0;
  int schedules_with_retention = 0;

  for (int schedule = 0; schedule < schedules; ++schedule) {
    TempDir dir{"chaos_" + std::to_string(schedule)};
    copy_wal(ref.path, dir.path);
    const WalTailer::Options opt = make_options(dir.path);
    util::Rng meta =
        util::Rng::derive(0x5E4FEULL, static_cast<std::uint64_t>(schedule));
    int attempts = 0;
    std::uint64_t retired = 0;
    bool complete = false;

    while (!complete) {
      ASSERT_LT(attempts, 64) << "schedule " << schedule << " livelocked";
      ++attempts;
      io::IoFaultPlan plan;
      const bool clean = attempts > 1 && meta.chance(0.4);
      if (!clean) {
        const double transient_rate = (schedule % 3 == 0) ? 0.02 : 0.0;
        plan = io::IoFaultPlan::chaos(meta(), horizon + 8, transient_rate);
      }
      io::FaultyFileSystem ffs{real, plan, meta()};
      WalTailer tailer{ffs, opt};
      try {
        tailer.open();  // checkpoint load runs under fault injection too
        while (true) {
          const WalTailer::PollResult r = tailer.poll();
          retired += r.segments_retired;
          ASSERT_NE(r.state, TailState::kTorn)
              << "schedule " << schedule << ": committed log looked torn";
          ASSERT_NE(r.state, TailState::kPending)
              << "schedule " << schedule << ": committed log looked pending";
          if (r.state == TailState::kClean) break;
        }
        complete = true;
        // The survivor's live aggregates are bit-identical to the oracle:
        // exact counters exactly, sketches byte-for-byte.
        std::vector<std::uint8_t> bytes;
        tailer.aggregates().serialize(bytes);
        ASSERT_EQ(bytes, oracle_bytes) << "schedule " << schedule;
      } catch (const io::SimulatedCrash&) {
        ++total_crashes;
      } catch (const io::IoError&) {
        ++total_io_aborts;
      }
    }

    // Restart proof: checkpoint + retained segments alone reproduce the
    // oracle — no reread of retired history, no dependence on the dead
    // tailer's memory.
    {
      WalTailer tailer{real, opt};
      tailer.open();
      const WalTailer::PollResult r = tailer.poll();
      ASSERT_EQ(r.state, TailState::kClean) << "schedule " << schedule;
      ASSERT_EQ(r.days_delivered, 0u) << "schedule " << schedule;
      std::vector<std::uint8_t> bytes;
      tailer.aggregates().serialize(bytes);
      ASSERT_EQ(bytes, oracle_bytes) << "schedule " << schedule;
    }
    if (retired > 0) ++schedules_with_retention;
  }

  // The harness must have actually exercised the crash and retention paths.
  EXPECT_GT(total_crashes, schedules / 2);
  EXPECT_GT(schedules_with_retention, schedules / 2);
  RecordProperty("schedules", schedules);
  RecordProperty("crashes", total_crashes);
  RecordProperty("io_aborts", total_io_aborts);
  RecordProperty("retention_schedules", schedules_with_retention);
}

}  // namespace
}  // namespace tl
