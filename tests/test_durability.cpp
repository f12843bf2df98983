// Durability tests: CRC32C vectors, the File/FileSystem seam, seeded I/O
// fault injection, record-log framing and torn-tail recovery, the binary
// checkpoint codec, atomic checkpoint files, validating-sink degradation
// counters, and the kill/recover chaos harness that proves crash consistency
// across >= 100 seeded fault schedules (TL_CHAOS_SCHEDULES elevates the
// count in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint_codec.hpp"
#include "core/simulator.hpp"
#include "govern/governor.hpp"
#include "io/faulty_file.hpp"
#include "io/file.hpp"
#include "metrics_log.hpp"
#include "telemetry/aggregates.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/scrub.hpp"
#include "telemetry/signaling_dataset.hpp"
#include "telemetry/sinks.hpp"
#include "util/byte_codec.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tl {
namespace {

using core::DayCheckpoint;
using core::Simulator;
using core::StudyConfig;
using telemetry::DurableRecordSink;
using telemetry::HandoverRecord;
using telemetry::LogRecoveryReport;
using telemetry::RecordLog;

namespace fs = std::filesystem;

// --- helpers -----------------------------------------------------------------

/// Fresh directory under the gtest temp root, wiped on construction and
/// destruction so reruns never see stale segments.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "tl_durability_" + name) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

StudyConfig chaos_config() {
  StudyConfig cfg = StudyConfig::test_scale();
  cfg.days = 3;
  cfg.population.count = 400;
  return cfg;
}

HandoverRecord make_record(int day, std::uint32_t i) {
  HandoverRecord r;
  r.timestamp = static_cast<util::TimestampMs>(day) * util::kMsPerDay +
                1000 * static_cast<util::TimestampMs>(i + 1);
  r.success = (i % 3) != 0;
  r.duration_ms = 40.0f + static_cast<float>(i);
  r.cause = r.success ? corenet::kCauseNone : static_cast<corenet::CauseId>(2 + i % 5);
  r.anon_user_id = 0x1122334455667788ULL + i;
  r.source_sector = 10 + i;
  r.target_sector = 11 + i;
  r.source_rat = topology::ObservedRat::kG45Nsa;
  r.target_rat = (i % 4 == 0) ? topology::ObservedRat::kG3 : topology::ObservedRat::kG45Nsa;
  r.device_type = devices::DeviceType::kSmartphone;
  r.manufacturer = static_cast<devices::ManufacturerId>(i % 7);
  r.postcode = 900 + i;
  r.district = 42;
  r.area = geo::AreaType::kRural;
  r.region = geo::Region::kWest;
  r.vendor = topology::Vendor::kV2;
  r.srvcc = (i % 4 == 0);
  r.attempt = static_cast<std::uint8_t>(i % 3);
  return r;
}

void expect_record_eq(const HandoverRecord& a, const HandoverRecord& b,
                      std::size_t index) {
  ASSERT_EQ(a.timestamp, b.timestamp) << "record " << index;
  ASSERT_EQ(a.success, b.success) << "record " << index;
  ASSERT_EQ(a.duration_ms, b.duration_ms) << "record " << index;
  ASSERT_EQ(a.cause, b.cause) << "record " << index;
  ASSERT_EQ(a.anon_user_id, b.anon_user_id) << "record " << index;
  ASSERT_EQ(a.source_sector, b.source_sector) << "record " << index;
  ASSERT_EQ(a.target_sector, b.target_sector) << "record " << index;
  ASSERT_EQ(a.source_rat, b.source_rat) << "record " << index;
  ASSERT_EQ(a.target_rat, b.target_rat) << "record " << index;
  ASSERT_EQ(a.device_type, b.device_type) << "record " << index;
  ASSERT_EQ(a.manufacturer, b.manufacturer) << "record " << index;
  ASSERT_EQ(a.postcode, b.postcode) << "record " << index;
  ASSERT_EQ(a.district, b.district) << "record " << index;
  ASSERT_EQ(a.area, b.area) << "record " << index;
  ASSERT_EQ(a.region, b.region) << "record " << index;
  ASSERT_EQ(a.vendor, b.vendor) << "record " << index;
  ASSERT_EQ(a.srvcc, b.srvcc) << "record " << index;
  ASSERT_EQ(a.attempt, b.attempt) << "record " << index;
}

void expect_identical(const std::vector<HandoverRecord>& a,
                      const std::vector<HandoverRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_record_eq(a[i], b[i], i);
}

/// All log bytes, segments concatenated in order — the chaos harness's
/// byte-identity oracle.
std::string log_bytes(const std::string& dir) {
  std::string all;
  auto& real = io::StdioFileSystem::instance();
  for (const auto& name : real.list(dir, "wal-")) {
    std::ifstream is{dir + "/" + name, std::ios::binary};
    std::ostringstream os;
    os << is.rdbuf();
    all += "[" + name + "]";  // segment boundaries must match too
    all += os.str();
  }
  return all;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

// --- CRC32C ------------------------------------------------------------------

TEST(Crc32c, KnownAnswerVectors) {
  // RFC 3720 / iSCSI test vectors (Castagnoli polynomial).
  EXPECT_EQ(util::crc32c("123456789", 9), 0xE3069283u);
  const std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(util::crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(util::crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(util::crc32c("", 0), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = util::crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    util::Crc32c inc;
    inc.update(data.data(), split);
    inc.update(data.data() + split, data.size() - split);
    ASSERT_EQ(inc.value(), whole) << "split at " << split;
  }
}

TEST(Crc32c, MaskRoundTripAndDisplacement) {
  util::Rng rng{123};
  for (int i = 0; i < 1000; ++i) {
    const auto crc = static_cast<std::uint32_t>(rng());
    const std::uint32_t masked = util::mask_crc32c(crc);
    EXPECT_EQ(util::unmask_crc32c(masked), crc);
    // Masking exists so a CRC stored in CRC'd data never matches itself.
    EXPECT_NE(masked, crc);
  }
}

TEST(Crc32c, HardwarePathMatchesPortableReference) {
  // crc32c() runs on the CPU's CRC32C instruction where there is one; the
  // portable slice-by-8 is the reference. Every length 0-256 at each of the
  // 8 alignments, each call continuing from the previous result.
  RecordProperty("hardware", util::crc32c_hardware() ? "yes" : "no");
  util::Rng rng{0xC3C32ULL};
  std::vector<std::uint8_t> bytes(256 + 8);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  std::uint32_t seed = 0x9E3779B9u;
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::uint8_t* p = bytes.data() + align;
      const std::uint32_t crc = util::crc32c(p, len, seed);
      ASSERT_EQ(crc, util::crc32c_portable(p, len, seed))
          << "length " << len << ", alignment " << align;
      seed = crc | 1u;  // chained, never zero
    }
  }

  // Crc32c.KnownAnswerVectors, against both paths.
  using Crc = std::uint32_t (*)(const void*, std::size_t, std::uint32_t) noexcept;
  for (const Crc crc32c : {Crc{util::crc32c}, Crc{util::crc32c_portable}}) {
    EXPECT_EQ(crc32c("123456789", 9, 0), 0xE3069283u);
    const std::vector<std::uint8_t> zeros(32, 0x00);
    EXPECT_EQ(crc32c(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    const std::vector<std::uint8_t> ones(32, 0xFF);
    EXPECT_EQ(crc32c(ones.data(), ones.size(), 0), 0x62A8AB43u);
    EXPECT_EQ(crc32c("", 0, 0), 0u);
  }
}

// --- the real filesystem -----------------------------------------------------

TEST(StdioFileSystem, WriteSyncReadRoundTrip) {
  TempDir tmp{"stdio"};
  auto& fsys = io::StdioFileSystem::instance();
  fsys.create_directories(tmp.path);
  const std::string path = tmp.path + "/file.bin";

  {
    auto f = fsys.open(path, io::OpenMode::kTruncate);
    ASSERT_EQ(f->write("hello ", 6), 6u);
    f->sync();
    ASSERT_EQ(f->write("world", 5), 5u);
    EXPECT_EQ(f->size(), 11u);
    f->close();
  }
  {
    auto f = fsys.open(path, io::OpenMode::kAppend);
    ASSERT_EQ(f->write("!", 1), 1u);
    f->close();
  }
  EXPECT_TRUE(fsys.exists(path));
  EXPECT_EQ(fsys.file_size(path), 12u);

  auto f = fsys.open(path, io::OpenMode::kRead);
  char buf[32] = {};
  EXPECT_EQ(f->read(buf, sizeof buf), 12u);
  EXPECT_EQ(std::string(buf, 12), "hello world!");
  f->seek(6);
  EXPECT_EQ(f->read(buf, 5), 5u);
  EXPECT_EQ(std::string(buf, 5), "world");

  fsys.truncate(path, 5);
  EXPECT_EQ(fsys.file_size(path), 5u);
  fsys.rename(path, tmp.path + "/renamed.bin");
  EXPECT_FALSE(fsys.exists(path));
  const auto names = fsys.list(tmp.path, "");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "renamed.bin");
  fsys.remove(tmp.path + "/renamed.bin");
  EXPECT_FALSE(fsys.exists(tmp.path + "/renamed.bin"));

  EXPECT_THROW(fsys.open(tmp.path + "/missing.bin", io::OpenMode::kRead),
               io::IoError);
}

// --- fault injection ---------------------------------------------------------

TEST(FaultyFileSystem, ShortWriteAndIoErrorAndSyncFailure) {
  TempDir tmp{"faulty_transients"};
  auto& real = io::StdioFileSystem::instance();
  real.create_directories(tmp.path);

  io::IoFaultPlan plan;
  plan.add(0, io::IoFaultKind::kShortWrite);   // op 0: first write torn
  plan.add(1, io::IoFaultKind::kIoError);      // op 1: second write -> EIO
  plan.add(2, io::IoFaultKind::kSyncFailure);  // op 2: sync -> EIO
  io::FaultyFileSystem ffs{real, plan, /*seed=*/7};

  const std::string path = tmp.path + "/t.bin";
  auto f = ffs.open(path, io::OpenMode::kTruncate);
  const std::string payload = "0123456789";
  const std::size_t n = f->write(payload.data(), payload.size());
  EXPECT_LT(n, payload.size());  // short write persisted only a prefix
  EXPECT_THROW(f->write(payload.data(), payload.size()), io::IoError);
  EXPECT_THROW(f->sync(), io::IoError);
  // After the scheduled faults are exhausted the file works normally.
  EXPECT_EQ(f->write(payload.data(), payload.size()), payload.size());
  f->sync();
  f->close();
  EXPECT_EQ(ffs.ops(), 5u);
  EXPECT_FALSE(ffs.dead());
  ASSERT_EQ(ffs.fired().size(), 3u);
  EXPECT_EQ(real.file_size(path), n + payload.size());
}

TEST(FaultyFileSystem, CrashKillsFilesystemAndRollsBackUnsyncedBytes) {
  TempDir tmp{"faulty_crash"};
  auto& real = io::StdioFileSystem::instance();
  real.create_directories(tmp.path);

  io::IoFaultPlan plan;
  plan.add(2, io::IoFaultKind::kCrash);  // ops: write, sync, then crash
  io::FaultyFileSystem ffs{real, plan, /*seed=*/99};

  const std::string path = tmp.path + "/c.bin";
  auto f = ffs.open(path, io::OpenMode::kTruncate);
  ASSERT_EQ(f->write("durable!", 8), 8u);
  f->sync();  // these 8 bytes are now behind the durability barrier
  EXPECT_THROW(f->write("doomed bytes", 12), io::SimulatedCrash);
  EXPECT_TRUE(ffs.dead());

  // Everything after the filesystem died throws SimulatedCrash, not IoError.
  EXPECT_THROW(f->write("x", 1), io::SimulatedCrash);
  EXPECT_THROW(f->sync(), io::SimulatedCrash);
  EXPECT_THROW(ffs.open(path, io::OpenMode::kRead), io::SimulatedCrash);
  EXPECT_THROW(ffs.remove(path), io::SimulatedCrash);

  // The synced prefix survived; un-synced bytes were fair game.
  const std::uint64_t size = real.file_size(path);
  EXPECT_GE(size, 8u);
  EXPECT_LE(size, 8u + 12u);
  std::ifstream is{path, std::ios::binary};
  std::string head(8, '\0');
  is.read(head.data(), 8);
  EXPECT_EQ(head, "durable!");
}

TEST(FaultyFileSystem, ChaosPlanIsSeedDeterministic) {
  const auto a = io::IoFaultPlan::chaos(42, 500, 0.05);
  const auto b = io::IoFaultPlan::chaos(42, 500, 0.05);
  const auto c = io::IoFaultPlan::chaos(43, 500, 0.05);
  ASSERT_EQ(a.faults().size(), b.faults().size());
  for (std::size_t i = 0; i < a.faults().size(); ++i) {
    EXPECT_EQ(a.faults()[i].op_index, b.faults()[i].op_index);
    EXPECT_EQ(a.faults()[i].kind, b.faults()[i].kind);
  }
  // Exactly one crash, and it terminates the plan.
  int crashes = 0;
  for (const auto& fault : a.faults()) {
    if (fault.kind == io::IoFaultKind::kCrash) ++crashes;
  }
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(a.faults().back().kind, io::IoFaultKind::kCrash);
  EXPECT_LT(a.faults().back().op_index, 500u);
  // Different seeds should not all land on the same schedule.
  EXPECT_TRUE(a.faults().size() != c.faults().size() ||
              a.faults().back().op_index != c.faults().back().op_index);
}

// --- record codec ------------------------------------------------------------

TEST(RecordCodec, RoundTripPreservesEveryField) {
  for (std::uint32_t i = 0; i < 32; ++i) {
    const HandoverRecord r = make_record(i % 5, i);
    std::vector<std::uint8_t> bytes;
    RecordLog::encode_record(r, bytes);
    ASSERT_EQ(bytes.size(), RecordLog::kRecordEncodedSize);
    const HandoverRecord back = RecordLog::decode_record(bytes);
    expect_record_eq(r, back, i);
  }
}

TEST(RecordCodec, RejectsWrongSize) {
  std::vector<std::uint8_t> bytes;
  RecordLog::encode_record(make_record(0, 0), bytes);
  bytes.pop_back();
  EXPECT_THROW(RecordLog::decode_record(bytes), std::runtime_error);
}

// --- record log --------------------------------------------------------------

RecordLog::Options small_log(const std::string& dir) {
  RecordLog::Options opt;
  opt.directory = dir;
  opt.max_segment_bytes = 2048;  // force frequent rolls
  opt.write_chunk_bytes = 64;
  return opt;
}

TEST(RecordLogTest, FreshLogThenCommitRoundTrip) {
  TempDir tmp{"log_fresh"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog log{real, small_log(tmp.path)};

  const LogRecoveryReport fresh = log.open();
  EXPECT_FALSE(fresh.log_existed);
  EXPECT_EQ(fresh.last_committed_day, -1);
  EXPECT_EQ(fresh.committed_records, 0u);
  EXPECT_EQ(fresh.dropped_bytes, 0u);
  EXPECT_TRUE(fresh.app_state.empty());

  std::vector<HandoverRecord> written;
  for (int day = 0; day < 3; ++day) {
    for (std::uint32_t i = 0; i < 20; ++i) {
      written.push_back(make_record(day, i));
      log.append(written.back());
    }
    EXPECT_EQ(log.buffered_records(), 20u);
    const std::vector<std::uint8_t> state = {std::uint8_t(0xAB), std::uint8_t(day)};
    log.commit_day(day, state);
    EXPECT_EQ(log.buffered_records(), 0u);
    EXPECT_EQ(log.last_committed_day(), day);
  }
  EXPECT_EQ(log.committed_records(), written.size());

  // Small segments -> the stream must span multiple files.
  EXPECT_GT(real.list(tmp.path, "wal-").size(), 1u);

  expect_identical(RecordLog::read_all(real, tmp.path), written);

  // Re-open finds a clean log: nothing dropped, marker state preserved.
  RecordLog again{real, small_log(tmp.path)};
  const LogRecoveryReport rep = again.open();
  EXPECT_TRUE(rep.log_existed);
  EXPECT_EQ(rep.last_committed_day, 2);
  EXPECT_EQ(rep.committed_records, written.size());
  EXPECT_EQ(rep.dropped_bytes, 0u);
  EXPECT_EQ(rep.dropped_records, 0u);
  ASSERT_EQ(rep.app_state.size(), 2u);
  EXPECT_EQ(rep.app_state[0], 0xAB);
  EXPECT_EQ(rep.app_state[1], 2);
}

TEST(RecordLogTest, ReplayDeliversDayBoundaries) {
  TempDir tmp{"log_replay"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog log{real, small_log(tmp.path)};
  log.open();
  for (int day = 0; day < 2; ++day) {
    for (std::uint32_t i = 0; i < 5; ++i) log.append(make_record(day, i));
    log.commit_day(day, {});
  }

  struct CountingSink final : telemetry::RecordSink {
    std::vector<HandoverRecord> records;
    std::vector<int> day_ends;
    void consume(const HandoverRecord& r) override { records.push_back(r); }
    void on_day_end(int day) override { day_ends.push_back(day); }
  } sink;
  EXPECT_EQ(RecordLog::replay(real, tmp.path, sink), 10u);
  EXPECT_EQ(sink.records.size(), 10u);
  ASSERT_EQ(sink.day_ends.size(), 2u);
  EXPECT_EQ(sink.day_ends[0], 0);
  EXPECT_EQ(sink.day_ends[1], 1);
}

TEST(RecordLogTest, MisuseThrows) {
  TempDir tmp{"log_misuse"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog log{real, small_log(tmp.path)};
  EXPECT_THROW(log.append(make_record(0, 0)), std::logic_error);
  EXPECT_THROW(log.commit_day(0, {}), std::logic_error);
  log.open();
  log.append(make_record(0, 0));
  log.commit_day(0, {});
  EXPECT_THROW(log.commit_day(0, {}), std::logic_error);  // not increasing
}

TEST(RecordLogTest, TornGarbageTailIsTruncatedAndReported) {
  TempDir tmp{"log_torn_garbage"};
  auto& real = io::StdioFileSystem::instance();
  std::vector<HandoverRecord> committed;
  {
    RecordLog log{real, small_log(tmp.path)};
    log.open();
    for (int day = 0; day < 2; ++day) {
      for (std::uint32_t i = 0; i < 4; ++i) {
        committed.push_back(make_record(day, i));
        log.append(committed.back());
      }
      log.commit_day(day, {});
    }
  }

  // A torn write: garbage lands after the last commit marker.
  const auto segments = real.list(tmp.path, "wal-");
  ASSERT_FALSE(segments.empty());
  const std::string tail = tmp.path + "/" + segments.back();
  const std::uint64_t clean_size = real.file_size(tail);
  {
    std::ofstream os{tail, std::ios::binary | std::ios::app};
    os.write("\x13\x37garbage-torn-tail", 19);
  }

  RecordLog log{real, small_log(tmp.path)};
  const LogRecoveryReport rep = log.open();
  EXPECT_EQ(rep.last_committed_day, 1);
  EXPECT_EQ(rep.committed_records, committed.size());
  EXPECT_EQ(rep.dropped_bytes, 19u);
  EXPECT_EQ(rep.dropped_records, 0u);
  EXPECT_EQ(real.file_size(tail), clean_size);  // truncated back exactly
  expect_identical(RecordLog::read_all(real, tmp.path), committed);

  // The re-armed log keeps committing where it left off.
  log.append(make_record(2, 0));
  log.commit_day(2, {});
  EXPECT_EQ(RecordLog::read_all(real, tmp.path).size(), committed.size() + 1);
}

TEST(RecordLogTest, UncommittedRecordFramesAreCountedAsDropped) {
  TempDir tmp{"log_torn_frames"};
  auto& real = io::StdioFileSystem::instance();
  std::vector<HandoverRecord> committed;
  {
    RecordLog log{real, small_log(tmp.path)};
    log.open();
    for (std::uint32_t i = 0; i < 3; ++i) {
      committed.push_back(make_record(0, i));
      log.append(committed.back());
    }
    log.commit_day(0, {});
  }

  // Hand-craft three VALID record frames after the marker — a commit that
  // died between writing its records and its day marker.
  const auto segments = real.list(tmp.path, "wal-");
  const std::string tail = tmp.path + "/" + segments.back();
  {
    std::vector<std::uint8_t> torn;
    for (std::uint32_t i = 0; i < 3; ++i) {
      std::vector<std::uint8_t> payload;
      RecordLog::encode_record(make_record(1, i), payload);
      const auto put32 = [&torn](std::uint32_t x) {
        torn.push_back(static_cast<std::uint8_t>(x));
        torn.push_back(static_cast<std::uint8_t>(x >> 8));
        torn.push_back(static_cast<std::uint8_t>(x >> 16));
        torn.push_back(static_cast<std::uint8_t>(x >> 24));
      };
      put32(static_cast<std::uint32_t>(payload.size()));
      std::uint32_t crc = util::crc32c("\x01", 1);  // kRecordFrame type byte
      crc = util::crc32c(payload.data(), payload.size(), crc);
      put32(util::mask_crc32c(crc));
      torn.push_back(RecordLog::kRecordFrame);
      torn.insert(torn.end(), payload.begin(), payload.end());
    }
    std::ofstream os{tail, std::ios::binary | std::ios::app};
    os.write(reinterpret_cast<const char*>(torn.data()),
             static_cast<std::streamsize>(torn.size()));
  }

  RecordLog log{real, small_log(tmp.path)};
  const LogRecoveryReport rep = log.open();
  EXPECT_EQ(rep.last_committed_day, 0);
  EXPECT_EQ(rep.committed_records, 3u);
  EXPECT_EQ(rep.dropped_records, 3u);  // complete but uncommitted frames
  EXPECT_EQ(rep.dropped_bytes,
            3u * (RecordLog::kFrameHeaderSize + RecordLog::kRecordEncodedSize));
  expect_identical(RecordLog::read_all(real, tmp.path), committed);
}

TEST(RecordLogTest, BitFlipInvalidatesEverythingFromTheFlippedFrame) {
  TempDir tmp{"log_bitflip"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = tmp.path;  // default (large) segments: one file
  {
    RecordLog log{real, opt};
    log.open();
    for (std::uint32_t i = 0; i < 8; ++i) log.append(make_record(0, i));
    log.commit_day(0, {});
    for (std::uint32_t i = 0; i < 8; ++i) log.append(make_record(1, i));
    log.commit_day(1, {});
  }
  const std::string seg0 = tmp.path + "/" + RecordLog::segment_name(0);
  auto bytes = slurp(seg0);

  // Flip one bit inside the first record frame of day 1 (just past day 0's
  // marker). Recovery must fall back to the day-0 marker.
  const std::size_t day0_bytes =
      RecordLog::kSegmentHeaderSize +
      8 * (RecordLog::kFrameHeaderSize + RecordLog::kRecordEncodedSize) +
      RecordLog::kFrameHeaderSize + 24;  // marker payload without app state
  ASSERT_LT(day0_bytes + 12, bytes.size());
  bytes[day0_bytes + 12] ^= 0x40;
  spit(seg0, bytes);

  RecordLog log{real, opt};
  const LogRecoveryReport rep = log.open();
  EXPECT_EQ(rep.last_committed_day, 0);
  EXPECT_EQ(rep.committed_records, 8u);
  EXPECT_GT(rep.dropped_bytes, 0u);
  EXPECT_EQ(RecordLog::read_all(real, tmp.path).size(), 8u);
}

TEST(RecordLogTest, FullyCorruptFirstSegmentRecoversToEmptyLog) {
  TempDir tmp{"log_corrupt_head"};
  auto& real = io::StdioFileSystem::instance();
  {
    RecordLog log{real, small_log(tmp.path)};
    log.open();
    log.append(make_record(0, 0));
    log.commit_day(0, {});
  }
  // Destroy the segment header itself: no committed prefix survives.
  const std::string seg0 = tmp.path + "/" + RecordLog::segment_name(0);
  auto bytes = slurp(seg0);
  bytes[0] ^= 0xFF;
  spit(seg0, bytes);

  RecordLog log{real, small_log(tmp.path)};
  const LogRecoveryReport rep = log.open();
  EXPECT_TRUE(rep.log_existed);
  EXPECT_EQ(rep.last_committed_day, -1);
  EXPECT_EQ(rep.committed_records, 0u);
  EXPECT_GT(rep.dropped_bytes, 0u);
  EXPECT_TRUE(RecordLog::read_all(real, tmp.path).empty());
  // And the log is usable again from scratch.
  log.append(make_record(0, 0));
  log.commit_day(0, {});
  EXPECT_EQ(RecordLog::read_all(real, tmp.path).size(), 1u);
}

/// A CRC-valid day-marker frame with no app state, as the writer frames one.
std::vector<std::uint8_t> marker_frame(int day, std::uint64_t in_day,
                                       std::uint64_t total) {
  const auto put = [](std::vector<std::uint8_t>& out, std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  std::vector<std::uint8_t> payload;
  put(payload, static_cast<std::uint32_t>(day), 4);
  put(payload, in_day, 8);
  put(payload, total, 8);
  put(payload, 0, 4);  // app state length
  const std::uint8_t type = RecordLog::kDayMarkerFrame;
  std::uint32_t crc = util::crc32c(&type, 1);
  crc = util::crc32c(payload.data(), payload.size(), crc);
  std::vector<std::uint8_t> frame;
  put(frame, payload.size(), 4);
  put(frame, util::mask_crc32c(crc), 4);
  frame.push_back(type);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

TEST(RecordLogTest, RegressingDayMarkerIsCorruptionForRecoveryAndReplay) {
  TempDir tmp{"log_day_regress"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = tmp.path;  // default (large) segments: one file
  {
    RecordLog log{real, opt};
    log.open();
    for (int day = 0; day < 2; ++day) {
      for (std::uint32_t i = 0; i < 4; ++i) log.append(make_record(day, i));
      log.commit_day(day, {});
    }
  }
  // CRC-valid markers for day 1 again and then day 0: their counts and
  // totals agree with the frames, only the days run backwards.
  const std::string seg0 = tmp.path + "/" + RecordLog::segment_name(0);
  auto bytes = slurp(seg0);
  for (const int day : {1, 0}) {
    const auto frame = marker_frame(day, 0, 8);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  spit(seg0, bytes);

  struct DaySink final : telemetry::RecordSink {
    std::vector<int> days;
    void consume(const HandoverRecord&) override {}
    void on_day_end(int day) override { days.push_back(day); }
  };
  // Replay delivers the days before the regression, then refuses it.
  DaySink replayed;
  EXPECT_THROW(RecordLog::replay(real, tmp.path, replayed), io::IoError);
  EXPECT_EQ(replayed.days, (std::vector<int>{0, 1}));

  // Recovery refuses it too, rather than adopting day 0 as the last commit
  // and letting the writer commit day 1 a second time.
  RecordLog log{real, opt};
  EXPECT_THROW(log.open(), io::IoError);
  EXPECT_FALSE(log.is_open());
  EXPECT_EQ(slurp(seg0), bytes);  // nothing truncated

  // The same verdict as tail-follow and the scrubber's audit.
  telemetry::LogCursor cursor;
  DaySink followed;
  EXPECT_THROW(RecordLog::follow(real, tmp.path, cursor, followed), io::IoError);
  const telemetry::SegmentAudit audit = telemetry::audit_segment(real, seg0, 0);
  ASSERT_TRUE(audit.has_defect);
  EXPECT_EQ(audit.defect, telemetry::DefectClass::kMarkerMismatch);
}

TEST(RecordLogTest, WriterMemoryIsBoundedByTheWriteChunk) {
  // The open day streams to its segment a chunk at a time, so the writer's
  // staging (the "wal_day_buffer" account) stays one chunk plus one frame
  // however long the day runs.
  TempDir tmp{"log_bounded"};
  auto& real = io::StdioFileSystem::instance();
  govern::MemoryBudget budget;  // budget 0: accounting only
  govern::ScopedGlobalGovernor install{&budget};
  govern::Accountant staging = budget.accountant("wal_day_buffer");
  // An empty fault plan: the decorator only counts writes on the seam.
  io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};
  RecordLog::Options opt;
  opt.directory = tmp.path;
  opt.write_chunk_bytes = 4096;
  RecordLog log{ffs, opt};
  log.open();

  constexpr std::uint32_t kRecords = 20'000;  // 1.16 MB of frames
  const std::uint64_t bound = 2 * (opt.write_chunk_bytes + RecordLog::kRecordFrameSize);
  const std::uint64_t ops_before = ffs.ops();
  std::uint64_t peak = 0;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    log.append(make_record(0, i));
    peak = std::max(peak, staging.bytes());
    ASSERT_LE(staging.bytes(), bound) << "after record " << i;
  }
  EXPECT_GT(peak, 0u);  // the staging buffer is accounted
  EXPECT_EQ(log.buffered_records(), kRecords);
  // Before its commit, every full chunk of the day went to the segment.
  EXPECT_EQ(ffs.ops() - ops_before,
            kRecords * RecordLog::kRecordFrameSize / opt.write_chunk_bytes);

  // The commit adds the last partial chunk (with the marker) and one sync.
  // The chaos harness schedules faults by seam-op index, so the streamed
  // day's writeback (started below the seam) must add no op here.
  const std::uint64_t ops_before_commit = ffs.ops();
  log.commit_day(0, {});
  EXPECT_EQ(ffs.ops() - ops_before_commit, 2u);
  EXPECT_LE(staging.bytes(), bound);
  const std::vector<HandoverRecord> back = RecordLog::read_all(real, tmp.path);
  ASSERT_EQ(back.size(), kRecords);
  for (std::uint32_t i = 0; i < kRecords; i += 997) {
    expect_record_eq(back[i], make_record(0, i), i);
  }
}

TEST(RecordLogTest, DiscardedStreamedDayIsTruncatedBeforeTheNextWrite) {
  auto& real = io::StdioFileSystem::instance();
  struct Shape {
    std::uint32_t records;
    std::size_t chunk;
  };
  // Short days in tiny chunks; and days past the file's 1 MiB writeback
  // hint in 64 KiB chunks, whose discarded bytes were already handed to
  // the kernel's writeback when the next write cuts them.
  constexpr Shape kShort{40, 64};          // 2,320 bytes: 36 chunks of 64
  constexpr Shape kLong{20'000, 1 << 16};  // 1.16 MB: 17 chunks of 64 KiB
  const auto options = [](const std::string& dir, const Shape& shape) {
    RecordLog::Options opt;
    opt.directory = dir;
    opt.write_chunk_bytes = shape.chunk;
    return opt;
  };
  const auto append_day = [](RecordLog& log, int day, const Shape& shape) {
    for (std::uint32_t i = 0; i < shape.records; ++i) log.append(make_record(day, i));
  };

  // Arm 1: day 1 streams, is discarded, then runs again and commits; the
  // oracle runs the same two days, never discarded.
  for (const Shape& shape : {kShort, kLong}) {
    SCOPED_TRACE(shape.records);
    TempDir ref{"log_discard_ref"};
    {
      RecordLog log{real, options(ref.path, shape)};
      log.open();
      append_day(log, 0, shape);
      log.commit_day(0, {});
      append_day(log, 1, shape);
      log.commit_day(1, {});
    }
    TempDir tmp{"log_discard"};
    {
      io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};  // counts writes only
      RecordLog log{ffs, options(tmp.path, shape)};
      log.open();
      append_day(log, 0, shape);
      log.commit_day(0, {});
      const std::uint64_t ops_before = ffs.ops();
      append_day(log, 1, shape);
      ASSERT_EQ(ffs.ops() - ops_before,
                shape.records * RecordLog::kRecordFrameSize / shape.chunk);
      log.discard_day();
      EXPECT_EQ(log.buffered_records(), 0u);
      append_day(log, 1, shape);
      log.commit_day(1, {});
    }
    const std::string got = log_bytes(tmp.path);
    const std::string want = log_bytes(ref.path);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want) << "first difference at byte "
                             << std::mismatch(got.begin(), got.end(), want.begin()).first -
                                    got.begin();
  }

  // Arm 2: the log closes after the discard; recovery drops the tail.
  TempDir closed{"log_discard_closed"};
  {
    RecordLog log{real, options(closed.path, kShort)};
    log.open();
    append_day(log, 0, kShort);
    log.commit_day(0, {});
    append_day(log, 1, kShort);
    log.discard_day();
  }
  RecordLog log{real, options(closed.path, kShort)};
  const LogRecoveryReport rep = log.open();
  EXPECT_EQ(rep.last_committed_day, 0);
  EXPECT_EQ(rep.committed_records, kShort.records);
  EXPECT_GT(rep.dropped_records, 0u);
  struct DaySink final : telemetry::RecordSink {
    std::uint64_t records = 0;
    std::vector<int> days;
    void consume(const HandoverRecord&) override { ++records; }
    void on_day_end(int day) override { days.push_back(day); }
  } replayed;
  EXPECT_EQ(RecordLog::replay(real, closed.path, replayed), kShort.records);
  EXPECT_EQ(replayed.records, kShort.records);
  EXPECT_EQ(replayed.days, std::vector<int>{0});
}

// --- the block reader against a plain frame walk ----------------------------

/// Read-only files held in memory, whose reads return at most `max_read`
/// bytes at a time: a reader must take a short read as "read on", and only
/// a read that returns nothing as the end of the file.
class MemoryFileSystem final : public io::FileSystem {
 public:
  explicit MemoryFileSystem(std::size_t max_read) : max_read_(max_read) {}

  std::map<std::string, std::vector<std::uint8_t>> files;

  std::unique_ptr<io::File> open(const std::string& path, io::OpenMode mode) override {
    if (mode != io::OpenMode::kRead || files.count(path) == 0) unsupported(path);
    return std::make_unique<Reader>(files.at(path), max_read_);
  }
  bool exists(const std::string& path) override { return files.count(path) > 0; }
  std::uint64_t file_size(const std::string& path) override {
    if (files.count(path) == 0) unsupported(path);
    return files.at(path).size();
  }
  void rename(const std::string& from, const std::string&) override { unsupported(from); }
  void remove(const std::string& path) override { unsupported(path); }
  void truncate(const std::string& path, std::uint64_t) override { unsupported(path); }
  void create_directories(const std::string& path) override { unsupported(path); }
  std::vector<std::string> list(const std::string& dir, const std::string&) override {
    unsupported(dir);
  }

 private:
  [[noreturn]] static void unsupported(const std::string& what) {
    throw io::IoError{"MemoryFileSystem: read-only, cannot serve " + what};
  }

  struct Reader final : io::File {
    Reader(const std::vector<std::uint8_t>& bytes, std::size_t max_read)
        : bytes(bytes), max_read(max_read) {}
    std::size_t read(void* data, std::size_t size) override {
      const std::size_t n = std::min({size, max_read, bytes.size() - pos});
      if (n > 0) std::memcpy(data, bytes.data() + pos, n);
      pos += n;
      return n;
    }
    void seek(std::uint64_t offset) override {
      pos = std::min<std::size_t>(offset, bytes.size());
    }
    std::uint64_t size() override { return bytes.size(); }
    std::size_t write(const void*, std::size_t) override { unsupported("a write"); }
    void flush() override {}
    void sync() override {}
    void close() override {}

    const std::vector<std::uint8_t>& bytes;
    const std::size_t max_read;
    std::size_t pos = 0;
  };

  std::size_t max_read_;
};

/// What a plain walk over a segment's bytes finds.
struct SegmentWalk {
  struct Frame {
    std::uint64_t offset = 0;
    std::uint8_t type = 0;
    std::uint32_t len = 0;
  };
  std::vector<Frame> frames;
  std::optional<telemetry::SegmentStop> stop;
};

/// The frame format walked one frame after another over a whole segment in
/// memory, from `offset` (0: check the segment header first): the oracle
/// the block reader must agree with, frame for frame and stop for stop.
SegmentWalk walk_segment(std::span<const std::uint8_t> b, std::uint32_t index,
                         std::uint64_t offset, telemetry::MarkerAnchor anchor) {
  using telemetry::DefectClass;
  SegmentWalk w;
  const std::uint64_t size = b.size();
  const auto stop = [&w](DefectClass reason, std::uint64_t at, std::uint64_t length) {
    w.stop = telemetry::SegmentStop{reason, at, length};
    return w;
  };
  constexpr std::uint64_t kHeader = RecordLog::kFrameHeaderSize;
  if (offset > size) return stop(DefectClass::kTruncatedFrame, size, 0);
  if (offset == 0) {
    if (size < RecordLog::kSegmentHeaderSize) {
      return stop(DefectClass::kTruncatedFrame, 0, size);
    }
    if (std::memcmp(b.data(), RecordLog::kMagic, sizeof RecordLog::kMagic) != 0 ||
        util::get_u32(b.data() + 8) != index ||
        util::unmask_crc32c(util::get_u32(b.data() + 12)) != util::crc32c(b.data(), 12)) {
      return stop(DefectClass::kBadSegmentHeader, 0, RecordLog::kSegmentHeaderSize);
    }
    offset = RecordLog::kSegmentHeaderSize;
  }
  std::uint64_t at = offset, marker_end = offset, records = 0;
  for (; at < size; at += kHeader + w.frames.back().len) {
    if (at + kHeader > size) return stop(DefectClass::kTruncatedFrame, at, size - at);
    const std::uint8_t* f = b.data() + at;
    const std::uint32_t len = util::get_u32(f);
    if (len > (1u << 28)) return stop(DefectClass::kBadFrameStructure, at, kHeader);
    if (at + kHeader + len > size) return stop(DefectClass::kTruncatedFrame, at, size - at);
    if (util::unmask_crc32c(util::get_u32(f + 4)) != util::crc32c(f + 8, 1 + len)) {
      return stop(DefectClass::kBadFrameCrc, at, kHeader + len);
    }
    const std::uint8_t* p = f + kHeader;
    if (f[8] == RecordLog::kRecordFrame && len == RecordLog::kRecordEncodedSize) {
      ++records;
    } else if (f[8] == RecordLog::kDayMarkerFrame && len >= 24 &&
               len == 24 + std::uint64_t{util::get_u32(p + 20)}) {
      const telemetry::DayMarker marker{static_cast<int>(util::get_u32(p)),
                                        util::get_u64(p + 4), util::get_u64(p + 12), {}};
      if (!anchor.admits(marker, records)) {
        return stop(DefectClass::kMarkerMismatch, at, kHeader + len);
      }
      anchor = telemetry::MarkerAnchor{marker.day, marker.total, true};
      records = 0;
      marker_end = at + kHeader + len;
    } else {
      return stop(DefectClass::kBadFrameStructure, at, kHeader + len);
    }
    w.frames.push_back({at, f[8], len});
  }
  if (records > 0) return stop(DefectClass::kNoSealMarker, marker_end, size - marker_end);
  return w;
}

/// A SegmentReader over `path` on `fs` yields what walk_segment finds in
/// `bytes`, the file's contents: the same frames with the same payloads,
/// and the same stop. `what` and `at` name the case in a failure. Returns
/// the reader's anchor at its end.
telemetry::MarkerAnchor expect_reader_matches_walk(io::FileSystem& fs, const std::string& path,
                                                   std::span<const std::uint8_t> bytes,
                                                   std::uint32_t index, std::uint64_t offset,
                                                   telemetry::MarkerAnchor anchor,
                                                   const char* what, std::uint64_t at) {
  const SegmentWalk walk = walk_segment(bytes, index, offset, anchor);
  telemetry::SegmentReader reader{fs, path, index, offset, anchor};
  std::size_t k = 0;
  while (reader.next()) {
    if (k == walk.frames.size()) {
      ADD_FAILURE() << what << " " << at << ": the reader yields a frame the walk does not, at "
                    << reader.position();
      return reader.anchor();
    }
    const SegmentWalk::Frame& f = walk.frames[k++];
    const std::uint64_t payload_at = f.offset + RecordLog::kFrameHeaderSize;
    const std::span<const std::uint8_t> payload = reader.payload();
    const bool same = reader.position() == payload_at + f.len &&
                      reader.is_marker() == (f.type == RecordLog::kDayMarkerFrame) &&
                      payload.size() == f.len &&
                      std::equal(payload.begin(), payload.end(),
                                 bytes.begin() + static_cast<std::ptrdiff_t>(payload_at));
    if (!same) {
      ADD_FAILURE() << what << " " << at << ": frame " << k - 1 << " at " << f.offset
                    << " differs";
      return reader.anchor();
    }
  }
  EXPECT_EQ(k, walk.frames.size()) << what << " " << at;
  EXPECT_EQ(reader.stop().has_value(), walk.stop.has_value()) << what << " " << at;
  if (reader.stop() && walk.stop) {
    EXPECT_EQ(reader.stop()->reason, walk.stop->reason) << what << " " << at;
    EXPECT_EQ(reader.stop()->offset, walk.stop->offset) << what << " " << at;
    EXPECT_EQ(reader.stop()->length, walk.stop->length) << what << " " << at;
  }
  return reader.anchor();
}

TEST(SegmentReaderTest, BlocksYieldWhatAPlainFrameWalkYieldsAtEveryCutAndFlip) {
  TempDir tmp{"reader_blocks"};
  auto& real = io::StdioFileSystem::instance();
  // Days of 600 records (34,833 bytes) against a 68 KiB roll threshold: the
  // two sealed segments hold two days each and run past the 64 KiB block
  // edge, and the tail's one day ends in a marker whose app state is larger
  // than a block.
  {
    RecordLog::Options opt;
    opt.directory = tmp.path;
    opt.max_segment_bytes = 68 * 1024;
    RecordLog log{real, opt};
    log.open();
    for (int day = 0; day < 4; ++day) {
      for (std::uint32_t i = 0; i < 600; ++i) log.append(make_record(day, i));
      log.commit_day(day, {});
    }
    for (std::uint32_t i = 0; i < 10; ++i) log.append(make_record(4, i));
    std::vector<std::uint8_t> state(RecordLog::kIoBlockBytes + 1000);
    for (std::size_t i = 0; i < state.size(); ++i) {
      state[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    log.commit_day(4, state);
  }
  const std::vector<std::string> names = real.list(tmp.path, "wal-");
  ASSERT_EQ(names.size(), 3u);
  std::vector<std::string> paths;
  for (const std::string& name : names) paths.push_back(tmp.path + "/" + name);

  // The premise: a record frame straddles the block edge of a sealed
  // segment, and the tail's marker is larger than a block.
  const std::vector<std::uint8_t> sealed = io::read_file(real, paths[0]);
  const SegmentWalk sealed_walk = walk_segment(sealed, 0, 0, {-1, 0, true});
  ASSERT_FALSE(sealed_walk.stop.has_value());
  ASSERT_TRUE(std::any_of(sealed_walk.frames.begin(), sealed_walk.frames.end(),
                          [](const SegmentWalk::Frame& f) {
                            return f.type == RecordLog::kRecordFrame &&
                                   f.offset < RecordLog::kIoBlockBytes &&
                                   f.offset + RecordLog::kRecordFrameSize >
                                       RecordLog::kIoBlockBytes;
                          }));
  const std::vector<std::uint8_t> tail = io::read_file(real, paths[2]);
  const SegmentWalk tail_walk = walk_segment(tail, 2, 0, {3, 2400, true});
  ASSERT_FALSE(tail_walk.stop.has_value());
  ASSERT_GT(tail_walk.frames.back().len, RecordLog::kIoBlockBytes);

  // The whole chain, on the real filesystem and on one whose reads return
  // 7 bytes at a time, from each segment's start and from each marker.
  MemoryFileSystem dribble{7};
  for (const std::string& path : paths) dribble.files[path] = io::read_file(real, path);
  for (io::FileSystem* fs : {static_cast<io::FileSystem*>(&real),
                             static_cast<io::FileSystem*>(&dribble)}) {
    telemetry::MarkerAnchor anchor{-1, 0, true};
    for (std::uint32_t index = 0; index < paths.size(); ++index) {
      const std::vector<std::uint8_t> bytes = io::read_file(*fs, paths[index]);
      telemetry::MarkerAnchor resumed = anchor;
      for (const SegmentWalk::Frame& f : walk_segment(bytes, index, 0, anchor).frames) {
        if (f.type != RecordLog::kDayMarkerFrame) continue;
        const std::uint8_t* p = bytes.data() + f.offset + RecordLog::kFrameHeaderSize;
        resumed = {static_cast<int>(util::get_u32(p)), util::get_u64(p + 12), true};
        expect_reader_matches_walk(*fs, paths[index], bytes, index,
                                   f.offset + RecordLog::kFrameHeaderSize + f.len, resumed,
                                   "resumed in segment", index);
      }
      anchor = expect_reader_matches_walk(*fs, paths[index], bytes, index, 0, anchor,
                                          "segment", index);
      EXPECT_EQ(anchor.day, resumed.day);
    }
  }
  ASSERT_FALSE(HasFailure());

  // Every cut of the tail segment, and every flipped byte of a sealed one,
  // read in blocks through reads of at most 4,099 bytes. The walk runs over
  // the bytes the file holds, which is what io::read_file returns.
  MemoryFileSystem mem{4099};
  std::vector<std::uint8_t>& cut = mem.files[paths[2]] = tail;
  for (std::size_t len = tail.size(); len-- > 0 && !HasFailure();) {
    cut.resize(len);
    expect_reader_matches_walk(mem, paths[2], cut, 2, 0, {3, 2400, true}, "tail cut to", len);
  }
  std::vector<std::uint8_t>& flipped = mem.files[paths[0]] = sealed;
  for (std::size_t at = 0; at < sealed.size() && !HasFailure(); ++at) {
    flipped[at] ^= 0xFF;
    expect_reader_matches_walk(mem, paths[0], flipped, 0, 0, {-1, 0, true},
                               "sealed segment with a flipped byte at", at);
    flipped[at] ^= 0xFF;
  }
}

// --- binary checkpoint codec -------------------------------------------------

DayCheckpoint sample_checkpoint() {
  DayCheckpoint cp;
  cp.next_day = 17;
  cp.seed = 0xDEADBEEFCAFEF00DULL;
  cp.records_emitted = 123'456'789;
  std::uint64_t n = 1;
  for (const auto region : geo::kAllRegions) {
    auto& mme = cp.core.mme(region);
    mme.handovers.procedures = n++;
    mme.handovers.successes = n++;
    mme.handovers.failures = n++;
    mme.path_switches.procedures = n++;
    mme.path_switches.successes = n++;
    mme.path_switches.failures = n++;
    auto& sgsn = cp.core.sgsn(region);
    sgsn.relocations.procedures = n++;
    sgsn.relocations.successes = n++;
    sgsn.relocations.failures = n++;
    auto& msc = cp.core.msc(region);
    msc.srvcc.procedures = n++;
    msc.srvcc.successes = n++;
    msc.srvcc.failures = n++;
    cp.core.sgw(region).bearer_modifications = n++;
  }
  return cp;
}

TEST(CheckpointCodec, RoundTrip) {
  const DayCheckpoint cp = sample_checkpoint();
  const auto bytes = core::encode_checkpoint(cp);
  const DayCheckpoint back = core::decode_checkpoint(bytes);
  EXPECT_EQ(back.next_day, cp.next_day);
  EXPECT_EQ(back.seed, cp.seed);
  EXPECT_EQ(back.records_emitted, cp.records_emitted);
  for (const auto region : geo::kAllRegions) {
    EXPECT_EQ(back.core.mme(region).handovers.procedures,
              cp.core.mme(region).handovers.procedures);
    EXPECT_EQ(back.core.mme(region).path_switches.failures,
              cp.core.mme(region).path_switches.failures);
    EXPECT_EQ(back.core.sgsn(region).relocations.successes,
              cp.core.sgsn(region).relocations.successes);
    EXPECT_EQ(back.core.msc(region).srvcc.procedures,
              cp.core.msc(region).srvcc.procedures);
    EXPECT_EQ(back.core.sgw(region).bearer_modifications,
              cp.core.sgw(region).bearer_modifications);
  }
}

TEST(CheckpointCodec, RejectsTruncationAndBitFlips) {
  const auto bytes = core::encode_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(core::decode_checkpoint(cut), std::runtime_error)
        << "truncated to " << len;
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto flipped = bytes;
    flipped[i] ^= 0x01;
    EXPECT_THROW(core::decode_checkpoint(flipped), std::runtime_error)
        << "bit flip at " << i;
  }
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_THROW(core::decode_checkpoint(extended), std::runtime_error);
}

// --- atomic file replacement --------------------------------------------------

TEST(WriteFileAtomic, ReplacesAnExistingFileAndLeavesNoTemp) {
  TempDir tmp{"write_atomic"};
  fs::create_directories(tmp.path);
  const std::string path = tmp.path + "/state.bin";
  auto& real = io::StdioFileSystem::instance();

  const std::vector<std::uint8_t> first = {1, 2, 3, 4, 5, 6, 7, 8};
  io::write_file_atomic(real, path, first);
  EXPECT_EQ(io::read_file(real, path), first);
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // A shorter image replaces the longer one whole: no tail of the old bytes.
  const std::vector<std::uint8_t> second = {9, 10, 11};
  io::write_file_atomic(real, path, second);
  EXPECT_EQ(io::read_file(real, path), second);
  EXPECT_EQ(slurp(path), second);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// --- simulator + durable log -------------------------------------------------

TEST(SimulatorDurability, DurableRunMatchesPlainRunAndReplays) {
  const StudyConfig cfg = chaos_config();

  telemetry::SignalingDataset plain;
  Simulator reference{cfg};
  reference.add_sink(&plain);
  reference.run();

  TempDir tmp{"sim_durable"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = tmp.path;
  RecordLog log{real, opt};
  DurableRecordSink sink{log};
  Simulator sim{cfg};
  sim.attach_durable_log(&sink);
  sim.run();

  EXPECT_EQ(log.last_committed_day(), cfg.days - 1);
  EXPECT_EQ(log.committed_records(), plain.size());
  expect_identical(RecordLog::read_all(real, tmp.path),
                   {plain.records().begin(), plain.records().end()});

  // The last marker's embedded checkpoint is the end-of-study state.
  RecordLog reader{real, opt};
  const LogRecoveryReport rep = reader.open();
  const DayCheckpoint cp = core::decode_checkpoint(rep.app_state);
  EXPECT_EQ(cp.next_day, cfg.days);
  EXPECT_EQ(cp.seed, cfg.seed);
  EXPECT_EQ(cp.records_emitted, plain.size());

  // A fresh simulator attached to the finished log has nothing left to do.
  RecordLog done_log{real, opt};
  DurableRecordSink done_sink{done_log};
  Simulator done{cfg};
  done.attach_durable_log(&done_sink);
  done.run();
  EXPECT_EQ(done.next_day(), cfg.days);
  EXPECT_EQ(done_log.committed_records(), plain.size());
}

TEST(SimulatorDurability, ResumeFromLogRejectsMismatchedSeed) {
  TempDir tmp{"sim_seed_mismatch"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = tmp.path;

  StudyConfig cfg = chaos_config();
  {
    RecordLog log{real, opt};
    DurableRecordSink sink{log};
    Simulator sim{cfg};
    sim.attach_durable_log(&sink);
    sim.run();
  }
  StudyConfig other = cfg;
  other.seed ^= 0x5555;
  RecordLog log{real, opt};
  DurableRecordSink sink{log};
  Simulator sim{other};
  sim.attach_durable_log(&sink);
  EXPECT_THROW(sim.run(), std::runtime_error);
}

/// Sink that dies after consuming `budget` records (or, with budget < 0, in
/// on_day_end) — the "analysis plugin with a bug" failure mode.
class ExplodingSink final : public telemetry::RecordSink {
 public:
  explicit ExplodingSink(std::int64_t budget) : budget_(budget) {}

  void consume(const HandoverRecord&) override {
    if (budget_ >= 0 && consumed_++ >= budget_) {
      throw std::runtime_error{"sink exploded mid-day"};
    }
  }
  void on_day_end(int) override {
    if (budget_ < 0) throw std::runtime_error{"sink exploded at day end"};
  }

 private:
  std::int64_t budget_ = 0;
  std::int64_t consumed_ = 0;
};

TEST(SimulatorDurability, SinkThrowMidDayRollsBackAndReplaysExactlyOnce) {
  const StudyConfig cfg = chaos_config();

  telemetry::SignalingDataset clean;
  Simulator reference{cfg};
  reference.add_sink(&clean);
  reference.run();

  // Mid-day sink failure WITHOUT a durable log: the day must roll back
  // wholesale — cursor, record counter, core counters — so a retry replays
  // it exactly once instead of double-counting the partial emission.
  Simulator sim{cfg};
  ExplodingSink bomb{25};
  sim.add_sink(&bomb);
  EXPECT_THROW(sim.run_day(0), std::runtime_error);
  EXPECT_EQ(sim.next_day(), 0);
  EXPECT_EQ(sim.records_emitted(), 0u);
  EXPECT_EQ(sim.core_network().total_handovers(), 0u);
  sim.remove_sink(&bomb);

  telemetry::SignalingDataset replay;
  sim.add_sink(&replay);
  sim.run();
  EXPECT_EQ(sim.next_day(), cfg.days);
  expect_identical({replay.records().begin(), replay.records().end()},
                   {clean.records().begin(), clean.records().end()});
}

TEST(SimulatorDurability, RetriedDayKeepsOneMetricsRowPerUeDay) {
  const StudyConfig cfg = chaos_config();

  // Every row an uninterrupted run emits, in emission order.
  testing::MetricsLog clean;
  Simulator reference{cfg};
  reference.add_metrics_sink(&clean);
  reference.run();

  // The first attempt at day 0 dies mid-day after some UE-days' metrics
  // already reached the store; the retry emits them again.
  Simulator sim{cfg};
  telemetry::UeDayStore store;
  sim.add_metrics_sink(&store);
  ExplodingSink bomb{500};
  sim.add_sink(&bomb);
  EXPECT_THROW(sim.run_day(0), std::runtime_error);
  ASSERT_FALSE(store.rows().empty());
  sim.remove_sink(&bomb);
  sim.run();

  ASSERT_EQ(store.rows().size(), clean.rows().size());
  for (std::size_t i = 0; i < clean.rows().size(); ++i) {
    const auto& got = store.rows()[i];
    const auto& want = clean.rows()[i];
    EXPECT_EQ(got.ue, want.ue) << i;
    EXPECT_EQ(got.day, want.day) << i;
    EXPECT_EQ(got.handovers, want.handovers) << i;
    EXPECT_EQ(got.failures, want.failures) << i;
    EXPECT_EQ(got.distinct_sectors, want.distinct_sectors) << i;
    EXPECT_EQ(got.radius_of_gyration_km, want.radius_of_gyration_km) << i;
  }
}

TEST(SimulatorDurability, SinkThrowMidDayNeverCommitsAPartialDayToTheLog) {
  const StudyConfig cfg = chaos_config();
  auto& real = io::StdioFileSystem::instance();

  TempDir ref_dir{"sink_throw_ref"};
  RecordLog::Options ref_opt;
  ref_opt.directory = ref_dir.path;
  {
    RecordLog log{real, ref_opt};
    DurableRecordSink sink{log};
    Simulator reference{cfg};
    reference.attach_durable_log(&sink);
    reference.run();
  }
  const std::string ref_bytes = log_bytes(ref_dir.path);

  TempDir dir{"sink_throw"};
  RecordLog::Options opt;
  opt.directory = dir.path;

  // Phase 1: a buggy secondary sink kills day 0 mid-emission. The durable
  // buffer must be discarded with the rest of the day — nothing reached disk.
  {
    RecordLog log{real, opt};
    log.open();
    DurableRecordSink sink{log};
    Simulator sim{cfg};
    sim.attach_durable_log(&sink);
    ExplodingSink bomb{25};
    sim.add_sink(&bomb);
    EXPECT_THROW(sim.run_day(0), std::runtime_error);
    EXPECT_EQ(log.last_committed_day(), -1);
    EXPECT_EQ(sim.next_day(), 0);
    EXPECT_EQ(sim.records_emitted(), 0u);
  }
  EXPECT_TRUE(real.list(dir.path, "wal-").empty() ||
              RecordLog::read_all(real, dir.path).empty());

  // Phase 2: resume from the log; the interrupted day replays exactly once
  // and the final WAL is byte-identical to the never-interrupted run.
  {
    RecordLog log{real, opt};
    DurableRecordSink sink{log};
    Simulator sim{cfg};
    sim.attach_durable_log(&sink);
    sim.run();
    EXPECT_EQ(log.last_committed_day(), cfg.days - 1);
  }
  EXPECT_EQ(log_bytes(dir.path), ref_bytes);
}

TEST(SimulatorDurability, SinkThrowAfterDurableCommitDoesNotRollBack) {
  // The durable sink commits in registration order; a later sink throwing in
  // on_day_end finds the day already on disk — rolling back state would then
  // disagree with the log, so run_day must keep the completed day.
  const StudyConfig cfg = chaos_config();
  auto& real = io::StdioFileSystem::instance();

  TempDir ref_dir{"day_end_ref"};
  RecordLog::Options ref_opt;
  ref_opt.directory = ref_dir.path;
  {
    RecordLog log{real, ref_opt};
    DurableRecordSink sink{log};
    Simulator reference{cfg};
    reference.attach_durable_log(&sink);
    reference.run();
  }

  TempDir dir{"day_end"};
  RecordLog::Options opt;
  opt.directory = dir.path;
  {
    RecordLog log{real, opt};
    log.open();
    DurableRecordSink sink{log};
    Simulator sim{cfg};
    sim.attach_durable_log(&sink);  // registered first: commits first
    ExplodingSink bomb{-1};         // throws in on_day_end, after the commit
    sim.add_sink(&bomb);
    EXPECT_THROW(sim.run_day(0), std::runtime_error);
    EXPECT_EQ(log.last_committed_day(), 0);
    EXPECT_EQ(sim.next_day(), 1);  // the day is durable — no rollback
    sim.remove_sink(&bomb);
    sim.run();
  }
  EXPECT_EQ(log_bytes(dir.path), log_bytes(ref_dir.path));
}

// --- the chaos harness -------------------------------------------------------

int chaos_schedule_count() {
  if (const char* env = std::getenv("TL_CHAOS_SCHEDULES")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 100;
}

/// One complete study under a fault plan, resuming until it finishes.
/// Returns the number of injected crashes survived.
struct ChaosOutcome {
  int crashes = 0;
  int io_aborts = 0;
  int attempts = 0;
};

TEST(ChaosHarness, KillRecoverSchedulesYieldByteIdenticalStreams) {
  const StudyConfig cfg = chaos_config();
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.max_segment_bytes = 24 * 1024;  // several rolls per study
  opt.write_chunk_bytes = 1024;

  // The world build dominates cost; one simulator serves every schedule
  // (restore() resets all mutable state, exactly like a fresh process).
  Simulator sim{cfg};
  DayCheckpoint day0;
  day0.seed = cfg.seed;

  // Reference: an uninterrupted run through a fault-free decorated
  // filesystem. Its op count is the horizon crashes are drawn from; its
  // bytes and records are the oracle every chaotic schedule must reproduce.
  TempDir ref_dir{"chaos_ref"};
  std::uint64_t horizon = 0;
  {
    io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};
    RecordLog::Options ref_opt = opt;
    ref_opt.directory = ref_dir.path;
    RecordLog log{ffs, ref_opt};
    DurableRecordSink sink{log};
    log.open();
    sim.restore(day0);
    sim.attach_durable_log(&sink);
    sim.run();
    sim.remove_sink(&sink);
    horizon = ffs.ops();
  }
  const std::string ref_bytes = log_bytes(ref_dir.path);
  const std::vector<HandoverRecord> ref_records =
      RecordLog::read_all(real, ref_dir.path);
  ASSERT_GT(horizon, 20u);
  ASSERT_FALSE(ref_records.empty());
  ASSERT_GT(real.list(ref_dir.path, "wal-").size(), 1u);

  const int schedules = chaos_schedule_count();
  int total_crashes = 0;
  int total_io_aborts = 0;
  int multi_crash_schedules = 0;

  for (int schedule = 0; schedule < schedules; ++schedule) {
    TempDir dir{"chaos_" + std::to_string(schedule)};
    util::Rng meta = util::Rng::derive(0xC4A05ULL, static_cast<std::uint64_t>(schedule));
    ChaosOutcome outcome;
    bool complete = false;

    while (!complete) {
      ASSERT_LT(outcome.attempts, 64) << "schedule " << schedule << " livelocked";
      ++outcome.attempts;
      // Most attempts die at a seeded point (crashes can hit recovery I/O of
      // the NEXT attempt too, not just steady-state commits). Every third
      // schedule also suffers transient faults. A clean-retry chance bounds
      // the loop; the first attempt always carries the planned crash.
      io::IoFaultPlan plan;
      const bool clean = outcome.attempts > 1 && meta.chance(0.4);
      if (!clean) {
        const double transient_rate = (schedule % 3 == 0) ? 0.01 : 0.0;
        plan = io::IoFaultPlan::chaos(meta(), horizon + 8, transient_rate);
      }
      io::FaultyFileSystem ffs{real, plan, meta()};
      RecordLog::Options run_opt = opt;
      run_opt.directory = dir.path;
      RecordLog log{ffs, run_opt};
      DurableRecordSink sink{log};
      try {
        log.open();  // recovery itself runs under fault injection
        sim.restore(day0);
        sim.attach_durable_log(&sink);
        sim.run();
        complete = true;
      } catch (const io::SimulatedCrash&) {
        ++outcome.crashes;
      } catch (const io::IoError&) {
        ++outcome.io_aborts;  // transient EIO/fsync failure aborted a commit
      }
      sim.remove_sink(&sink);
    }

    total_crashes += outcome.crashes;
    total_io_aborts += outcome.io_aborts;
    if (outcome.crashes > 1) ++multi_crash_schedules;

    // Crash consistency: the recovered-and-resumed log is byte-identical to
    // the uninterrupted run — zero lost records, zero duplicates, identical
    // segment boundaries.
    ASSERT_EQ(log_bytes(dir.path), ref_bytes) << "schedule " << schedule;
    const auto records = RecordLog::read_all(real, dir.path);
    ASSERT_EQ(records.size(), ref_records.size()) << "schedule " << schedule;
    expect_identical(records, ref_records);
  }

  // The harness must actually have exercised crash paths, not just clean runs.
  EXPECT_GT(total_crashes, schedules / 2);
  EXPECT_GT(multi_crash_schedules, 0);
  RecordProperty("schedules", schedules);
  RecordProperty("crashes", total_crashes);
  RecordProperty("io_aborts", total_io_aborts);
}

TEST(ChaosHarness, ParallelRunsSurviveKillAndResumeByteIdentically) {
  // The strongest durability claim the parallel engine makes: a sharded run
  // killed mid-WAL and resumed (possibly at a different thread count) still
  // converges to the exact bytes of an uninterrupted SERIAL run — commit
  // markers, embedded checkpoints, and segment boundaries included. All log
  // I/O happens on the merge (caller) thread, so the WAL never observes
  // shard scheduling; this test is the end-to-end proof.
  const StudyConfig cfg = chaos_config();
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.max_segment_bytes = 24 * 1024;
  opt.write_chunk_bytes = 1024;

  Simulator sim{cfg};
  DayCheckpoint day0;
  day0.seed = cfg.seed;

  // Serial, fault-free reference — the oracle.
  TempDir ref_dir{"pchaos_ref"};
  std::uint64_t horizon = 0;
  {
    io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};
    RecordLog::Options ref_opt = opt;
    ref_opt.directory = ref_dir.path;
    RecordLog log{ffs, ref_opt};
    DurableRecordSink sink{log};
    log.open();
    sim.set_threads(1);
    sim.restore(day0);
    sim.attach_durable_log(&sink);
    sim.run();
    sim.remove_sink(&sink);
    horizon = ffs.ops();
  }
  const std::string ref_bytes = log_bytes(ref_dir.path);
  ASSERT_GT(horizon, 20u);

  // Fewer schedules than the serial harness: each parallel attempt costs the
  // same UE-day work plus pool scheduling, and the serial harness already
  // covers the fault-plan space densely. This pass targets the interaction.
  const int schedules = std::max(8, chaos_schedule_count() / 8);
  int total_crashes = 0;

  for (int schedule = 0; schedule < schedules; ++schedule) {
    TempDir dir{"pchaos_" + std::to_string(schedule)};
    util::Rng meta =
        util::Rng::derive(0x9A7A11E1ULL, static_cast<std::uint64_t>(schedule));
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
      DurableRecordSink sink{log};
      // Resume at a different worker count than the previous attempt died
      // at — the WAL must not care.
      sim.set_threads(2 + static_cast<unsigned>(meta.below(3)));  // 2..4
      try {
        log.open();
        sim.restore(day0);
        sim.attach_durable_log(&sink);
        sim.run();
        complete = true;
      } catch (const io::SimulatedCrash&) {
        ++total_crashes;
      } catch (const io::IoError&) {
        // transient fault aborted a commit; next attempt recovers
      }
      sim.remove_sink(&sink);
    }

    ASSERT_EQ(log_bytes(dir.path), ref_bytes) << "schedule " << schedule;
  }
  sim.set_threads(1);

  EXPECT_GT(total_crashes, schedules / 2);
  RecordProperty("schedules", schedules);
  RecordProperty("crashes", total_crashes);
}

}  // namespace
}  // namespace tl
