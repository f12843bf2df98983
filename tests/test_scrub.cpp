// Storage-integrity tests: scrub detection over sealed WAL segments (bit
// rot, truncation, marker arithmetic, mirror divergence), seal-time segment
// mirroring, read-repair from the surviving replica (byte-identity verified
// by CRC against a clean oracle, including across a crash mid-repair),
// certified quarantine with exact day/record accounting when both copies are
// damaged, retention x mirror lockstep, the WalTailer integration (loss
// ledger, checkpoint v2 round trip, deterministic scrub cadence), read-side
// fault injection semantics, and the seeded bit-rot chaos suite
// (TL_CHAOS_SCHEDULES elevates the schedule count in CI).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint_codec.hpp"
#include "core/simulator.hpp"
#include "io/faulty_file.hpp"
#include "io/file.hpp"
#include "serve/stream_aggregates.hpp"
#include "serve/wal_tailer.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/scrub.hpp"
#include "telemetry/sinks.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tl {
namespace {

using serve::StreamAggregates;
using serve::WalTailer;
using telemetry::DefectClass;
using telemetry::HandoverRecord;
using telemetry::IntegrityReport;
using telemetry::LogCursor;
using telemetry::LogIntegrity;
using telemetry::LogScrubber;
using telemetry::RecordLog;
using telemetry::RepairAction;
using telemetry::ScrubOptions;
using telemetry::ScrubReport;
using telemetry::SegmentAudit;
using telemetry::TailReadResult;
using telemetry::TailState;
using telemetry::audit_segment;

namespace stdfs = std::filesystem;

// --- helpers -----------------------------------------------------------------

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "tl_scrub_" + name) {
    stdfs::remove_all(path);
  }
  ~TempDir() { stdfs::remove_all(path); }
  std::string path;
};

/// Deterministic in (day, i) — identical to test_serve's generator so the
/// byte-identity arguments carry over.
HandoverRecord make_record(int day, std::uint32_t i) {
  HandoverRecord r;
  r.timestamp = static_cast<util::TimestampMs>(day) * util::kMsPerDay +
                500 * static_cast<util::TimestampMs>(i + 1);
  r.success = (i % 5) != 0;
  r.duration_ms = 25.0f + static_cast<float>((i * 7 + day) % 120);
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

void commit_days(RecordLog& log, int first, int count) {
  for (int day = first; day < first + count; ++day) {
    for (std::uint32_t i = 0; i < kPerDay; ++i) log.append(make_record(day, i));
    const std::vector<std::uint8_t> state{static_cast<std::uint8_t>(day), 0x5A};
    log.commit_day(day, state);
  }
}

/// A mirrored multi-segment WAL holding days [0, days). With 4 KiB segments
/// each day (~7 KiB of frames) seals its own segment, so the chain has
/// `days - 1` sealed+mirrored segments plus the active tail.
void build_mirrored_wal(const std::string& wal, const std::string& mirror,
                        int days, std::uint64_t max_segment_bytes = 4 * 1024) {
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = wal;
  opt.mirror_directory = mirror;
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

std::vector<std::uint8_t> make_marker_payload(int day, std::uint64_t in_day,
                                              std::uint64_t total) {
  std::vector<std::uint8_t> p;
  put_u32(p, static_cast<std::uint32_t>(day));
  put_u64(p, in_day);
  put_u64(p, total);
  put_u32(p, 0);  // no app state
  return p;
}

std::vector<std::uint8_t> segment_header(std::uint32_t index) {
  std::vector<std::uint8_t> h;
  h.insert(h.end(), RecordLog::kMagic, RecordLog::kMagic + sizeof RecordLog::kMagic);
  put_u32(h, index);
  put_u32(h, util::mask_crc32c(util::crc32c(h.data(), 12)));
  return h;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  stdfs::create_directories(stdfs::path(path).parent_path());
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

void append_to(std::vector<std::uint8_t>& out, const std::vector<std::uint8_t>& b) {
  out.insert(out.end(), b.begin(), b.end());
}

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

struct CollectingSink final : telemetry::RecordSink {
  std::vector<HandoverRecord> records;
  std::vector<int> days;
  void consume(const HandoverRecord& r) override { records.push_back(r); }
  void on_day_end(int day) override { days.push_back(day); }
};

std::uint32_t crc_of(const std::string& path) {
  return telemetry::file_crc32c(io::StdioFileSystem::instance(), path);
}

/// Per-file CRC oracle over a chain directory.
std::vector<std::pair<std::string, std::uint32_t>> chain_crcs(
    const std::string& dir) {
  auto& real = io::StdioFileSystem::instance();
  std::vector<std::pair<std::string, std::uint32_t>> out;
  for (const auto& name : real.list(dir, "wal-")) {
    out.emplace_back(name, crc_of(dir + "/" + name));
  }
  return out;
}

// --- seal-time mirroring -----------------------------------------------------

TEST(Mirroring, SealedSegmentsAreMirroredByteIdentical) {
  TempDir tmp{"mirror_seal"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 5);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  const auto mirrors = real.list(tmp.path + "/mirror", "wal-");
  ASSERT_GE(primaries.size(), 3u);
  // Every sealed segment has a byte-identical replica; the active tail has
  // none (it is still the writer's property).
  ASSERT_EQ(mirrors.size(), primaries.size() - 1);
  for (std::size_t i = 0; i + 1 < primaries.size(); ++i) {
    EXPECT_EQ(mirrors[i], primaries[i]);
    EXPECT_EQ(crc_of(tmp.path + "/mirror/" + mirrors[i]),
              crc_of(tmp.path + "/wal/" + primaries[i]))
        << primaries[i];
  }
  EXPECT_FALSE(real.exists(tmp.path + "/mirror/" + primaries.back()));
}

TEST(Mirroring, ReopenedWriterCatchesUpMissedMirrors) {
  TempDir tmp{"mirror_catchup"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 4);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  ASSERT_GE(primaries.size(), 3u);
  // Simulate a crash that lost a replica after the seal.
  real.remove(tmp.path + "/mirror/" + primaries[1]);

  RecordLog::Options opt;
  opt.directory = tmp.path + "/wal";
  opt.mirror_directory = tmp.path + "/mirror";
  opt.max_segment_bytes = 4 * 1024;
  RecordLog log{real, opt};
  log.open();  // integrity pass runs before recovery's scan
  EXPECT_TRUE(real.exists(tmp.path + "/mirror/" + primaries[1]));
  EXPECT_EQ(crc_of(tmp.path + "/mirror/" + primaries[1]),
            crc_of(tmp.path + "/wal/" + primaries[1]));
  EXPECT_EQ(log.committed_records(), 4u * kPerDay);
}

// --- scrub detection ---------------------------------------------------------

TEST(Scrub, CleanChainScrubsClean) {
  TempDir tmp{"clean"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 6);
  auto& real = io::StdioFileSystem::instance();
  LogScrubber scrubber{real, {tmp.path + "/wal", tmp.path + "/mirror"}};
  const ScrubReport report = scrubber.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.records_scanned, 6u * kPerDay);
  EXPECT_EQ(report.markers_scanned, 6u);
  EXPECT_EQ(report.first_day, 0);
  EXPECT_EQ(report.last_day, 5);
  EXPECT_EQ(report.tail_state, TailState::kClean);
  EXPECT_EQ(report.sealed_segments, report.segments_scanned - 1);
  EXPECT_EQ(report.mirror_segments_scanned, report.sealed_segments);
  EXPECT_EQ(report.tail_suspect_bytes, 0u);
}

TEST(Scrub, MissingDirectoryIsVacuouslyClean) {
  TempDir tmp{"no_chain"};
  auto& real = io::StdioFileSystem::instance();
  LogScrubber scrubber{real, {tmp.path + "/nope", ""}};
  const ScrubReport report = scrubber.run();
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(report.has_tail);
}

TEST(Scrub, DetectsSingleBitRotAnywhereInSealedSegment) {
  TempDir tmp{"detect_rot"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 4);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  ASSERT_GE(primaries.size(), 2u);
  const std::string victim = tmp.path + "/wal/" + primaries[0];
  const std::uint64_t size = real.file_size(victim);
  // Header, frame header, record payload, marker payload, and the very last
  // byte: every region of a sealed segment is CRC-covered.
  for (const std::uint64_t offset :
       {std::uint64_t{3}, std::uint64_t{17}, std::uint64_t{60}, size / 2,
        size - 1}) {
    const std::uint32_t before = crc_of(victim);
    io::inject_bit_rot(real, victim, offset, 0x10);
    LogScrubber scrubber{real, {tmp.path + "/wal", tmp.path + "/mirror"}};
    const ScrubReport report = scrubber.run();
    ASSERT_FALSE(report.clean()) << "offset " << offset;
    EXPECT_EQ(report.defects[0].segment, 0u);
    EXPECT_FALSE(report.defects[0].in_mirror);
    io::inject_bit_rot(real, victim, offset, 0x10);  // XOR back to clean
    EXPECT_EQ(crc_of(victim), before);
  }
}

TEST(Scrub, DetectsMirrorDamageAndMissingMirror) {
  TempDir tmp{"detect_mirror"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 4);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  ASSERT_GE(primaries.size(), 3u);
  io::inject_bit_rot(real, tmp.path + "/mirror/" + primaries[0], 40, 0x02);
  real.remove(tmp.path + "/mirror/" + primaries[1]);

  LogScrubber scrubber{real, {tmp.path + "/wal", tmp.path + "/mirror"}};
  const ScrubReport report = scrubber.run();
  ASSERT_EQ(report.defects.size(), 2u);
  EXPECT_EQ(report.defects[0].segment, 0u);
  EXPECT_TRUE(report.defects[0].in_mirror);
  EXPECT_EQ(report.defects[1].segment, 1u);
  EXPECT_TRUE(report.defects[1].in_mirror);
  EXPECT_EQ(report.defects[1].defect, DefectClass::kMirrorMissing);
}

TEST(Scrub, DetectsTruncatedSealedSegment) {
  TempDir tmp{"detect_trunc"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 4);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  const std::string victim = tmp.path + "/wal/" + primaries[1];
  real.truncate(victim, real.file_size(victim) - 5);

  LogScrubber scrubber{real, {tmp.path + "/wal", ""}};
  const ScrubReport report = scrubber.run();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.defects[0].segment, 1u);
  EXPECT_EQ(report.defects[0].defect, DefectClass::kTruncatedFrame);
}

TEST(Scrub, AuditCatchesMarkerArithmeticViolations) {
  TempDir tmp{"audit_marker"};
  auto& real = io::StdioFileSystem::instance();

  // CRC-valid marker claiming 3 records where 0 frames precede it.
  std::vector<std::uint8_t> bad = segment_header(0);
  append_to(bad, make_frame(RecordLog::kDayMarkerFrame,
                            make_marker_payload(0, 3, 3)));
  write_file(tmp.path + "/bad.tlseg", bad);
  const SegmentAudit a = audit_segment(real, tmp.path + "/bad.tlseg", 0);
  ASSERT_TRUE(a.has_defect);
  EXPECT_EQ(a.defect, DefectClass::kMarkerMismatch);

  // Non-monotonic days across two otherwise valid markers.
  std::vector<std::uint8_t> nonmono = segment_header(0);
  append_to(nonmono, make_frame(RecordLog::kDayMarkerFrame,
                                make_marker_payload(2, 0, 5)));
  append_to(nonmono, make_frame(RecordLog::kDayMarkerFrame,
                                make_marker_payload(1, 0, 5)));
  write_file(tmp.path + "/nonmono.tlseg", nonmono);
  const SegmentAudit b = audit_segment(real, tmp.path + "/nonmono.tlseg", 0);
  ASSERT_TRUE(b.has_defect);
  EXPECT_EQ(b.defect, DefectClass::kMarkerMismatch);

  // A consistent marker-only segment is clean and sealed.
  std::vector<std::uint8_t> good = segment_header(0);
  append_to(good, make_frame(RecordLog::kDayMarkerFrame,
                             make_marker_payload(0, 0, 0)));
  write_file(tmp.path + "/good.tlseg", good);
  EXPECT_TRUE(audit_segment(real, tmp.path + "/good.tlseg", 0).clean_sealed());
}

TEST(Scrub, CrossSegmentTotalsMismatchIsADefect) {
  TempDir tmp{"cross_totals"};
  auto& real = io::StdioFileSystem::instance();
  const std::string dir = tmp.path + "/wal";
  std::vector<std::uint8_t> s0 = segment_header(0);
  append_to(s0, make_frame(RecordLog::kDayMarkerFrame,
                           make_marker_payload(0, 0, 10)));
  write_file(dir + "/" + RecordLog::segment_name(0), s0);
  // Claims a cumulative total of 25 where segment 0 left off at 10.
  std::vector<std::uint8_t> s1 = segment_header(1);
  append_to(s1, make_frame(RecordLog::kDayMarkerFrame,
                           make_marker_payload(1, 0, 25)));
  write_file(dir + "/" + RecordLog::segment_name(1), s1);
  write_file(dir + "/" + RecordLog::segment_name(2), segment_header(2));

  LogScrubber scrubber{real, {dir, ""}};
  const ScrubReport report = scrubber.run();
  ASSERT_EQ(report.defects.size(), 1u);
  EXPECT_EQ(report.defects[0].segment, 1u);
  EXPECT_EQ(report.defects[0].defect, DefectClass::kMarkerMismatch);
}

// --- read-repair -------------------------------------------------------------

TEST(Repair, PrimaryRestoredFromMirrorByteIdentical) {
  TempDir tmp{"repair_primary"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 5);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  const std::string victim = tmp.path + "/wal/" + primaries[1];
  const std::uint32_t want = crc_of(victim);
  io::inject_bit_rot(real, victim, 100, 0x40);

  LogIntegrity integrity{real, {tmp.path + "/wal", tmp.path + "/mirror"}};
  const IntegrityReport report = integrity.check_and_repair();
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].action, RepairAction::kPrimaryRestored);
  EXPECT_EQ(report.events[0].segment, 1u);
  EXPECT_EQ(report.events[0].crc32c, want);
  EXPECT_TRUE(report.fully_repaired());
  EXPECT_EQ(crc_of(victim), want);
  // Idempotent: a second pass finds nothing to do.
  EXPECT_TRUE(LogIntegrity(real, {tmp.path + "/wal", tmp.path + "/mirror"})
                  .check_and_repair()
                  .events.empty());
}

TEST(Repair, MirrorRestoredFromCleanPrimary) {
  TempDir tmp{"repair_mirror"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 4);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  const std::string replica = tmp.path + "/mirror/" + primaries[0];
  io::inject_bit_rot(real, replica, 25, 0x08);

  LogIntegrity integrity{real, {tmp.path + "/wal", tmp.path + "/mirror"}};
  const IntegrityReport report = integrity.check_and_repair();
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].action, RepairAction::kMirrorRestored);
  EXPECT_EQ(crc_of(replica), crc_of(tmp.path + "/wal/" + primaries[0]));
}

TEST(Repair, CrashMidRepairResumesToByteIdentical) {
  TempDir tmp{"repair_crash"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 4);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  const std::string victim_name = primaries[1];
  const std::uint32_t want = crc_of(tmp.path + "/wal/" + victim_name);

  // Kill the repair at every mutating op it performs; after each kill a
  // fresh pass over the real filesystem must still converge to the oracle.
  for (std::uint64_t kill_at = 0;; ++kill_at) {
    io::inject_bit_rot(real, tmp.path + "/wal/" + victim_name, 70, 0x01);
    io::IoFaultPlan plan;
    plan.add(kill_at, io::IoFaultKind::kCrash);
    io::FaultyFileSystem ffs{real, plan, kill_at};
    bool crashed = false;
    try {
      LogIntegrity{ffs, {tmp.path + "/wal", tmp.path + "/mirror"}}
          .check_and_repair();
    } catch (const io::SimulatedCrash&) {
      crashed = true;
    }
    const IntegrityReport resumed =
        LogIntegrity{real, {tmp.path + "/wal", tmp.path + "/mirror"}}
            .check_and_repair();
    EXPECT_TRUE(resumed.fully_repaired()) << "kill at op " << kill_at;
    EXPECT_EQ(crc_of(tmp.path + "/wal/" + victim_name), want)
        << "kill at op " << kill_at;
    EXPECT_EQ(crc_of(tmp.path + "/mirror/" + victim_name), want)
        << "kill at op " << kill_at;
    if (!crashed) break;  // the plan outlived the repair: full sweep done
    ASSERT_LT(kill_at, 64u) << "repair never completed without crashing";
  }
}

TEST(Repair, WriterOpenRepairsRotBeforeRecovery) {
  TempDir tmp{"writer_open"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 5);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  const std::string victim = tmp.path + "/wal/" + primaries[0];
  const std::uint32_t want = crc_of(victim);
  io::inject_bit_rot(real, victim, 55, 0x80);

  RecordLog::Options opt;
  opt.directory = tmp.path + "/wal";
  opt.mirror_directory = tmp.path + "/mirror";
  opt.max_segment_bytes = 4 * 1024;
  RecordLog log{real, opt};
  log.open();
  // Without the pre-scan integrity pass recovery would truncate the chain at
  // the rotted byte; with it the full history survives.
  EXPECT_EQ(log.committed_records(), 5u * kPerDay);
  EXPECT_EQ(crc_of(victim), want);
  commit_days(log, 5, 1);
  EXPECT_EQ(log.committed_records(), 6u * kPerDay);
}

TEST(Repair, BitFlipWhileCopyingIsNeverRecordedAsRepaired) {
  TempDir tmp{"repair_read_flip"};
  auto& real = io::StdioFileSystem::instance();
  const std::string gold = tmp.path + "/gold";
  {
    RecordLog::Options opt;
    opt.directory = gold + "/wal";
    opt.mirror_directory = gold + "/mirror";
    opt.max_segment_bytes = 8 * 1024;
    opt.write_chunk_bytes = 512;
    RecordLog log{real, opt};
    log.open();
    for (int day = 0; day < 6; ++day) {
      for (std::uint32_t i = 0; i < 100; ++i) log.append(make_record(day, i));
      log.commit_day(day, {});
    }
  }
  const auto gold_primaries = chain_crcs(gold + "/wal");
  const auto gold_mirrors = chain_crcs(gold + "/mirror");
  ASSERT_GE(gold_mirrors.size(), 2u);
  const std::string root = tmp.path + "/run";
  const ScrubOptions scrub{root + "/wal", root + "/mirror"};
  // Latent rot in sealed primary 1; its mirror replica is clean.
  const auto reset = [&] {
    stdfs::remove_all(root);
    copy_wal(gold + "/wal", root + "/wal");
    copy_wal(gold + "/mirror", root + "/mirror");
    io::inject_bit_rot(real, root + "/wal/" + RecordLog::segment_name(1), 100, 0x40);
  };

  // Read ops of the detection pass alone, and of the whole repair pass: the
  // ops in between are the repair's own reads (the copy's source read, its
  // verification, the replica comparisons).
  reset();
  io::FaultyFileSystem detect{real, io::IoFaultPlan{}, 0};
  LogScrubber{detect, scrub}.run();
  io::FaultyFileSystem dry{real, io::IoFaultPlan{}, 0};
  LogIntegrity{dry, scrub}.check_and_repair();
  ASSERT_GT(dry.read_ops(), detect.read_ops());

  int aborted = 0;
  for (std::uint64_t op = detect.read_ops(); op < dry.read_ops(); ++op) {
    SCOPED_TRACE("bit flip at read op " + std::to_string(op));
    reset();
    io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, op};
    io::IoFaultPlan reads;
    reads.add(op, io::IoFaultKind::kBitRot);
    ffs.set_read_fault_plan(reads);
    std::vector<telemetry::RepairEvent> events;
    try {
      events = LogIntegrity{ffs, scrub}.check_and_repair().events;
    } catch (const io::IoError&) {
      ++aborted;  // a copy that failed its audit: nothing may be recorded
    }
    bool primary_restored = false;
    for (const telemetry::RepairEvent& e : events) {
      ASSERT_NE(e.action, RepairAction::kQuarantined);
      ASSERT_LT(e.segment, gold_mirrors.size());
      EXPECT_EQ(e.crc32c, gold_mirrors[e.segment].second);
      if (e.action == RepairAction::kPrimaryRestored) primary_restored = true;
    }
    // A recorded repair stuck: the next scrub finds nothing.
    if (primary_restored) {
      EXPECT_TRUE(LogScrubber(real, scrub).run().clean());
      EXPECT_EQ(chain_crcs(root + "/wal"), gold_primaries);
    }
    // The clean replica is never overwritten with unchecked bytes, and a
    // failed copy leaves no tmp behind.
    EXPECT_EQ(chain_crcs(root + "/mirror"), gold_mirrors);
    EXPECT_FALSE(stdfs::exists(root + "/wal/" + RecordLog::segment_name(1) + ".tmp"));
  }
  // The sweep reached the copy: some flips had to be caught by its audit.
  EXPECT_GT(aborted, 0);
}

// --- certified quarantine ----------------------------------------------------

TEST(Quarantine, DoubleFaultYieldsExactAccounting) {
  TempDir tmp{"quarantine"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 6);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  ASSERT_GE(primaries.size(), 4u);
  // Golden audits give the day range the victim carries.
  const ScrubReport golden =
      LogScrubber{real, {tmp.path + "/wal", tmp.path + "/mirror"}}.run();
  const std::uint32_t victim = 2;
  const SegmentAudit& vaudit = golden.audits[victim];
  io::inject_bit_rot(real, tmp.path + "/wal/" + primaries[victim], 90, 0x04);
  io::inject_bit_rot(real, tmp.path + "/mirror/" + primaries[victim], 91, 0x04);

  LogIntegrity integrity{real, {tmp.path + "/wal", tmp.path + "/mirror"}};
  const IntegrityReport report = integrity.check_and_repair();
  EXPECT_FALSE(report.fully_repaired());
  ASSERT_EQ(report.quarantined_segments, (std::vector<std::uint32_t>{victim}));
  EXPECT_TRUE(report.accounting_exact);
  EXPECT_EQ(report.records_lost, vaudit.records);
  EXPECT_EQ(report.quarantine_first_day, vaudit.first_day);
  EXPECT_EQ(report.quarantine_last_day, vaudit.last_day);

  // The reader skips the hole with the same accounting and flags the stream.
  LogCursor cursor;
  CollectingSink sink;
  telemetry::FollowOptions fo;
  fo.quarantined = report.quarantined_segments;
  const TailReadResult r =
      RecordLog::follow(real, tmp.path + "/wal", cursor, sink, fo);
  EXPECT_EQ(r.state, TailState::kQuarantined);
  EXPECT_TRUE(r.quarantine_skipped);
  EXPECT_TRUE(r.quarantine_exact);
  EXPECT_EQ(r.records_quarantined, vaudit.records);
  EXPECT_EQ(r.days_quarantined,
            static_cast<std::uint64_t>(vaudit.last_day - vaudit.first_day + 1));
  EXPECT_EQ(r.records_delivered + r.records_quarantined, 6u * kPerDay);
  EXPECT_EQ(cursor.records, 6u * kPerDay);  // adopted totals span the hole
  for (int day = vaudit.first_day; day <= vaudit.last_day; ++day) {
    EXPECT_EQ(std::count(sink.days.begin(), sink.days.end(), day), 0) << day;
  }
  // Delivered records are exactly the surviving days' — never a wrong byte.
  for (const HandoverRecord& rec : sink.records) {
    const int day = static_cast<int>(rec.timestamp / util::kMsPerDay);
    EXPECT_TRUE(day < vaudit.first_day || day > vaudit.last_day);
  }
}

TEST(Quarantine, DeferredAccountingCommitsExactlyOnce) {
  TempDir tmp{"deferred"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 4);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  const std::uint32_t tail_index =
      static_cast<std::uint32_t>(primaries.size() - 1);
  const std::uint32_t victim = tail_index - 1;
  const ScrubReport golden = LogScrubber{real, {tmp.path + "/wal", ""}}.run();
  const std::uint64_t hole_records = golden.audits[victim].records;
  // Empty the tail down to its header: the hole has no closing anchor yet.
  real.truncate(tmp.path + "/wal/" + primaries[tail_index],
                RecordLog::kSegmentHeaderSize);
  const std::vector<std::uint32_t> quarantined{victim};

  LogCursor cursor;
  CollectingSink sink;
  telemetry::FollowOptions fo;
  fo.quarantined = quarantined;
  const TailReadResult first =
      RecordLog::follow(real, tmp.path + "/wal", cursor, sink, fo);
  EXPECT_EQ(first.state, TailState::kQuarantined);
  EXPECT_TRUE(first.quarantine_skipped);
  EXPECT_EQ(first.records_quarantined, 0u);  // deferred: no anchor yet
  EXPECT_EQ(first.days_quarantined, 0u);
  const int last_delivered_day = cursor.day;

  // The writer seals the next day (as a marker-only day, crafted so the
  // cumulative total includes the quarantined records, exactly as the real
  // writer would have persisted it).
  {
    std::ofstream os{tmp.path + "/wal/" + primaries[tail_index],
                     std::ios::binary | std::ios::app};
    const auto frame = make_frame(
        RecordLog::kDayMarkerFrame,
        make_marker_payload(last_delivered_day + 2, 0, 4u * kPerDay));
    os.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
    ASSERT_TRUE(os.good());
  }

  const TailReadResult second =
      RecordLog::follow(real, tmp.path + "/wal", cursor, sink, fo);
  EXPECT_EQ(second.state, TailState::kQuarantined);
  EXPECT_EQ(second.records_quarantined, hole_records);
  EXPECT_EQ(second.days_quarantined, 1u);
  EXPECT_TRUE(second.quarantine_exact);
  EXPECT_EQ(cursor.records, 4u * kPerDay);

  // Exactly-once: a further poll past the committed hole contributes zero.
  const TailReadResult third =
      RecordLog::follow(real, tmp.path + "/wal", cursor, sink, fo);
  EXPECT_EQ(third.state, TailState::kClean);
  EXPECT_FALSE(third.quarantine_skipped);
  EXPECT_EQ(third.records_quarantined, 0u);
}

// --- WalTailer integration ---------------------------------------------------

WalTailer::Options tailer_options(const std::string& root) {
  WalTailer::Options o;
  o.wal_directory = root + "/wal";
  o.checkpoint_path = root + "/serve.ckpt";
  o.mirror_directory = root + "/mirror";
  o.window_days = 4;
  o.sketch_k = 64;
  o.checkpoint_every_days = 1;
  o.max_days_per_poll = 64;
  return o;
}

/// Polls until the tailer is caught up; returns the final PollResult with
/// the intermediate scrub/repair/quarantine counters accumulated in.
WalTailer::PollResult drain(WalTailer& tailer) {
  WalTailer::PollResult total;
  for (;;) {
    const WalTailer::PollResult r = tailer.poll();
    total.state = r.state;
    total.days_delivered += r.days_delivered;
    total.records_delivered += r.records_delivered;
    total.scrubs_run += r.scrubs_run;
    total.segments_repaired += r.segments_repaired;
    total.segments_quarantined += r.segments_quarantined;
    total.records_quarantined += r.records_quarantined;
    if (r.state != TailState::kMore) return total;
  }
}

std::vector<std::uint8_t> oracle_aggregate_bytes(const std::string& wal,
                                                 const WalTailer::Options& o) {
  StreamAggregates oracle{{o.window_days, o.sketch_k, o.sample_modulus}};
  RecordLog::replay(io::StdioFileSystem::instance(), wal, oracle);
  std::vector<std::uint8_t> bytes;
  oracle.serialize(bytes);
  return bytes;
}

TEST(TailerIntegrity, ReadRepairsRotMidStreamAndConverges) {
  TempDir tmp{"tailer_repair"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 6);
  auto& real = io::StdioFileSystem::instance();
  const std::vector<std::uint8_t> oracle =
      oracle_aggregate_bytes(tmp.path + "/wal", tailer_options(tmp.path));
  const auto primaries = real.list(tmp.path + "/wal", "wal-");

  // Consume two days, then rot a segment the cursor has not reached yet.
  WalTailer::Options opt = tailer_options(tmp.path);
  opt.max_days_per_poll = 2;
  WalTailer tailer{real, opt};
  tailer.open();
  EXPECT_EQ(tailer.poll().state, TailState::kMore);
  const std::string victim = tmp.path + "/wal/" + primaries[3];
  const std::uint32_t want = crc_of(victim);
  io::inject_bit_rot(real, victim, 120, 0x20);

  const WalTailer::PollResult r = drain(tailer);
  EXPECT_EQ(r.state, TailState::kClean);
  EXPECT_GE(r.scrubs_run, 1u);
  EXPECT_EQ(r.segments_repaired, 1u);
  EXPECT_EQ(r.segments_quarantined, 0u);
  EXPECT_EQ(crc_of(victim), want);
  std::vector<std::uint8_t> bytes;
  tailer.aggregates().serialize(bytes);
  EXPECT_EQ(bytes, oracle);
  EXPECT_TRUE(tailer.quarantined_segments().empty());
}

TEST(TailerIntegrity, QuarantineLedgerAndCheckpointV2Roundtrip) {
  TempDir tmp{"tailer_quarantine"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 6);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  const ScrubReport golden =
      LogScrubber{real, {tmp.path + "/wal", tmp.path + "/mirror"}}.run();
  const std::uint32_t victim = 1;
  io::inject_bit_rot(real, tmp.path + "/wal/" + primaries[victim], 64, 0x01);
  io::inject_bit_rot(real, tmp.path + "/mirror/" + primaries[victim], 65, 0x01);

  WalTailer tailer{real, tailer_options(tmp.path)};
  tailer.open();
  const WalTailer::PollResult r = drain(tailer);
  EXPECT_EQ(r.state, TailState::kQuarantined);
  EXPECT_EQ(r.segments_quarantined, 1u);
  EXPECT_EQ(tailer.quarantined_segments(),
            (std::vector<std::uint32_t>{victim}));
  EXPECT_EQ(tailer.records_lost(), golden.audits[victim].records);
  EXPECT_TRUE(tailer.loss_accounting_exact());
  EXPECT_EQ(tailer.loss_first_day(), golden.audits[victim].first_day);
  EXPECT_EQ(tailer.loss_last_day(), golden.audits[victim].last_day);
  EXPECT_EQ(r.records_delivered + tailer.records_lost(), 6u * kPerDay);

  // The ledger made the checkpoint a v2 image.
  {
    std::ifstream is{tmp.path + "/serve.ckpt", std::ios::binary};
    ASSERT_TRUE(is.good());
    is.seekg(8);
    EXPECT_EQ(is.get(), 2);
  }

  // Cold restart: ledger rehydrates, the hole is not re-read or re-counted.
  WalTailer restart{real, tailer_options(tmp.path)};
  restart.open();
  EXPECT_EQ(restart.quarantined_segments(), tailer.quarantined_segments());
  EXPECT_EQ(restart.records_lost(), tailer.records_lost());
  EXPECT_EQ(restart.days_lost(), tailer.days_lost());
  EXPECT_TRUE(restart.loss_accounting_exact());
  const WalTailer::PollResult rr = restart.poll();
  EXPECT_EQ(rr.days_delivered, 0u);
  EXPECT_EQ(rr.records_quarantined, 0u);
  EXPECT_EQ(restart.records_lost(), tailer.records_lost());
}

TEST(TailerIntegrity, CleanChainKeepsV1Checkpoint) {
  TempDir tmp{"tailer_v1"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 3);
  auto& real = io::StdioFileSystem::instance();
  WalTailer tailer{real, tailer_options(tmp.path)};
  tailer.open();
  EXPECT_EQ(drain(tailer).state, TailState::kClean);
  std::ifstream is{tmp.path + "/serve.ckpt", std::ios::binary};
  ASSERT_TRUE(is.good());
  is.seekg(8);
  EXPECT_EQ(is.get(), 1);  // no loss ever certified: byte-compatible v1
}

TEST(TailerIntegrity, ScrubCadenceIsDeterministicInDeliveredDays) {
  TempDir tmp{"tailer_cadence"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 6);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  // Mirror-side rot is invisible to the read path; only the proactive
  // cadence can find (and repair) it before the replica is ever needed.
  io::inject_bit_rot(real, tmp.path + "/mirror/" + primaries[0], 33, 0x04);

  std::vector<std::uint64_t> scrub_history;
  for (int run = 0; run < 2; ++run) {
    const std::string root = tmp.path + "/run" + std::to_string(run);
    copy_wal(tmp.path + "/wal", root + "/wal");
    copy_wal(tmp.path + "/mirror", root + "/mirror");
    WalTailer::Options opt = tailer_options(root);
    opt.scrub_every_days = 2;
    opt.max_days_per_poll = 1;
    WalTailer tailer{real, opt};
    tailer.open();
    const WalTailer::PollResult r = drain(tailer);
    EXPECT_EQ(r.state, TailState::kClean);
    scrub_history.push_back(r.scrubs_run);
    EXPECT_EQ(r.scrubs_run, 3u);  // 6 delivered days / cadence 2
    EXPECT_EQ(r.segments_repaired, 1u);
    EXPECT_EQ(crc_of(root + "/mirror/" + primaries[0]),
              crc_of(root + "/wal/" + primaries[0]));
  }
  EXPECT_EQ(scrub_history[0], scrub_history[1]);
}

// --- retention x mirror ------------------------------------------------------

TEST(Retention, MirrorsRetireInLockstepWithPrimaries) {
  TempDir tmp{"retention_lockstep"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 6);
  auto& real = io::StdioFileSystem::instance();
  WalTailer::Options opt = tailer_options(tmp.path);
  opt.retention = true;
  WalTailer tailer{real, opt};
  tailer.open();
  EXPECT_EQ(drain(tailer).state, TailState::kClean);

  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  const auto mirrors = real.list(tmp.path + "/mirror", "wal-");
  // Everything strictly behind the durable cursor is gone from both chains;
  // what the primary chain keeps, the mirror also keeps (minus the tail,
  // which never had a replica).
  ASSERT_FALSE(primaries.empty());
  EXPECT_EQ(primaries.front(),
            RecordLog::segment_name(tailer.durable_cursor().segment));
  std::vector<std::string> expect_mirrors(primaries.begin(),
                                          primaries.end() - 1);
  EXPECT_EQ(mirrors, expect_mirrors);
}

TEST(Retention, NeededMirrorSurvivesAndStillRepairs) {
  TempDir tmp{"retention_needed"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 6);
  auto& real = io::StdioFileSystem::instance();
  const std::vector<std::uint8_t> oracle =
      oracle_aggregate_bytes(tmp.path + "/wal", tailer_options(tmp.path));

  WalTailer::Options opt = tailer_options(tmp.path);
  opt.retention = true;
  opt.max_days_per_poll = 2;
  WalTailer tailer{real, opt};
  tailer.open();
  EXPECT_EQ(tailer.poll().state, TailState::kMore);  // cursor mid-chain

  // Mirrors at or after the durable cursor must still exist...
  const std::uint32_t cursor_seg = tailer.durable_cursor().segment;
  const auto primaries = real.list(tmp.path + "/wal", "wal-");
  for (const auto& name : primaries) {
    if (name == primaries.back()) continue;  // tail has no replica
    EXPECT_TRUE(real.exists(tmp.path + "/mirror/" + name)) << name;
  }
  // ...because the read path ahead may still need them: rot a primary the
  // cursor has not consumed and finish the stream through its replica.
  ASSERT_GT(primaries.size(), 2u);
  const std::string victim = primaries[primaries.size() - 2];
  std::uint32_t victim_index = 0;
  ASSERT_EQ(std::sscanf(victim.c_str(), "wal-%9u.tlseg", &victim_index), 1);
  ASSERT_GE(victim_index, cursor_seg);
  io::inject_bit_rot(real, tmp.path + "/wal/" + victim, 48, 0x02);
  const WalTailer::PollResult r = drain(tailer);
  EXPECT_EQ(r.state, TailState::kClean);
  EXPECT_EQ(r.segments_repaired, 1u);
  std::vector<std::uint8_t> bytes;
  tailer.aggregates().serialize(bytes);
  EXPECT_EQ(bytes, oracle);
}

// --- read-side fault injection ----------------------------------------------

TEST(ReadFaults, BitRotIsTransientAndSingleBit) {
  TempDir tmp{"read_bitrot"};
  auto& real = io::StdioFileSystem::instance();
  std::vector<std::uint8_t> payload(256);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  write_file(tmp.path + "/f.bin", payload);

  io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 7};
  io::IoFaultPlan reads;
  reads.add(0, io::IoFaultKind::kBitRot);
  ffs.set_read_fault_plan(reads);

  std::vector<std::uint8_t> got(payload.size());
  {
    auto f = ffs.open(tmp.path + "/f.bin", io::OpenMode::kRead);
    ASSERT_EQ(f->read(got.data(), got.size()), got.size());
  }
  int flipped = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    std::uint8_t diff = static_cast<std::uint8_t>(got[i] ^ payload[i]);
    while (diff != 0) {
      flipped += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped, 1);  // exactly one bit, in the returned bytes only
  EXPECT_EQ(ffs.read_ops(), 1u);
  {
    auto f = ffs.open(tmp.path + "/f.bin", io::OpenMode::kRead);
    ASSERT_EQ(f->read(got.data(), got.size()), got.size());
  }
  EXPECT_EQ(got, payload);  // transient: the file itself is untouched
  EXPECT_EQ(ffs.read_ops(), 2u);
}

TEST(ReadFaults, ReadErrorThrowsAndPlansAreSeeded) {
  TempDir tmp{"read_eio"};
  auto& real = io::StdioFileSystem::instance();
  write_file(tmp.path + "/f.bin", std::vector<std::uint8_t>(64, 0x5A));

  io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 1};
  io::IoFaultPlan reads;
  reads.add(0, io::IoFaultKind::kReadError);
  ffs.set_read_fault_plan(reads);
  std::uint8_t buf[64];
  auto f = ffs.open(tmp.path + "/f.bin", io::OpenMode::kRead);
  EXPECT_THROW(f->read(buf, sizeof buf), io::IoError);

  // read_chaos is a pure function of (seed, horizon, rate).
  const io::IoFaultPlan a = io::IoFaultPlan::read_chaos(99, 1000, 0.05);
  const io::IoFaultPlan b = io::IoFaultPlan::read_chaos(99, 1000, 0.05);
  ASSERT_EQ(a.faults().size(), b.faults().size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.faults().size(); ++i) {
    EXPECT_EQ(a.faults()[i].op_index, b.faults()[i].op_index);
    EXPECT_EQ(static_cast<int>(a.faults()[i].kind),
              static_cast<int>(b.faults()[i].kind));
  }
}

TEST(ReadFaults, ScrubberToleratesTransientReadFaults) {
  // A transient bit flip seen during an audit looks like a defect, but the
  // repair path re-reads the real bytes — so a "repair" triggered by a ghost
  // defect is a no-op copy that leaves the chain byte-identical.
  TempDir tmp{"read_ghost"};
  build_mirrored_wal(tmp.path + "/wal", tmp.path + "/mirror", 4);
  auto& real = io::StdioFileSystem::instance();
  const auto before_primary = chain_crcs(tmp.path + "/wal");
  const auto before_mirror = chain_crcs(tmp.path + "/mirror");

  // The fault horizon is a fault-free pass's own read count, so the planned
  // faults land on reads the pass really makes, however large its reads
  // are. The rate expects four planned faults per pass.
  const ScrubOptions scrub{tmp.path + "/wal", tmp.path + "/mirror"};
  io::FaultyFileSystem dry{real, io::IoFaultPlan{}, 0};
  LogIntegrity{dry, scrub}.check_and_repair();
  const std::uint64_t horizon = dry.read_ops();
  ASSERT_GT(horizon, 0u);

  io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 3};
  ffs.set_read_fault_plan(
      io::IoFaultPlan::read_chaos(3, horizon, 4.0 / static_cast<double>(horizon)));
  try {
    LogIntegrity{ffs, scrub}.check_and_repair();
  } catch (const io::IoError&) {
    // A kReadError (or a copy-verify catching a ghost) may abort the pass;
    // the on-disk chain must still be untouched.
  }
  EXPECT_FALSE(ffs.fired().empty());
  EXPECT_EQ(chain_crcs(tmp.path + "/wal"), before_primary);
  EXPECT_EQ(chain_crcs(tmp.path + "/mirror"), before_mirror);
}

// --- the bit-rot chaos suite -------------------------------------------------

struct ChaosVictim {
  std::uint32_t segment = 0;
  bool primary = false;
  bool mirror = false;
};

TEST(BitRotChaos, SeededSchedulesRepairOrCertify) {
  TempDir tmp{"chaos"};
  const std::string gold = tmp.path + "/gold";
  build_mirrored_wal(gold + "/wal", gold + "/mirror", 8);
  auto& real = io::StdioFileSystem::instance();
  const auto primaries = real.list(gold + "/wal", "wal-");
  const std::uint32_t sealed =
      static_cast<std::uint32_t>(primaries.size() - 1);
  ASSERT_GE(sealed, 4u);
  const ScrubReport golden = LogScrubber{real, {gold + "/wal", ""}}.run();
  const WalTailer::Options base_opt = tailer_options(tmp.path);
  const std::vector<std::uint8_t> oracle =
      oracle_aggregate_bytes(gold + "/wal", base_opt);
  CollectingSink golden_stream;
  RecordLog::replay(real, gold + "/wal", golden_stream);

  // Fault-free op horizon for the kill/resume arm.
  std::uint64_t horizon = 0;
  {
    const std::string root = tmp.path + "/dry";
    copy_wal(gold + "/wal", root + "/wal");
    copy_wal(gold + "/mirror", root + "/mirror");
    io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};
    WalTailer tailer{ffs, tailer_options(root)};
    tailer.open();
    drain(tailer);
    horizon = ffs.ops();
  }

  const int schedules = chaos_schedule_count();
  int detected_all = 0, verdicts = 0;
  for (int s = 0; s < schedules; ++s) {
    SCOPED_TRACE("schedule " + std::to_string(s));
    util::Rng rng = util::Rng::derive(0xb17507, static_cast<std::uint64_t>(s));
    const std::string root = tmp.path + "/s" + std::to_string(s);
    copy_wal(gold + "/wal", root + "/wal");
    copy_wal(gold + "/mirror", root + "/mirror");
    const int mode = s % 3;  // 0: repairable rot; 1: + double fault; 2: + kills

    // Distinct victim segments; one flip per damaged copy. The certified
    // loss victim must be interior — a marker anchor on BOTH sides — for
    // the accounting to be exact: an end-of-chain hole stays deferred
    // until the writer commits again (covered by
    // Quarantine.DeferredAccountingCommitsExactlyOnce), and a hole at the
    // chain head leaves the first lost day unknowable from the stream.
    std::vector<std::uint32_t> interior;
    for (std::uint32_t seg = 1; seg < sealed; ++seg) {
      if (golden.audits[seg].last_day < golden.last_day) interior.push_back(seg);
    }
    ASSERT_FALSE(interior.empty());
    std::vector<ChaosVictim> victims;
    std::set<std::uint32_t> used;
    if (mode == 1) {
      ChaosVictim v;
      v.segment = interior[rng.below(interior.size())];
      v.primary = v.mirror = true;  // the certified-loss victim
      used.insert(v.segment);
      victims.push_back(v);
    }
    const std::size_t n = victims.size() + 1 + rng.below(2);
    while (victims.size() < n) {
      const std::uint32_t seg = static_cast<std::uint32_t>(rng.below(sealed));
      if (!used.insert(seg).second) continue;
      ChaosVictim v;
      v.segment = seg;
      if (rng.chance(0.5)) {
        v.primary = true;
      } else {
        v.mirror = true;
      }
      victims.push_back(v);
    }
    for (const ChaosVictim& v : victims) {
      const std::string name = RecordLog::segment_name(v.segment);
      if (v.primary) {
        const std::string path = root + "/wal/" + name;
        io::inject_bit_rot(real, path, rng.below(real.file_size(path)),
                           static_cast<std::uint8_t>(1u << rng.below(8)));
      }
      if (v.mirror) {
        const std::string path = root + "/mirror/" + name;
        io::inject_bit_rot(real, path, rng.below(real.file_size(path)),
                           static_cast<std::uint8_t>(1u << rng.below(8)));
      }
    }

    // Layer 1 verdict: detection is total — every damaged copy surfaces.
    const ScrubReport found =
        LogScrubber{real, {root + "/wal", root + "/mirror"}}.run();
    bool all_found = true;
    for (const ChaosVictim& v : victims) {
      const auto hit = [&](bool in_mirror) {
        for (const auto& d : found.defects) {
          if (d.segment == v.segment && d.in_mirror == in_mirror) return true;
        }
        return false;
      };
      if (v.primary && !hit(false)) all_found = false;
      if (v.mirror && !hit(true)) all_found = false;
    }
    EXPECT_TRUE(all_found);
    detected_all += all_found ? 1 : 0;

    // Tail the damaged chain (mode 2: under seeded kills + transient EIO,
    // resuming from the checkpoint after every death).
    WalTailer::Options opt = tailer_options(root);
    opt.scrub_every_days = 3;
    WalTailer::PollResult last;
    bool complete = false;
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint32_t> ledger;
    std::uint64_t records_lost = 0, days_lost = 0;
    bool exact = false;
    int first_lost = -1, last_lost = -1;
    for (int attempt = 0; attempt < 64 && !complete; ++attempt) {
      io::IoFaultPlan plan;
      if (mode == 2 && attempt < 8) {
        plan = io::IoFaultPlan::chaos(rng(), horizon + 16, 0.01);
      }
      io::FaultyFileSystem ffs{real, plan, rng()};
      WalTailer tailer{ffs, opt};
      try {
        tailer.open();
        last = drain(tailer);
        tailer.scrub_now();  // settle any latent mirror-side rot
        complete = true;
        tailer.aggregates().serialize(bytes);
        ledger = tailer.quarantined_segments();
        records_lost = tailer.records_lost();
        days_lost = tailer.days_lost();
        exact = tailer.loss_accounting_exact();
        first_lost = tailer.loss_first_day();
        last_lost = tailer.loss_last_day();
      } catch (const io::SimulatedCrash&) {
      } catch (const io::IoError&) {
      }
    }
    ASSERT_TRUE(complete);

    if (mode != 1) {
      // Layers 1+2: full repair — stream converges to the oracle and every
      // file of both chains is byte-identical to the golden copy.
      EXPECT_EQ(last.state, TailState::kClean);
      EXPECT_TRUE(ledger.empty());
      EXPECT_EQ(bytes, oracle);
      EXPECT_EQ(chain_crcs(root + "/wal"), chain_crcs(gold + "/wal"));
      EXPECT_EQ(chain_crcs(root + "/mirror"), chain_crcs(gold + "/mirror"));
      verdicts += (last.state == TailState::kClean && bytes == oracle &&
                   ledger.empty())
                      ? 1
                      : 0;
    } else {
      // Layer 3: certified loss with exact accounting, never a wrong byte.
      const std::uint32_t victim = victims[0].segment;
      const SegmentAudit& va = golden.audits[victim];
      EXPECT_EQ(ledger, (std::vector<std::uint32_t>{victim}));
      EXPECT_TRUE(exact);
      EXPECT_EQ(records_lost, va.records);
      EXPECT_EQ(days_lost,
                static_cast<std::uint64_t>(va.last_day - va.first_day + 1));
      EXPECT_EQ(first_lost, va.first_day);
      EXPECT_EQ(last_lost, va.last_day);

      // Expected degraded stream: the golden stream minus the lost days.
      StreamAggregates expect{{opt.window_days, opt.sketch_k,
                               opt.sample_modulus}};
      std::size_t i = 0;
      for (const int day : golden_stream.days) {
        for (; i < golden_stream.records.size() &&
               static_cast<int>(golden_stream.records[i].timestamp /
                                util::kMsPerDay) == day;
             ++i) {
          if (day < va.first_day || day > va.last_day) {
            expect.consume(golden_stream.records[i]);
          }
        }
        if (day < va.first_day || day > va.last_day) expect.on_day_end(day);
      }
      std::vector<std::uint8_t> expect_bytes;
      expect.serialize(expect_bytes);
      EXPECT_EQ(bytes, expect_bytes);
      verdicts += (exact && records_lost == va.records && bytes == expect_bytes)
                      ? 1
                      : 0;
    }
  }
  EXPECT_EQ(detected_all, schedules);
  EXPECT_EQ(verdicts, schedules);
}

TEST(BitRotChaos, RealSimulatorChainRepairsAcrossThreadCounts) {
  TempDir tmp{"sim_threads"};
  auto& real = io::StdioFileSystem::instance();
  std::vector<std::vector<std::pair<std::string, std::uint32_t>>> crcs;
  for (const unsigned threads : {1u, 2u, 4u}) {
    core::StudyConfig config = core::StudyConfig::test_scale();
    config.days = 3;
    config.population.count = 250;
    config.threads = threads;
    const std::string root = tmp.path + "/t" + std::to_string(threads);
    RecordLog::Options opt;
    opt.directory = root + "/wal";
    opt.mirror_directory = root + "/mirror";
    opt.max_segment_bytes = 8 * 1024;
    RecordLog log{real, opt};
    telemetry::DurableRecordSink sink{log};
    log.open();
    core::Simulator sim{config};
    core::DayCheckpoint day0;
    day0.seed = config.seed;
    sim.restore(day0);
    sim.attach_durable_log(&sink);
    sim.run();
    sim.remove_sink(&sink);
    crcs.push_back(chain_crcs(root + "/wal"));
    ASSERT_GE(crcs.back().size(), 2u) << "expected a multi-segment chain";
  }
  // The WAL bytes are thread-count-invariant, so one oracle covers all.
  EXPECT_EQ(crcs[0], crcs[1]);
  EXPECT_EQ(crcs[0], crcs[2]);

  // Rot a sealed segment of each chain and repair from its replica.
  for (const unsigned threads : {1u, 2u, 4u}) {
    const std::string root = tmp.path + "/t" + std::to_string(threads);
    const auto names = real.list(root + "/wal", "wal-");
    const std::string victim = root + "/wal/" + names[0];
    const std::uint32_t want = crc_of(victim);
    io::inject_bit_rot(real, victim, 77, 0x08);
    const IntegrityReport report =
        LogIntegrity{real, {root + "/wal", root + "/mirror"}}.check_and_repair();
    EXPECT_TRUE(report.fully_repaired()) << threads;
    EXPECT_TRUE(report.repaired_any()) << threads;
    EXPECT_EQ(crc_of(victim), want) << threads;
  }
}

}  // namespace
}  // namespace tl
