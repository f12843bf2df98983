#include "telemetry/record_log.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <algorithm>

#include "obs/scoped_timer.hpp"
#include "telemetry/scrub.hpp"
#include "util/byte_codec.hpp"
#include "util/crc32c.hpp"

namespace tl::telemetry {
namespace {

// Frames larger than this are assumed to be garbage lengths read from a torn
// header, not real payloads (a full bench-scale day is far smaller).
constexpr std::uint32_t kMaxFrameLen = 1u << 28;
// Day-marker payload ahead of the app state: day u32, in-day count u64,
// cumulative total u64, app-state length u32.
constexpr std::size_t kMarkerFixedSize = 24;

using util::get_u16;
using util::get_u32;
using util::get_u64;
using util::put_u32;
using util::store_u16;
using util::store_u32;
using util::store_u64;

/// Writes `data` in one call, treating a short write as a failed durable
/// write (ENOSPC-style): the commit must not pretend it happened.
void write_fully(io::File& file, std::span<const std::uint8_t> data) {
  if (file.write(data.data(), data.size()) < data.size()) {
    throw io::IoError{"record log: short write (device full?)"};
  }
}

struct VectorSink final : RecordSink {
  std::vector<HandoverRecord> records;
  void consume(const HandoverRecord& record) override { records.push_back(record); }
};

[[noreturn]] void throw_marker_mismatch(const std::string& path,
                                       const SegmentStop& stop) {
  // A CRC-valid marker that breaks the marker rule means a writer bug or
  // tampering, not a torn tail: fail loudly rather than silently serving a
  // record stream of unknown shape.
  throw io::IoError{"record log corrupt: the day marker at offset " +
                    std::to_string(stop.offset) + " of " + path +
                    " disagrees with the frames and markers before it"};
}

}  // namespace

const char* to_string(DefectClass defect) noexcept {
  switch (defect) {
    case DefectClass::kBadSegmentHeader: return "bad segment header";
    case DefectClass::kBadFrameCrc: return "frame CRC mismatch";
    case DefectClass::kTruncatedFrame: return "truncated frame";
    case DefectClass::kBadFrameStructure: return "bad frame structure";
    case DefectClass::kMarkerMismatch: return "marker count mismatch";
    case DefectClass::kNoSealMarker: return "sealed segment missing its seal marker";
    case DefectClass::kChainGap: return "segment missing from chain";
    case DefectClass::kMirrorMissing: return "mirror replica missing";
    case DefectClass::kMirrorDiverged: return "mirror replica diverged";
  }
  return "?";
}

TailState tail_state_for(DefectClass stop, bool later_segment) noexcept {
  const bool may_complete =
      stop == DefectClass::kTruncatedFrame || stop == DefectClass::kNoSealMarker;
  return may_complete && !later_segment ? TailState::kPending : TailState::kTorn;
}

const char* to_string(TailState state) noexcept {
  switch (state) {
    case TailState::kClean: return "clean";
    case TailState::kPending: return "pending";
    case TailState::kTorn: return "torn";
    case TailState::kMore: return "more";
    case TailState::kQuarantined: return "quarantined";
  }
  return "?";
}

RecordLog::RecordLog(io::FileSystem& fs, Options options)
    : fs_(fs), options_(std::move(options)) {
  if (options_.directory.empty()) {
    throw std::invalid_argument{"RecordLog: empty directory"};
  }
  if (options_.write_chunk_bytes == 0) options_.write_chunk_bytes = kIoBlockBytes;
  if (options_.max_segment_bytes < kSegmentHeaderSize + kFrameHeaderSize) {
    throw std::invalid_argument{"RecordLog: max_segment_bytes too small"};
  }
  // Below one full chunk, a record frame always fits behind the staged bytes.
  staging_.resize(options_.write_chunk_bytes + kRecordFrameSize);
}

RecordLog::~RecordLog() { govern_account_.sub(accounted_bytes_); }

std::string RecordLog::segment_name(std::uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "wal-%05u.tlseg", index);
  return buf;
}

std::optional<std::uint32_t> RecordLog::parse_segment_name(const std::string& name) {
  unsigned value = 0;
  if (std::sscanf(name.c_str(), "wal-%9u.tlseg", &value) != 1) return std::nullopt;
  const auto index = static_cast<std::uint32_t>(value);
  // Round trip: only names this module itself would produce.
  if (name != segment_name(index)) return std::nullopt;
  return index;
}

std::string RecordLog::segment_path(std::uint32_t index) const {
  return options_.directory + "/" + segment_name(index);
}

void RecordLog::resolve_obs() {
  const std::uint64_t epoch = obs::global_epoch();
  if (epoch == obs_epoch_) return;
  obs_epoch_ = epoch;
  obs_bytes_ = obs::counter("tl_wal_bytes_total",
                            "Bytes durably committed to the record log");
  obs_records_ = obs::counter("tl_wal_records_total",
                              "Record frames durably committed");
  obs_fsyncs_ = obs::counter("tl_wal_fsyncs_total", "fsync calls issued");
  obs_segments_ = obs::counter("tl_wal_segments_total",
                               "Segment files created (rolls + fresh opens)");
  obs_dropped_bytes_ =
      obs::counter("tl_wal_recovery_dropped_bytes_total",
                   "Uncommitted bytes truncated away during recovery");
  obs_dropped_records_ =
      obs::counter("tl_wal_recovery_dropped_records_total",
                   "Complete record frames dropped during recovery");
  obs_commit_seconds_ =
      obs::histogram("tl_wal_commit_seconds",
                     obs::MetricsRegistry::latency_edges_s(),
                     "Wall time per durable day commit (write + fsync)");
}

void RecordLog::sync_govern_account() {
  const std::uint64_t epoch = govern::global_epoch();
  if (epoch != govern_epoch_) {
    govern_epoch_ = epoch;
    govern_account_ = govern::account("wal_day_buffer");
    accounted_bytes_ = 0;
  }
  const std::uint64_t bytes = staging_.capacity();
  if (bytes >= accounted_bytes_) {
    govern_account_.add(bytes - accounted_bytes_);
  } else {
    govern_account_.sub(accounted_bytes_ - bytes);
  }
  accounted_bytes_ = bytes;
}

void RecordLog::write_segment_header(io::File& file, std::uint32_t index) {
  std::vector<std::uint8_t> header;
  header.reserve(kSegmentHeaderSize);
  header.insert(header.end(), kMagic, kMagic + sizeof kMagic);
  put_u32(header, index);
  put_u32(header, util::mask_crc32c(util::crc32c(header.data(), header.size())));
  write_fully(file, header);
  file.sync();
  obs_segments_.inc();
  obs_fsyncs_.inc();
}

void RecordLog::write_staged(std::size_t n) {
  if (truncate_pending_) {
    // A discarded day's frames sit past the last marker: cut them before
    // this day's first byte lands, so the segment reads as if that day had
    // never been appended.
    current_->close();
    current_.reset();
    fs_.truncate(segment_path(segment_index_), segment_size_);
    current_ = fs_.open(segment_path(segment_index_), io::OpenMode::kAppend);
    truncate_pending_ = false;
  }
  write_fully(*current_, {staging_.data(), n});
  streamed_ += n;
  staged_ -= n;
  std::memmove(staging_.data(), staging_.data() + n, staged_);
}

void RecordLog::stage(std::span<const std::uint8_t> bytes) {
  const std::size_t chunk = options_.write_chunk_bytes;
  while (!bytes.empty()) {
    const std::size_t take = std::min(bytes.size(), chunk - staged_);
    std::memcpy(staging_.data() + staged_, bytes.data(), take);
    staged_ += take;
    bytes = bytes.subspan(take);
    if (staged_ == chunk) write_staged(chunk);
  }
}

void RecordLog::append(const HandoverRecord& record) {
  if (!open_) throw std::logic_error{"RecordLog::append: log not open"};
  // Framed in place: length, masked CRC, type, payload. The CRC covers the
  // type byte and the payload, which sit next to each other.
  std::uint8_t* frame = staging_.data() + staged_;
  store_u32(frame, kRecordEncodedSize);
  frame[8] = kRecordFrame;
  encode_record(record, frame + kFrameHeaderSize);
  store_u32(frame + 4,
            util::mask_crc32c(util::crc32c(frame + 8, 1 + kRecordEncodedSize)));
  staged_ += kRecordFrameSize;
  ++buffered_records_;
  if (staged_ < options_.write_chunk_bytes) return;
  // A failed write leaves the segment indeterminate: disarm until it lands,
  // exactly as a failed commit does.
  open_ = false;
  while (staged_ >= options_.write_chunk_bytes) write_staged(options_.write_chunk_bytes);
  open_ = true;
}

void RecordLog::commit_day(int day, std::span<const std::uint8_t> app_state) {
  if (!open_) throw std::logic_error{"RecordLog::commit_day: log not open"};
  resolve_obs();
  if (day <= last_committed_day_) {
    throw std::logic_error{"RecordLog::commit_day: day " + std::to_string(day) +
                           " already committed (last: " +
                           std::to_string(last_committed_day_) + ")"};
  }
  std::uint8_t marker[kFrameHeaderSize + kMarkerFixedSize];
  std::uint8_t* fixed = marker + kFrameHeaderSize;
  store_u32(fixed, static_cast<std::uint32_t>(day));
  store_u64(fixed + 4, buffered_records_);
  store_u64(fixed + 12, committed_records_ + buffered_records_);
  store_u32(fixed + 20, static_cast<std::uint32_t>(app_state.size()));
  marker[8] = kDayMarkerFrame;
  const std::uint32_t crc = util::crc32c(app_state.data(), app_state.size(),
                                         util::crc32c(marker + 8, 1 + kMarkerFixedSize));
  store_u32(marker, static_cast<std::uint32_t>(kMarkerFixedSize + app_state.size()));
  store_u32(marker + 4, util::mask_crc32c(crc));

  // Disarm until the commit (and any segment roll) fully succeeds: if an
  // exception escapes below, the on-disk state is indeterminate and the
  // caller must re-open (recovery discards whatever partially landed).
  open_ = false;
  obs::ScopedTimer commit_span{obs_commit_seconds_};
  stage(marker);
  stage(app_state);
  if (staged_ > 0) write_staged(staged_);
  current_->sync();  // the day marker reaching disk IS the commit point
  commit_span.stop();
  obs_fsyncs_.inc();
  obs_bytes_.inc(streamed_);
  obs_records_.inc(buffered_records_);

  segment_size_ += streamed_;
  committed_records_ += buffered_records_;
  last_committed_day_ = day;
  streamed_ = 0;
  buffered_records_ = 0;
  sync_govern_account();
  if (segment_size_ >= options_.max_segment_bytes) roll_segment();
  open_ = true;
}

void RecordLog::discard_day() noexcept {
  // No I/O: this runs inside run_day's rollback, where a crashed filesystem
  // throws on every call. Bytes of the day already in the segment are cut
  // by the next write (or by open()'s recovery if the log closes first).
  truncate_pending_ = truncate_pending_ || streamed_ > 0;
  staged_ = 0;
  streamed_ = 0;
  buffered_records_ = 0;
}

void RecordLog::mirror_sealed_segment(std::uint32_t index) {
  if (options_.mirror_directory.empty()) return;
  copy_file_atomic(fs_, segment_path(index),
                   options_.mirror_directory + "/" + segment_name(index), index);
}

void RecordLog::roll_segment() {
  current_->close();
  current_.reset();
  // The seal point: the segment will never change again, so this is where
  // its durable replica is cut. A failure here propagates (the day is
  // already committed on the primary; the caller re-opens and open()'s
  // integrity pass redoes the mirror catch-up).
  mirror_sealed_segment(segment_index_);
  ++segment_index_;
  current_ = fs_.open(segment_path(segment_index_), io::OpenMode::kTruncate);
  write_segment_header(*current_, segment_index_);
  segment_size_ = kSegmentHeaderSize;
}

// --- the segment reader ------------------------------------------------------

bool MarkerAnchor::admits(const DayMarker& marker, std::uint64_t records) const noexcept {
  if (marker.in_day != records || marker.day <= day) return false;
  return total_known ? marker.total == total + marker.in_day
                     : marker.total >= total + marker.in_day;
}

SegmentReader::SegmentReader(io::FileSystem& fs, const std::string& path,
                             std::uint32_t index, std::uint64_t offset,
                             MarkerAnchor anchor)
    : size_(fs.file_size(path)),
      position_(offset),
      marker_end_(offset),
      block_offset_(offset),
      anchor_(anchor) {
  file_ = fs.open(path, io::OpenMode::kRead);
  if (offset > 0) {
    // Resuming past a consumed marker: the header was checked on the way in.
    // A segment now shorter than that lost bytes a crash rolled back; only
    // the writer can regrow them.
    if (offset > size_) {
      fail(DefectClass::kTruncatedFrame, size_, 0);
    } else {
      file_->seek(offset);
    }
    return;
  }
  constexpr std::size_t kSegmentHeaderSize = RecordLog::kSegmentHeaderSize;
  const std::uint8_t* header =
      size_ < kSegmentHeaderSize ? nullptr : bytes_at(0, kSegmentHeaderSize);
  if (header == nullptr) {
    fail(DefectClass::kTruncatedFrame, 0, size_);  // mid-creation, or cut short
    return;
  }
  if (std::memcmp(header, RecordLog::kMagic, sizeof RecordLog::kMagic) != 0 ||
      get_u32(header + 8) != index ||
      util::unmask_crc32c(get_u32(header + 12)) != util::crc32c(header, 12)) {
    fail(DefectClass::kBadSegmentHeader, 0, kSegmentHeaderSize);
    return;
  }
  position_ = marker_end_ = kSegmentHeaderSize;
}

bool SegmentReader::fail(DefectClass reason, std::uint64_t offset,
                         std::uint64_t length) {
  stop_ = SegmentStop{reason, offset, length};
  return false;
}

const std::uint8_t* SegmentReader::bytes_at(std::uint64_t at, std::size_t n) {
  if (at + n <= block_offset_ + block_len_) return block_.data() + (at - block_offset_);
  // Slide the bytes from `at` on to the front of the block and read on
  // behind them: a block's worth, or the whole frame if it is larger, but
  // never past the size the segment had when the reader opened it.
  const auto keep = static_cast<std::size_t>(block_offset_ + block_len_ - at);
  if (keep > 0) std::memmove(block_.data(), block_.data() + (at - block_offset_), keep);
  block_offset_ = at;
  block_len_ = keep;
  const auto want = static_cast<std::size_t>(
      std::min<std::uint64_t>(std::max(n, RecordLog::kIoBlockBytes), size_ - at));
  if (block_.size() < want) block_.resize(want);
  while (block_len_ < want) {
    const std::size_t got = file_->read(block_.data() + block_len_, want - block_len_);
    if (got == 0) break;  // the file ended early: a writer's recovery cut it
    block_len_ += got;
  }
  return block_len_ >= n ? block_.data() : nullptr;
}

bool SegmentReader::next() {
  if (stop_) return false;
  constexpr std::size_t kFrameHeaderSize = RecordLog::kFrameHeaderSize;
  const std::uint64_t at = position_;
  if (at == size_) {
    // Days never span segments, so records with no marker after them end
    // the segment short of a commit.
    if (records_since_marker_ == 0) return false;
    return fail(DefectClass::kNoSealMarker, marker_end_, size_ - marker_end_);
  }
  const std::uint8_t* frame =
      at + kFrameHeaderSize > size_ ? nullptr : bytes_at(at, kFrameHeaderSize);
  if (frame == nullptr) return fail(DefectClass::kTruncatedFrame, at, size_ - at);
  const std::uint32_t len = get_u32(frame);
  if (len > kMaxFrameLen) {
    return fail(DefectClass::kBadFrameStructure, at, kFrameHeaderSize);  // can never heal
  }
  const std::uint64_t end = at + kFrameHeaderSize + len;
  frame = end > size_ ? nullptr : bytes_at(at, kFrameHeaderSize + len);
  if (frame == nullptr) return fail(DefectClass::kTruncatedFrame, at, size_ - at);
  // A complete frame with a bad CRC is never an in-flight write: the writer
  // lays every byte down in order, so only a crash or rot explains it. The
  // CRC covers the type byte and the payload, which sit next to each other.
  if (util::crc32c(frame + 8, 1 + len) != util::unmask_crc32c(get_u32(frame + 4))) {
    return fail(DefectClass::kBadFrameCrc, at, kFrameHeaderSize + len);
  }
  type_ = frame[8];
  const std::uint8_t* p = frame + kFrameHeaderSize;
  payload_ = {p, len};
  if (type_ == RecordLog::kRecordFrame && len == RecordLog::kRecordEncodedSize) {
    ++records_since_marker_;
  } else if (type_ == RecordLog::kDayMarkerFrame && len >= kMarkerFixedSize &&
             len == kMarkerFixedSize + static_cast<std::uint64_t>(get_u32(p + 20))) {
    marker_.day = static_cast<int>(get_u32(p));
    marker_.in_day = get_u64(p + 4);
    marker_.total = get_u64(p + 12);
    marker_.app_state = {p + kMarkerFixedSize, len - kMarkerFixedSize};
    if (!anchor_.admits(marker_, records_since_marker_)) {
      return fail(DefectClass::kMarkerMismatch, at, kFrameHeaderSize + len);
    }
    anchor_ = MarkerAnchor{marker_.day, marker_.total, true};
    records_since_marker_ = 0;
    marker_end_ = end;
  } else {
    return fail(DefectClass::kBadFrameStructure, at, kFrameHeaderSize + len);
  }
  position_ = end;
  return true;
}

// --- recovery / replay -------------------------------------------------------

/// Forward scan over the segment chain, ending the valid prefix at the first
/// reader stop or non-contiguous segment name; a marker-rule violation
/// throws instead. Reports the position of the last committed day marker.
struct RecordLog::Scan {
  std::vector<std::string> segments;  // listing at scan time, sorted
  std::uint32_t base = 0;             // index of the first listed segment
  bool first_header_valid = false;
  bool any_marker = false;
  std::size_t marker_seg = 0;            // listing POSITION of the last marker
  std::uint64_t marker_offset = 0;       // offset just past that marker frame
  int last_day = -1;
  std::uint64_t committed_records = 0;   // from the last marker
  std::vector<std::uint8_t> app_state;   // from the last marker
  std::uint64_t dropped_records = 0;     // complete record frames past it
};

RecordLog::Scan RecordLog::scan(io::FileSystem& fs, const std::string& directory,
                                RecordSink* sink) {
  Scan s;
  s.segments = fs.list(directory, "wal-");
  // Retention may have deleted a committed prefix of the chain: the first
  // listed name fixes the base index everything else must be contiguous
  // with. An unparseable first name means nothing in the listing is ours.
  if (!s.segments.empty()) s.base = parse_segment_name(s.segments[0]).value_or(0);
  // With a pruned chain the records before `base` are gone, so the first
  // marker's cumulative total is adopted; a chain from index 0 has nothing
  // before it, so its first marker is fully verified.
  MarkerAnchor anchor;
  anchor.total_known = s.base == 0;
  std::vector<HandoverRecord> pending;  // decoded records of the open day

  for (std::size_t si = 0; si < s.segments.size(); ++si) {
    const std::uint32_t seg_index = s.base + static_cast<std::uint32_t>(si);
    // The chain must be contiguous wal-<base>, wal-<base+1>, ...; anything
    // else (a gap, a stray file) ends the valid prefix.
    if (s.segments[si] != segment_name(seg_index)) break;
    const std::string path = directory + "/" + s.segments[si];
    SegmentReader reader{fs, path, seg_index, 0, anchor};
    if (si == 0) s.first_header_valid = reader.header_valid();
    pending.clear();
    while (reader.next()) {
      if (!reader.is_marker()) {
        if (sink != nullptr) pending.push_back(decode_record(reader.payload()));
        continue;
      }
      const DayMarker& marker = reader.marker();
      s.any_marker = true;
      s.marker_seg = si;
      s.marker_offset = reader.position();
      s.last_day = marker.day;
      s.committed_records = marker.total;
      s.app_state.assign(marker.app_state.begin(), marker.app_state.end());
      if (sink != nullptr) {
        for (const auto& r : pending) sink->consume(r);
        pending.clear();
        sink->on_day_end(marker.day);
      }
    }
    s.dropped_records = reader.records_since_marker();
    if (const std::optional<SegmentStop>& stop = reader.stop()) {
      if (stop->reason == DefectClass::kMarkerMismatch) {
        throw_marker_mismatch(path, *stop);
      }
      break;  // this and all later bytes are past the valid prefix
    }
    anchor = reader.anchor();
  }
  return s;
}

LogRecoveryReport RecordLog::open() {
  resolve_obs();
  open_ = false;
  current_.reset();
  staged_ = 0;
  streamed_ = 0;
  truncate_pending_ = false;
  buffered_records_ = 0;
  sync_govern_account();

  fs_.create_directories(options_.directory);
  if (!options_.mirror_directory.empty()) {
    fs_.create_directories(options_.mirror_directory);
    // Integrity pass BEFORE the recovery scan: restore any latently damaged
    // sealed primary from its clean mirror and catch the mirror up (covers
    // a crash between seal and mirror copy). Without this, a single flipped
    // bit in a sealed segment would make scan() truncate every committed
    // day after it. Segments damaged in BOTH copies stay damaged — the
    // writer's certified fallback is truncate-and-regenerate, which the
    // scan below performs; certified *skipping* is the reader's job
    // (follow() + FollowOptions::quarantined).
    LogIntegrity{fs_, ScrubOptions{options_.directory,
                                   options_.mirror_directory}}
        .check_and_repair();
  }
  LogRecoveryReport report;

  const Scan s = scan(fs_, options_.directory, nullptr);
  report.log_existed = !s.segments.empty();
  report.last_committed_day = s.last_day;
  report.committed_records = s.committed_records;
  report.dropped_records = s.dropped_records;
  report.app_state = s.app_state;

  // Discard everything past the last committed marker: truncate the marker's
  // segment and delete every later file in the listing.
  const std::size_t keep_seg = s.any_marker ? s.marker_seg : 0;
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
  for (std::size_t i = 0; i < s.segments.size(); ++i) {
    const std::uint64_t size = fs_.file_size(options_.directory + "/" + s.segments[i]);
    bytes_before += size;
    if (i < keep_seg) bytes_after += size;
  }
  for (std::size_t i = s.segments.size(); i-- > keep_seg + 1;) {
    fs_.remove(options_.directory + "/" + s.segments[i]);
  }
  if (s.any_marker || s.first_header_valid) {
    const std::uint64_t keep =
        s.any_marker ? s.marker_offset : static_cast<std::uint64_t>(kSegmentHeaderSize);
    fs_.truncate(segment_path(s.base + static_cast<std::uint32_t>(keep_seg)), keep);
    segment_index_ = s.base + static_cast<std::uint32_t>(keep_seg);
    segment_size_ = keep;
    current_ = fs_.open(segment_path(segment_index_), io::OpenMode::kAppend);
    bytes_after += keep;
  } else {
    // Nothing usable (fresh directory, or segment 0's header itself is
    // torn): start the chain over.
    if (!s.segments.empty()) fs_.remove(options_.directory + "/" + s.segments[0]);
    segment_index_ = 0;
    current_ = fs_.open(segment_path(0), io::OpenMode::kTruncate);
    write_segment_header(*current_, 0);
    segment_size_ = kSegmentHeaderSize;
  }
  report.dropped_bytes = bytes_before - bytes_after;
  obs_dropped_bytes_.inc(report.dropped_bytes);
  obs_dropped_records_.inc(report.dropped_records);

  last_committed_day_ = s.last_day;
  committed_records_ = s.committed_records;
  // A sealed tail segment means the crash hit between a commit and its
  // roll; redo the roll so the byte layout matches an uninterrupted run.
  if (segment_size_ >= options_.max_segment_bytes) roll_segment();
  recovery_ = report;
  open_ = true;
  return report;
}

std::uint64_t RecordLog::replay(io::FileSystem& fs, const std::string& directory,
                                RecordSink& sink) {
  const Scan s = scan(fs, directory, &sink);
  return s.committed_records;
}

std::vector<HandoverRecord> RecordLog::read_all(io::FileSystem& fs,
                                                const std::string& directory) {
  VectorSink sink;
  replay(fs, directory, sink);
  return std::move(sink.records);
}

// --- tail-follow -------------------------------------------------------------

TailReadResult RecordLog::follow(io::FileSystem& fs, const std::string& directory,
                                 LogCursor& cursor, RecordSink& sink,
                                 std::uint64_t max_days) {
  FollowOptions options;
  options.max_days = max_days;
  return follow(fs, directory, cursor, sink, options);
}

TailReadResult RecordLog::follow(io::FileSystem& fs, const std::string& directory,
                                 LogCursor& cursor, RecordSink& sink,
                                 const FollowOptions& options) {
  const auto is_quarantined = [&options](std::uint32_t segment) {
    return std::binary_search(options.quarantined.begin(),
                              options.quarantined.end(), segment);
  };
  // True between skipping a quarantined segment and the next delivered
  // marker: that marker's cumulative total is adopted (the hole's total
  // only bounds it below) instead of verified, and the gap it reveals is
  // accounted.
  bool pending_adopt = false;
  TailReadResult result;
  const std::vector<std::string> names = fs.list(directory, "wal-");
  if (names.empty()) return result;  // no log yet: caught up by definition
  const std::optional<std::uint32_t> base = parse_segment_name(names[0]);
  if (!base) {
    result.state = TailState::kTorn;  // nothing in the listing is ours
    return result;
  }
  if (cursor.fresh()) {
    cursor.segment = *base;  // start wherever retention left the chain
  } else if (cursor.segment < *base) {
    throw io::IoError{"record log tail: cursor segment " +
                      segment_name(cursor.segment) +
                      " was deleted from under the reader (" + directory + ")"};
  }
  // Cumulative counts are verifiable once the cursor has consumed a marker;
  // a fresh cursor on a pruned chain adopts the first marker's total.
  bool have_total = cursor.day >= 0 || *base == 0;

  // Scan position. The durable cursor itself only ever advances past a
  // consumed day marker (below) — never into a segment with nothing
  // committed — so a persisted cursor always pins the segment holding the
  // newest marker it has seen, and retention behind it cannot strand a
  // writer's recovery without a day high-water mark.
  std::uint32_t seg = cursor.segment;
  std::uint64_t pos = cursor.offset;
  const auto later_segment = [&] {
    return fs.exists(directory + "/" + segment_name(seg + 1));
  };
  std::vector<HandoverRecord> pending;  // records of the not-yet-marked day

  while (true) {
    if (is_quarantined(seg)) {
      // Certified loss: skip the whole segment without reading a byte. The
      // durable cursor does NOT move (it only rests past delivered markers);
      // the next surviving marker both re-anchors the totals and accounts
      // for the hole. Days never span segments, so a skip always lands on a
      // day boundary — no partial day can leak out of it.
      result.quarantine_skipped = true;
      pending_adopt = true;
      if (!later_segment()) {
        result.state = TailState::kQuarantined;  // hole reaches the end
        return result;
      }
      seg += 1;
      pos = 0;
      continue;
    }
    const std::string path = directory + "/" + segment_name(seg);
    if (!fs.exists(path)) {
      if (cursor.fresh()) return result;  // chain raced away; nothing to do
      throw io::IoError{"record log tail: cursor segment missing: " + path};
    }
    SegmentReader reader{fs, path, seg, pos,
                         MarkerAnchor{cursor.day, cursor.records,
                                      have_total && !pending_adopt}};
    pending.clear();
    while (reader.next()) {
      if (!reader.is_marker()) {
        pending.push_back(decode_record(reader.payload()));
        continue;
      }
      const DayMarker& marker = reader.marker();
      if (result.days_delivered == options.max_days) {
        result.state = TailState::kMore;  // committed data remains; re-poll
        return result;
      }
      // Commit point for the reader: deliver the whole day, then advance
      // the cursor past the marker — records and cursor move in lockstep,
      // so an exception anywhere above leaves both at the previous day.
      for (const HandoverRecord& r : pending) sink.consume(r);
      sink.on_day_end(marker.day);
      pending.clear();
      if (pending_adopt) {
        // First surviving marker past a quarantined hole: its cumulative
        // total quantifies exactly what the hole swallowed. Committed
        // together with the cursor advance, so a re-poll that skips the
        // same hole never double-counts.
        if (have_total) {
          result.records_quarantined += marker.total - marker.in_day - cursor.records;
        } else {
          result.quarantine_exact = false;  // pruned-chain base anchor gone
        }
        if (cursor.day >= 0) {
          result.days_quarantined +=
              static_cast<std::uint64_t>(marker.day - cursor.day - 1);
          if (result.quarantine_first_day < 0) {
            result.quarantine_first_day = cursor.day + 1;
          }
          result.quarantine_last_day = marker.day - 1;
        } else {
          result.quarantine_exact = false;  // first lost day unknowable
        }
        pending_adopt = false;
      }
      cursor.day = marker.day;
      cursor.records = marker.total;
      cursor.segment = seg;
      cursor.offset = reader.position();
      have_total = true;
      ++result.days_delivered;
      result.records_delivered += marker.in_day;
      result.last_app_state.assign(marker.app_state.begin(), marker.app_state.end());
    }
    if (const std::optional<SegmentStop>& stop = reader.stop()) {
      if (stop->reason == DefectClass::kMarkerMismatch) {
        throw_marker_mismatch(path, *stop);
      }
      result.state = tail_state_for(stop->reason, later_segment());
      return result;
    }
    if (!later_segment()) {
      // Caught up with the writer. A clean catch-up that skipped certified
      // holes is reported as such: complete where it counts, degraded where
      // it was certified to be.
      if (result.quarantine_skipped) result.state = TailState::kQuarantined;
      return result;
    }
    seg += 1;
    pos = 0;  // the next reader checks the new header first
  }
}

// --- record codec ------------------------------------------------------------

void RecordLog::encode_record(const HandoverRecord& r, std::uint8_t* out) noexcept {
  store_u64(out, static_cast<std::uint64_t>(r.timestamp));
  store_u64(out + 8, r.anon_user_id);
  store_u32(out + 16, r.source_sector);
  store_u32(out + 20, r.target_sector);
  store_u32(out + 24, std::bit_cast<std::uint32_t>(r.duration_ms));
  store_u32(out + 28, r.postcode);
  store_u32(out + 32, r.district);
  store_u16(out + 36, r.cause);
  store_u16(out + 38, r.manufacturer);
  out[40] = r.success ? 1 : 0;
  out[41] = static_cast<std::uint8_t>(r.source_rat);
  out[42] = static_cast<std::uint8_t>(r.target_rat);
  out[43] = static_cast<std::uint8_t>(r.device_type);
  out[44] = static_cast<std::uint8_t>(r.area);
  out[45] = static_cast<std::uint8_t>(r.region);
  out[46] = static_cast<std::uint8_t>(r.vendor);
  out[47] = r.srvcc ? 1 : 0;
  out[48] = r.attempt;
}

void RecordLog::encode_record(const HandoverRecord& r, std::vector<std::uint8_t>& out) {
  const std::size_t at = out.size();
  out.resize(at + kRecordEncodedSize);
  encode_record(r, out.data() + at);
}

HandoverRecord RecordLog::decode_record(std::span<const std::uint8_t> payload) {
  if (payload.size() != kRecordEncodedSize) {
    throw std::runtime_error{"RecordLog::decode_record: bad payload size"};
  }
  const std::uint8_t* p = payload.data();
  HandoverRecord r;
  r.timestamp = static_cast<util::TimestampMs>(get_u64(p));
  r.anon_user_id = get_u64(p + 8);
  r.source_sector = get_u32(p + 16);
  r.target_sector = get_u32(p + 20);
  r.duration_ms = std::bit_cast<float>(get_u32(p + 24));
  r.postcode = get_u32(p + 28);
  r.district = get_u32(p + 32);
  r.cause = get_u16(p + 36);
  r.manufacturer = get_u16(p + 38);
  r.success = p[40] != 0;
  r.source_rat = static_cast<topology::ObservedRat>(p[41]);
  r.target_rat = static_cast<topology::ObservedRat>(p[42]);
  r.device_type = static_cast<devices::DeviceType>(p[43]);
  r.area = static_cast<geo::AreaType>(p[44]);
  r.region = static_cast<geo::Region>(p[45]);
  r.vendor = static_cast<topology::Vendor>(p[46]);
  r.srvcc = p[47] != 0;
  r.attempt = p[48];
  return r;
}

}  // namespace tl::telemetry
