#pragma once

// Crash-consistent durable persistence for the handover record stream.
//
// The operator-side pipeline ingests ~8 TB of signaling records per day;
// partial writes, torn files, and mid-run process death are operational
// reality there. This module makes the bytes on disk trustworthy:
//
//  - RecordLog: a segmented, length-prefixed, CRC32C-framed binary
//    write-ahead log of HandoverRecords. The open study day streams: each
//    record is framed in place into a staging buffer of write_chunk_bytes,
//    which goes to the active segment whenever it fills, so the writer's
//    memory does not grow with the day. commit_day() writes the rest plus a
//    *day commit marker* (which embeds an opaque application checkpoint),
//    then fsyncs — the marker hitting disk IS the commit point; the frames
//    before it are an uncommitted tail until then, which recovery drops.
//  - Recovery: open() scans segments front to back, stops at the first
//    invalid byte (bad CRC, truncated frame, torn header), truncates the
//    log back to the last committed day marker, and reports exactly what
//    was dropped. The surviving log is always a committed-day prefix of an
//    uninterrupted run — byte-identical to it, which the chaos harness
//    (tests/test_durability.cpp) proves across seeded kill schedules.
//  - Replay: a reader that streams the committed records back through the
//    ordinary RecordSink interface, so every existing analysis entry point
//    consumes a recovered log exactly like a live simulation.
//  - Tail-follow: an incremental reader (LogCursor + follow()) for a
//    long-running consumer that polls the log while a writer is still
//    appending. It delivers whole committed days exactly once, and tells
//    pending tail bytes (an in-flight commit that may yet complete) apart
//    from torn ones (provably invalid; only the writer's recovery may
//    truncate them). The serve-mode WalTailer is built on this.
//  - One read path: recovery, replay, tail-follow and the scrubber's audit
//    (telemetry/scrub.hpp) all decode segments through SegmentReader and
//    judge day markers by MarkerAnchor's one rule; they differ only in
//    what a stop means.
//
// Retention: the chain may start at any index (segments before a durable
// consumer cursor can be deleted); recovery and replay accept a contiguous
// chain wal-<base>..wal-<n> and adopt the cumulative record count from the
// first day marker when base > 0.
//
// All I/O goes through io::FileSystem so the chaos harness can inject
// short writes, EIO, failed fsyncs, and hard crash points underneath.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "govern/governor.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "telemetry/sinks.hpp"
#include "util/crc32c.hpp"

namespace tl::telemetry {

/// What open() found and did. After a clean shutdown the dropped_* fields
/// are zero; after a torn tail they say how much un-committed data the
/// recovery discarded (the resumed run regenerates it deterministically).
struct LogRecoveryReport {
  bool log_existed = false;
  int last_committed_day = -1;          // -1: nothing committed yet
  std::uint64_t committed_records = 0;  // record frames behind the last marker
  std::uint64_t dropped_bytes = 0;      // torn/uncommitted bytes truncated away
  std::uint64_t dropped_records = 0;    // complete record frames among them
  std::vector<std::uint8_t> app_state;  // checkpoint embedded in the last marker
};

/// Position of an incremental reader in the segment chain. A fresh cursor
/// sits at the chain base with nothing consumed; otherwise the offset sits
/// just past the newest *committed* day marker delivered — follow() never
/// rests a cursor inside a segment with nothing committed, so `segment`
/// always pins the segment holding that marker (and retention strictly
/// behind it can never strand a writer's recovery without its day
/// high-water mark). Writer recovery never truncates behind the last
/// committed marker, so a persisted cursor stays valid across crashes.
struct LogCursor {
  std::uint32_t segment = 0;   ///< segment index (as in the file name)
  std::uint64_t offset = 0;    ///< byte offset within that segment
  int day = -1;                ///< last day delivered through this cursor
  std::uint64_t records = 0;   ///< cumulative committed records through `day`
  /// A cursor that has never touched the log (follow() will position it at
  /// the chain base, wherever retention left that).
  bool fresh() const noexcept { return day == -1 && offset == 0; }
  friend bool operator==(const LogCursor&, const LogCursor&) = default;
};

/// What the tail looked like when follow() stopped.
enum class TailState : std::uint8_t {
  kClean = 0,  ///< cursor is at the committed end; no bytes follow
  kPending,    ///< well-formed but incomplete bytes follow (a commit may be
               ///< in flight — or a crashed writer; bytes alone cannot tell,
               ///< only the writer's recovery may truncate)
  kTorn,       ///< provably invalid bytes follow (bad CRC on a complete
               ///< frame, bad length, foreign frame type): they can never
               ///< become a valid commit; writer recovery will drop them
  kMore,       ///< stopped at max_days with committed data still unread
  kQuarantined,  ///< caught up, but quarantined segments were skipped on the
                 ///< way: the stream is certified-degraded, not complete
};

const char* to_string(TailState state) noexcept;

/// Knobs for follow() beyond the cursor itself.
struct FollowOptions {
  /// Days delivered per call before reporting kMore.
  std::uint64_t max_days = UINT64_MAX;
  /// Sealed segments certified lost by storage integrity (both replicas
  /// damaged; ascending, as produced by LogIntegrity). follow() skips them
  /// without reading a byte, adopts the next surviving marker's cumulative
  /// total, and reports the skipped range — days_quarantined /
  /// records_quarantined are exact whenever the anchor markers survive.
  std::span<const std::uint32_t> quarantined;
};

struct TailReadResult {
  TailState state = TailState::kClean;
  std::uint64_t days_delivered = 0;
  std::uint64_t records_delivered = 0;
  /// Checkpoint payload embedded in the newest marker delivered (empty when
  /// none was, or the writer committed without app state).
  std::vector<std::uint8_t> last_app_state;
  /// Quarantine accounting for this call (non-zero only when quarantined
  /// segments were actually skipped between the cursor and the end).
  bool quarantine_skipped = false;   ///< at least one segment was skipped
  std::uint64_t days_quarantined = 0;
  std::uint64_t records_quarantined = 0;
  bool quarantine_exact = true;  ///< false when an anchor marker is missing
  int quarantine_first_day = -1;
  int quarantine_last_day = -1;
};

/// Why a segment reader stopped before a clean end of its segment. The
/// scrubber reports the same classes as latent defects.
enum class DefectClass : std::uint8_t {
  kBadSegmentHeader = 0,  ///< magic/index/CRC of the 16-byte header invalid
  kBadFrameCrc,           ///< complete frame whose payload CRC32C mismatches
  kTruncatedFrame,        ///< segment header, frame header or payload runs
                          ///< past end of file
  kBadFrameStructure,     ///< foreign frame type or malformed marker payload
  kMarkerMismatch,        ///< CRC-valid marker breaking the marker rule
  kNoSealMarker,          ///< segment does not end at a day marker (its
                          ///< last day is unmarked, or it has none)
  kChainGap,              ///< expected segment file missing entirely
  kMirrorMissing,         ///< sealed primary has no mirror replica
  kMirrorDiverged,        ///< mirror bytes differ from a clean primary
};

const char* to_string(DefectClass defect) noexcept;

/// The tail rule shared by follow() and the scrubber's tail_state: a stop
/// that later bytes may still complete (a truncated frame, a short header,
/// a day with no marker yet) is pending while no later segment exists.
/// Rolls are commit-aligned, so a sealed segment never grows: there, and
/// for every other stop, the bytes are torn.
TailState tail_state_for(DefectClass stop, bool later_segment) noexcept;

class RecordLog {
 public:
  /// The WAL's I/O block: SegmentReader reads segments in blocks of this
  /// size, and it is the writer's default write_chunk_bytes.
  static constexpr std::size_t kIoBlockBytes = 64 * 1024;

  struct Options {
    std::string directory;
    /// Commit-aligned segment roll threshold: a segment that reaches this
    /// size after a commit is sealed and a fresh one is started.
    std::uint64_t max_segment_bytes = 64ull << 20;
    /// Size of the staging buffer and of every write: the open day reaches
    /// the segment in chunks of exactly this many bytes (the last one of a
    /// commit may be shorter), so the writer holds at most one chunk plus
    /// one frame, and a crash can land between any two chunks. The default
    /// is the reader's block (64 KiB); the chunk size never changes a byte
    /// on disk, only how many writes lay them down.
    std::size_t write_chunk_bytes = kIoBlockBytes;
    /// Opt-in segment mirroring: when set, every segment is copied here at
    /// seal time (tmp + fsync + rename, read back and CRC-verified), and
    /// open() first runs a storage-integrity pass — restoring any damaged
    /// sealed primary from its clean mirror (and catching the mirror up)
    /// BEFORE recovery scans the chain, so a single-copy latent defect
    /// never costs committed days. The active tail segment is not mirrored
    /// (its torn-tail story is recovery + deterministic regeneration).
    std::string mirror_directory;
  };

  /// `fs` is borrowed and must outlive the log.
  RecordLog(io::FileSystem& fs, Options options);
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Recovers the on-disk state (creating the directory and first segment
  /// if absent) and arms the writer. Must be called before append/commit;
  /// call again to re-arm after an IoError aborted a commit. Throws
  /// io::IoError when a CRC-valid day marker breaks the marker rule (counts
  /// disagreeing with the frames, a day that does not ascend): that is a
  /// writer bug or tampering, not a torn tail to truncate.
  LogRecoveryReport open();
  bool is_open() const noexcept { return open_; }
  /// Report of the most recent open().
  const LogRecoveryReport& recovery() const noexcept { return recovery_; }

  /// Frames one record of the current day into the staging buffer, and
  /// writes the buffer's first write_chunk_bytes to the segment when it
  /// fills. Allocates nothing. A failed write disarms the log, as a failed
  /// commit does (re-open to recover), and the error propagates.
  void append(const HandoverRecord& record);

  /// Durably commits the open day: writes the staged rest of its record
  /// frames and a day marker carrying `app_state` (e.g. a serialized
  /// simulator checkpoint), then fsyncs. On any I/O failure the log disarms
  /// (recovery on the next open() discards the partial day) and the error
  /// propagates. Days must be committed in increasing order.
  void commit_day(int day, std::span<const std::uint8_t> app_state);

  /// Drops the open day without any I/O. The simulator's day-rollback path
  /// calls this when a day aborts after some records were already appended
  /// — otherwise the next commit_day would smuggle the aborted day's partial
  /// records into a later day. The staged bytes are dropped; frames that
  /// already reached the segment are truncated back to the last marker by
  /// the next write, or by open()'s recovery if the log is closed first.
  void discard_day() noexcept;

  int last_committed_day() const noexcept { return last_committed_day_; }
  std::uint64_t committed_records() const noexcept { return committed_records_; }
  std::size_t buffered_records() const noexcept { return buffered_records_; }

  /// Streams every committed record of the log at `directory` into `sink`,
  /// calling sink.on_day_end() at each day marker — a recovered log replays
  /// into the analysis entry points exactly like a live run. Returns the
  /// number of records delivered. Uncommitted tail data is ignored (not
  /// modified; use open() to truncate it). Like open(), throws io::IoError
  /// on a CRC-valid marker that breaks the marker rule.
  static std::uint64_t replay(io::FileSystem& fs, const std::string& directory,
                              RecordSink& sink);

  /// Convenience: all committed records, in order.
  static std::vector<HandoverRecord> read_all(io::FileSystem& fs,
                                              const std::string& directory);

  /// Tail-follow: delivers every committed day between `cursor` and the end
  /// of the log into `sink` (records first, then on_day_end), advancing the
  /// cursor past each day marker as it is delivered — whole days, exactly
  /// once, across any number of calls and process restarts (persist the
  /// cursor to resume). Safe to call while a writer is appending: the open
  /// day streamed past the last marker is reported as kPending, never torn
  /// and never delivered twice. Delivers at most `max_days` days per call so a
  /// poll loop keeps bounded latency (kMore = call again).
  ///
  /// Throws io::IoError when the chain is corrupt in a way bytes cannot
  /// explain away (marker counts disagreeing with frames, non-monotonic
  /// days, the cursor's segment deleted from under it). Note: CRC-valid
  /// frames are trusted even before the writer's fsync; if the writer can
  /// lose committed-but-unsynced data it must regenerate the same bytes on
  /// recovery (ours does, deterministically), or the cursor waits at
  /// kPending until the tail regrows.
  static TailReadResult follow(io::FileSystem& fs, const std::string& directory,
                               LogCursor& cursor, RecordSink& sink,
                               std::uint64_t max_days = UINT64_MAX);

  /// follow() with certified-degradation support: segments listed in
  /// `options.quarantined` are skipped without being read, delivery resumes
  /// at the next surviving day, and the result carries the skipped range's
  /// exact day/record accounting (anchored on the marker totals around the
  /// hole). A call that skipped anything and would otherwise be kClean
  /// reports kQuarantined — the caller knows the stream is degraded, never
  /// wrong. Accounting for a skip whose closing anchor has not landed yet
  /// is deferred to the poll that first delivers a day past the hole.
  static TailReadResult follow(io::FileSystem& fs, const std::string& directory,
                               LogCursor& cursor, RecordSink& sink,
                               const FollowOptions& options);

  // --- wire format (exposed for tests and the design doc) ---
  static constexpr char kMagic[8] = {'T', 'L', 'W', 'A', 'L', 'O', 'G', '1'};
  static constexpr std::size_t kSegmentHeaderSize = 16;  // magic + index + crc
  static constexpr std::size_t kFrameHeaderSize = 9;     // len + crc + type
  static constexpr std::uint8_t kRecordFrame = 1;
  static constexpr std::uint8_t kDayMarkerFrame = 2;
  static constexpr std::size_t kRecordEncodedSize = 49;
  static constexpr std::size_t kRecordFrameSize = kFrameHeaderSize + kRecordEncodedSize;

  /// The one record payload encoder: writes kRecordEncodedSize bytes at
  /// `out`. Allocates nothing.
  static void encode_record(const HandoverRecord& record, std::uint8_t* out) noexcept;
  /// Appends the payload to `out`.
  static void encode_record(const HandoverRecord& record,
                            std::vector<std::uint8_t>& out);
  /// Throws std::runtime_error on a malformed payload.
  static HandoverRecord decode_record(std::span<const std::uint8_t> payload);
  static std::string segment_name(std::uint32_t index);
  /// Inverse of segment_name(): the index of a name this module would
  /// produce, or nothing for any other file.
  static std::optional<std::uint32_t> parse_segment_name(const std::string& name);

 private:
  struct Scan;
  static Scan scan(io::FileSystem& fs, const std::string& directory,
                   RecordSink* sink);
  /// Copies `bytes` into the staging buffer, writing each chunk it fills.
  void stage(std::span<const std::uint8_t> bytes);
  /// Writes the first `n` staged bytes to the segment (truncating a
  /// discarded day's frames away first) and keeps the rest staged.
  void write_staged(std::size_t n);
  void roll_segment();
  /// Seal-time mirroring: copies the just-sealed segment into
  /// mirror_directory (atomic + CRC-verified). No-op when mirroring is off.
  void mirror_sealed_segment(std::uint32_t index);
  void write_segment_header(io::File& file, std::uint32_t index);
  std::string segment_path(std::uint32_t index) const;
  /// Epoch-checked obs handle refresh; called at open() and commit_day()
  /// (both single-threaded boundaries). Logs outlive registry swaps.
  void resolve_obs();
  /// Epoch-checked governor accountant refresh plus staging capacity sync.
  /// Same boundaries as resolve_obs; on a governor swap the counted bytes
  /// restart from zero against the new slot (the obs contract: the old
  /// governor is gone, its totals with it).
  void sync_govern_account();

  io::FileSystem& fs_;
  Options options_;
  LogRecoveryReport recovery_;
  bool open_ = false;

  std::unique_ptr<io::File> current_;  // append handle for the tail segment
  std::uint32_t segment_index_ = 0;
  std::uint64_t segment_size_ = 0;  // committed bytes: just past the last marker

  int last_committed_day_ = -1;
  std::uint64_t committed_records_ = 0;

  // The open day: frames not yet written (one chunk plus one record frame
  // of capacity, allocated once), the bytes of it already written past
  // segment_size_, and whether a discarded day left such bytes behind.
  std::vector<std::uint8_t> staging_;
  std::size_t staged_ = 0;
  std::uint64_t streamed_ = 0;
  bool truncate_pending_ = false;
  std::size_t buffered_records_ = 0;

  govern::Accountant govern_account_;  // staging capacity, "wal_day_buffer"
  std::uint64_t govern_epoch_ = UINT64_MAX;
  std::uint64_t accounted_bytes_ = 0;

  std::uint64_t obs_epoch_ = UINT64_MAX;
  obs::Counter obs_bytes_;
  obs::Counter obs_records_;
  obs::Counter obs_fsyncs_;
  obs::Counter obs_segments_;
  obs::Counter obs_dropped_bytes_;
  obs::Counter obs_dropped_records_;
  obs::Histogram obs_commit_seconds_;
};

/// One decoded day-commit marker. `app_state` views the reader's block and
/// is valid until its next next().
struct DayMarker {
  int day = -1;
  std::uint64_t in_day = 0;  ///< record frames committed with this day
  std::uint64_t total = 0;   ///< cumulative records through this day
  std::span<const std::uint8_t> app_state;
};

/// What a reader knows of the marker before its next one: the previous
/// day, and the previous cumulative total if the chain behind it is whole.
struct MarkerAnchor {
  int day = -1;
  std::uint64_t total = 0;
  /// False on a retention-pruned chain before its first marker, or across
  /// a quarantined hole: the total then only bounds the next one below.
  bool total_known = false;

  /// The one day-marker rule. `records` counts the record frames read
  /// since the anchor. The in-day count must equal them, the day must be
  /// strictly above the anchor's, and the total must be the anchor's plus
  /// the in-day count (at least that when the anchor's total is unknown).
  bool admits(const DayMarker& marker, std::uint64_t records) const noexcept;
};

/// Where and why a SegmentReader stopped.
struct SegmentStop {
  DefectClass reason = DefectClass::kBadFrameCrc;
  std::uint64_t offset = 0;  ///< first suspect byte
  std::uint64_t length = 0;  ///< suspect range
};

/// The WAL's one decoder: reads one segment file front to back in blocks of
/// RecordLog::kIoBlockBytes and verifies each frame in place in its block.
/// From offset 0 it first checks the segment header (magic, index, CRC); a
/// caller resuming past a marker it already consumed passes that offset
/// instead. Each frame gets one length guard, one bounds check against the
/// size the segment had when the reader opened it, and one CRC32C over its
/// type byte and payload; a marker is decoded once and must pass `anchor`'s
/// rule, after which it becomes the anchor. The block grows only for a frame
/// larger than itself, and a short read is not end of file: only a read
/// that returns nothing is. At the first bad byte, or at the end of a
/// segment whose last day has no marker, the reader stops and reports where
/// and why (stop()); what a stop means is the caller's business.
class SegmentReader {
 public:
  /// Throws io::IoError when the file cannot be opened or sized.
  SegmentReader(io::FileSystem& fs, const std::string& path, std::uint32_t index,
                std::uint64_t offset = 0, MarkerAnchor anchor = {});

  /// Reads the next frame. False at the clean end of the segment or at a
  /// stop.
  bool next();

  bool is_marker() const noexcept { return type_ == RecordLog::kDayMarkerFrame; }
  /// The current frame's payload (a record for record frames). Views the
  /// block, so it is valid until the next next().
  std::span<const std::uint8_t> payload() const noexcept { return payload_; }
  /// The current frame's marker; valid when is_marker().
  const DayMarker& marker() const noexcept { return marker_; }

  std::uint64_t size() const noexcept { return size_; }
  /// Offset just past the last frame read: the verified prefix. Stays 0
  /// while the segment header has not checked out.
  std::uint64_t position() const noexcept { return position_; }
  bool header_valid() const noexcept { return position_ > 0; }
  std::uint64_t records_since_marker() const noexcept { return records_since_marker_; }
  const MarkerAnchor& anchor() const noexcept { return anchor_; }
  const std::optional<SegmentStop>& stop() const noexcept { return stop_; }

 private:
  bool fail(DefectClass reason, std::uint64_t offset, std::uint64_t length);
  /// Returns the `n` bytes at file offset `at` (which the caller has checked
  /// against size_) from the block, reading on from the file when they are
  /// not all there yet; nullptr when the file ends first.
  const std::uint8_t* bytes_at(std::uint64_t at, std::size_t n);

  std::unique_ptr<io::File> file_;
  std::uint64_t size_ = 0;
  std::uint64_t position_ = 0;
  std::uint64_t marker_end_ = 0;  // offset just past the newest marker
  std::uint64_t records_since_marker_ = 0;
  std::uint8_t type_ = 0;
  // block_[0, block_len_) holds the file's bytes from block_offset_ on; the
  // file's read position is always block_offset_ + block_len_.
  std::vector<std::uint8_t> block_;
  std::uint64_t block_offset_ = 0;
  std::size_t block_len_ = 0;
  std::span<const std::uint8_t> payload_;
  DayMarker marker_;
  MarkerAnchor anchor_;
  std::optional<SegmentStop> stop_;
};

/// RecordSink adapter: streams each simulated day into a RecordLog and
/// commits it at on_day_end. When a checkpoint provider is set (the
/// simulator installs one), its bytes ride inside the day marker, making
/// "records through day D" and "resume state after day D" one atomic unit.
class DurableRecordSink final : public RecordSink {
 public:
  using CheckpointProvider = std::function<std::vector<std::uint8_t>()>;

  /// `log` is borrowed; open() it before the first simulated day.
  explicit DurableRecordSink(RecordLog& log) : log_(log) {}

  void set_checkpoint_provider(CheckpointProvider provider) {
    provider_ = std::move(provider);
  }

  void consume(const HandoverRecord& record) override { log_.append(record); }
  void on_day_end(int day) override {
    std::vector<std::uint8_t> state;
    if (provider_) state = provider_();
    log_.commit_day(day, state);
  }

  RecordLog& log() noexcept { return log_; }
  const RecordLog& log() const noexcept { return log_; }

 private:
  RecordLog& log_;
  CheckpointProvider provider_;
};

/// RecordSink that fingerprints a stream: CRC32C over every record's
/// encode_record payload, plus the record count. Two streams with equal
/// checksums and counts carry the same records in the same order.
class ChecksumSink final : public RecordSink {
 public:
  void consume(const HandoverRecord& record) override {
    std::array<std::uint8_t, RecordLog::kRecordEncodedSize> payload{};
    RecordLog::encode_record(record, payload.data());
    crc_.update(payload.data(), payload.size());
    ++records_;
  }

  std::uint32_t checksum() const noexcept { return crc_.value(); }
  std::uint64_t records() const noexcept { return records_; }

 private:
  util::Crc32c crc_;
  std::uint64_t records_ = 0;
};

}  // namespace tl::telemetry
