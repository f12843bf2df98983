#pragma once

// Storage integrity for the record WAL: detection, redundancy, repair.
//
// PR 2's recovery defends the TAIL of the log — torn bytes a crash left
// past the last commit marker. This module defends the BODY: latent media
// corruption (bit rot, bad sectors) inside segments that were committed,
// fsynced, and possibly sealed months ago. Three layers:
//
//  - Detection (LogScrubber): walks every segment of a chain (and its
//    mirror) frame by frame through the same SegmentReader recovery and
//    tail-follow use, re-verifying each CRC32C, the marker rule against the
//    chain's cumulative totals, and the chain's structural invariants
//    (contiguous indices, commit-aligned seals).
//    Produces a ScrubReport of latent defects by class and byte range.
//    Unlike recovery's scan it does not stop at the first bad byte — every
//    segment is audited so repair can plan the whole chain at once.
//
//  - Redundancy + repair (LogIntegrity): with RecordLog's opt-in
//    mirror_directory every sealed segment has a CRC-verified replica.
//    check_and_repair() restores a damaged sealed primary from a clean
//    mirror (tmp + fsync, audited clean, then renamed) and a
//    missing/damaged mirror from a clean primary, journaling a RepairEvent
//    per action. The active tail segment belongs to the writer and is
//    never touched.
//
//  - Certified degradation: when BOTH copies of a sealed segment are
//    damaged, the affected segment run is quarantined instead of aborting
//    the study: the report carries the exact day range and dropped-record
//    count (anchored on the neighbouring segments' marker totals), and
//    RecordLog::follow() skips quarantined segments, resuming delivery at
//    the next clean day with TailState::kQuarantined — the storage
//    counterpart of the governor's exact -> degraded ladder.
//
// The audit trusts nothing it did not just hash: a "clean" verdict means
// every byte of the segment participated in a CRC that checked out and the
// marker arithmetic is consistent with the chain.

#include <cstdint>
#include <string>
#include <vector>

#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "telemetry/record_log.hpp"

namespace tl::telemetry {

/// One latent defect, pinned to a byte range of one copy of one segment.
struct SegmentDefect {
  std::uint32_t segment = 0;
  bool in_mirror = false;  ///< defect found in the mirror copy, not primary
  DefectClass defect = DefectClass::kBadFrameCrc;
  std::uint64_t offset = 0;  ///< first suspect byte
  std::uint64_t length = 0;  ///< suspect range (0 = unknown / whole rest)
  std::string detail;
};

/// Full audit of one segment file: the valid frame prefix, marker anchors
/// for chain accounting, and the first defect (if any): where the segment
/// reader stopped, or kChainGap for a missing file. A sealed segment is
/// `clean` only when every byte is CRC-covered and it ends at a day marker.
struct SegmentAudit {
  std::uint32_t index = 0;
  bool exists = false;
  std::uint64_t size = 0;
  bool header_valid = false;
  std::uint64_t valid_bytes = 0;  ///< CRC-verified prefix (header + frames)
  std::uint64_t frames = 0;
  std::uint64_t records = 0;
  std::uint64_t markers = 0;
  int first_day = -1;                ///< day of the first marker
  std::uint64_t first_in_day = 0;    ///< records of that first day
  std::uint64_t first_total = 0;     ///< cumulative total at the first marker
  int last_day = -1;                 ///< day of the last marker
  std::uint64_t last_total = 0;      ///< cumulative total at the last marker
  bool ends_at_marker = false;       ///< valid prefix ends exactly at a marker
  bool has_defect = false;
  DefectClass defect = DefectClass::kBadFrameCrc;
  std::uint64_t defect_offset = 0;
  std::uint64_t defect_length = 0;
  /// Sealed-segment cleanliness: fully verified and commit-terminated.
  bool clean_sealed() const noexcept {
    return exists && header_valid && !has_defect && valid_bytes == size &&
           ends_at_marker && markers > 0;
  }
};

/// Re-reads one segment file through SegmentReader and verifies every byte
/// it can. `expect_index` is the index the chain position demands (header
/// must agree). The marker rule runs with no anchor before the segment's
/// first marker; LogScrubber checks that seam across segments.
SegmentAudit audit_segment(io::FileSystem& fs, const std::string& path,
                           std::uint32_t expect_index);

struct ScrubOptions {
  std::string directory;
  /// Mirror chain to audit against (empty: primary-only scrub; mirror
  /// defect classes are then never reported).
  std::string mirror_directory;
};

/// What a detection pass saw. `defects` covers sealed segments (both
/// copies); the active tail segment is the writer's property, so its
/// irregularities surface as `tail_state` (pending/torn), not defects.
struct ScrubReport {
  std::uint64_t segments_scanned = 0;        ///< primary files examined
  std::uint64_t sealed_segments = 0;         ///< of those, sealed (non-tail)
  std::uint64_t mirror_segments_scanned = 0;
  std::uint64_t frames_scanned = 0;
  std::uint64_t records_scanned = 0;
  std::uint64_t markers_scanned = 0;
  std::uint64_t bytes_scanned = 0;
  int first_day = -1;  ///< oldest committed day still in the chain
  int last_day = -1;   ///< newest committed day
  TailState tail_state = TailState::kClean;
  std::uint64_t tail_suspect_bytes = 0;  ///< unverifiable tail-segment bytes
  std::vector<SegmentDefect> defects;
  bool clean() const noexcept { return defects.empty(); }

  /// Per-segment audits backing the summary (parallel chains, ascending
  /// index; mirror_audits empty without a mirror). Exposed so repair and
  /// tests can reuse the pass instead of re-reading the chain.
  std::vector<SegmentAudit> audits;
  std::vector<SegmentAudit> mirror_audits;
  std::uint32_t base = 0;        ///< first chain index audited
  std::uint32_t tail_index = 0;  ///< active tail segment index
  bool has_tail = false;         ///< false when the chain is empty
};

/// Detection only: audits the chain (and mirror) without modifying a byte.
class LogScrubber {
 public:
  /// `fs` is borrowed and must outlive the scrubber.
  LogScrubber(io::FileSystem& fs, ScrubOptions options);
  ScrubReport run();

 private:
  io::FileSystem& fs_;
  ScrubOptions options_;
};

/// What check_and_repair did about one segment.
enum class RepairAction : std::uint8_t {
  kPrimaryRestored = 0,  ///< damaged primary rewritten from a clean mirror
  kMirrorRestored,       ///< missing/damaged mirror rewritten from primary
  kQuarantined,          ///< both copies damaged: certified loss
};

const char* to_string(RepairAction action) noexcept;

/// Journal entry for one repair/quarantine decision.
struct RepairEvent {
  RepairAction action = RepairAction::kPrimaryRestored;
  std::uint32_t segment = 0;
  /// Day range affected. For restores: the days the segment carries. For a
  /// quarantine: the certified lost range (-1 = unknown end of an unbounded
  /// side, accounting then reports exact=false).
  int first_day = -1;
  int last_day = -1;
  std::uint64_t records_dropped = 0;  ///< quarantine only; exact iff `exact`
  bool exact = true;
  std::uint32_t crc32c = 0;  ///< whole-file CRC of the restored copy
  std::string detail;
};

/// Result of a scrub + repair pass.
struct IntegrityReport {
  ScrubReport scrub;                 ///< the detection pass repair acted on
  std::vector<RepairEvent> events;   ///< one per restored/quarantined segment
  /// Segments damaged in both copies, ascending — feed to FollowOptions so
  /// readers skip them with certified accounting.
  std::vector<std::uint32_t> quarantined_segments;
  std::uint64_t records_lost = 0;  ///< total across quarantine runs
  bool accounting_exact = true;    ///< false when an anchor marker is gone
  int quarantine_first_day = -1;
  int quarantine_last_day = -1;
  bool repaired_any() const noexcept {
    for (const RepairEvent& e : events) {
      if (e.action != RepairAction::kQuarantined) return true;
    }
    return false;
  }
  bool fully_repaired() const noexcept { return quarantined_segments.empty(); }
};

/// Scrub-then-repair over the sealed segments of a chain. The tail segment
/// is never modified (the writer's recovery owns it); quarantined segments
/// are left on disk untouched — certified skipping is the reader's job, and
/// a later operator restore (from backup) heals them retroactively.
class LogIntegrity {
 public:
  /// `fs` is borrowed and must outlive this object.
  LogIntegrity(io::FileSystem& fs, ScrubOptions options);
  IntegrityReport check_and_repair();

 private:
  void resolve_obs();

  io::FileSystem& fs_;
  ScrubOptions options_;

  std::uint64_t obs_epoch_ = UINT64_MAX;
  obs::Counter obs_scrub_runs_;
  obs::Counter obs_scrub_segments_;
  obs::Counter obs_scrub_bytes_;
  obs::Counter obs_scrub_defects_;
  obs::Counter obs_repair_primary_;
  obs::Counter obs_repair_mirror_;
  obs::Counter obs_repair_quarantined_;
  obs::Counter obs_repair_records_lost_;
};

/// CRC32C over the whole file at `path` (byte-identity oracle helper).
std::uint32_t file_crc32c(io::FileSystem& fs, const std::string& path);

/// Atomically replaces `dst` with the bytes of sealed segment `index` at
/// `src`: copy into dst.tmp, fsync, audit the tmp, rename. The tmp must audit
/// as a clean sealed segment before it may replace anything — a bit flipped
/// while reading `src` must not be recorded as a repair; otherwise the tmp
/// is removed and io::IoError thrown. Returns the copy's CRC32C.
std::uint32_t copy_file_atomic(io::FileSystem& fs, const std::string& src,
                               const std::string& dst, std::uint32_t index);

}  // namespace tl::telemetry
