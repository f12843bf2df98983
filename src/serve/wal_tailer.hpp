#pragma once

// The serve-mode consumer: tails the record WAL as days land, keeps
// StreamAggregates current, and makes its own progress crash-durable.
//
// Protocol (the order is the correctness argument):
//
//  1. poll() runs RecordLog::follow() from the in-memory cursor, streaming
//     newly committed days into the aggregates. follow() advances records
//     and cursor in lockstep per day, so an interruption anywhere leaves
//     both at a day boundary.
//  2. Every checkpoint_every_days sealed days, checkpoint() snapshots
//     (cursor, serialized aggregates) into one file: write to
//     <checkpoint_path>.tmp, CRC32C trailer over the whole image, sync,
//     rename over checkpoint_path. The rename is the commit point; a crash
//     at any earlier step leaves the previous checkpoint intact.
//  3. Only after a checkpoint is durable may retention delete WAL segments
//     strictly behind the *durable* cursor — oldest first, so a crash
//     mid-retention leaves a contiguous chain. The WAL bytes a restart
//     needs (durable cursor -> tail) are therefore always on disk.
//
// Restart = load checkpoint (if any), re-run follow() from the durable
// cursor: days checkpointed are never re-delivered, days after the
// checkpoint are re-delivered into the restored aggregates exactly once.
// The chaos harness (tests/test_serve.cpp) kills this loop at every seeded
// I/O point and asserts the final serialized aggregates are byte-identical
// to a batch oracle's.
//
// All I/O goes through io::FileSystem, so FaultyFileSystem injects faults
// underneath. A failed poll throws with the cursor and aggregates at a day
// boundary, so the caller's next poll retries idempotently.
//
// Resource governance: when a global govern::MemoryBudget is installed, the
// tailer registers the "serve_aggregates" accountant and installs a
// DegradePolicy on its aggregates. At every day seal it syncs the
// accountant to StreamAggregates::approximate_bytes() (a pure function of
// logical state), ticks the governor's injection clock, and maps the
// hysteretic pressure level onto the degradation ladder
// (Steady -> kExact, Elevated -> kSketchOnly, Critical -> kSampled).
// Because accounted bytes and the clamp plan are pure functions of the
// delivered stream, the degradation history is deterministic — and open()
// re-seeds the governor's tick (from days_sealed) and hysteresis memory
// (from the restored level) so a kill/recover run replays the remainder of
// a pressure plan identically to an uninterrupted one.

#include <cstdint>
#include <string>
#include <vector>

#include "govern/governor.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "serve/stream_aggregates.hpp"
#include "telemetry/record_log.hpp"

namespace tl::serve {

class WalTailer {
 public:
  struct Options {
    std::string wal_directory;
    std::string checkpoint_path;
    /// Rolling report window and sketch resolution (StreamAggregates).
    std::size_t window_days = 28;
    std::size_t sketch_k = 128;
    /// Sketch-sampling modulus at DegradeLevel::kSampled (StreamAggregates).
    std::uint32_t sample_modulus = 8;
    /// Checkpoint after this many newly sealed days (>= 1).
    std::uint64_t checkpoint_every_days = 1;
    /// Delete WAL segments strictly behind the durable cursor. Off by
    /// default: retention is only safe when this tailer is the log's sole
    /// consumer of history.
    bool retention = false;
    /// Days delivered per poll() before reporting kMore, bounding the work
    /// (and the time until the caller regains control) of one poll.
    std::uint64_t max_days_per_poll = 64;
    /// Mirror chain of the WAL (RecordLog::Options::mirror_directory of the
    /// writer). When set, a torn/corrupt follow triggers a storage-integrity
    /// pass: damaged sealed segments are restored from their mirror replica
    /// (read-repair) before the poll is retried; segments damaged in both
    /// copies are quarantined with certified accounting instead of wedging
    /// the tailer. Retention deletes mirror segments in lockstep with their
    /// primaries. Empty: no redundancy — sealed damage goes straight to
    /// certified quarantine.
    std::string mirror_directory;
    /// Proactive scrub cadence: after this many newly delivered days, run a
    /// detection+repair pass even though nothing failed — latent rot is
    /// found (and repaired from the mirror) before a reader ever trips on
    /// it. 0 disables; the cadence is deterministic in the delivered-day
    /// count, never wall clock.
    std::uint64_t scrub_every_days = 0;
  };

  /// `fs` is borrowed and must outlive the tailer.
  WalTailer(io::FileSystem& fs, Options options);

  /// Loads the checkpoint if one exists (its absence means a fresh start).
  /// Throws io::IoError on a checkpoint that fails validation — that file
  /// is produced by an atomic rename, so a torn one is real corruption, and
  /// with retention on, silently starting fresh would lose history.
  /// Removes a stale .tmp from a crashed checkpoint attempt.
  void open();
  bool is_open() const noexcept { return open_; }

  struct PollResult {
    telemetry::TailState state = telemetry::TailState::kClean;
    std::uint64_t days_delivered = 0;
    std::uint64_t records_delivered = 0;
    bool checkpointed = false;
    std::uint64_t segments_retired = 0;
    /// Storage-integrity activity during this poll.
    std::uint64_t scrubs_run = 0;
    std::uint64_t segments_repaired = 0;      ///< restored from a replica
    std::uint64_t segments_quarantined = 0;   ///< newly certified lost
    std::uint64_t records_quarantined = 0;    ///< skipped past this poll
  };

  /// One tail pass: follow + (maybe) checkpoint + (maybe) retention.
  /// kMore means committed days remain beyond max_days_per_poll — call
  /// again. Throws io::IoError on unrecoverable log corruption or when any
  /// step's I/O fails (the next poll retries idempotently).
  PollResult poll();

  /// Forces a checkpoint of the current state (no-op when nothing sealed
  /// since the last one).
  void checkpoint();

  const telemetry::LogCursor& cursor() const noexcept { return cursor_; }
  /// The cursor the on-disk checkpoint holds (what a restart resumes from).
  const telemetry::LogCursor& durable_cursor() const noexcept {
    return durable_cursor_;
  }
  const StreamAggregates& aggregates() const noexcept { return aggregates_; }
  StreamAggregates::WindowReport report() const { return aggregates_.report(); }
  const Options& options() const noexcept { return options_; }

  /// Certified-loss ledger (persisted in the checkpoint, v2): segments the
  /// reader skips, and the exact day/record accounting of what they held.
  const std::vector<std::uint32_t>& quarantined_segments() const noexcept {
    return quarantined_;
  }
  std::uint64_t records_lost() const noexcept { return records_lost_; }
  std::uint64_t days_lost() const noexcept { return days_lost_; }
  bool loss_accounting_exact() const noexcept { return loss_exact_; }
  int loss_first_day() const noexcept { return loss_first_day_; }
  int loss_last_day() const noexcept { return loss_last_day_; }

  /// Runs a storage-integrity pass now (scrub + read-repair + quarantine),
  /// independent of the cadence. Returns true when it repaired or newly
  /// quarantined anything.
  bool scrub_now();

  // --- checkpoint wire format (exposed for tests) ---
  static constexpr char kCheckpointMagic[8] = {'T', 'L', 'S', 'R',
                                               'V', 'C', 'P', '1'};

 private:
  void load_checkpoint(const std::string& path);
  std::uint64_t retire_segments();
  /// One integrity pass; merges repairs/quarantine into the tailer state and
  /// (optionally) the poll result. Returns true when anything changed.
  bool run_integrity(PollResult* result);
  /// Epoch-checked obs handle refresh (open() and poll() boundaries).
  void resolve_obs();
  /// Epoch-checked governor refresh; on a governor swap the accountant is
  /// re-resolved and counted bytes restart from zero against the new slot.
  void resolve_governor();
  /// Installs the aggregates' degrade hook (re-run after any aggregates_
  /// replacement: std::function members do not survive a restore).
  void install_degrade_policy();
  /// The per-seal governor consult: sync accountant, tick, map pressure to
  /// the degradation ladder.
  StreamAggregates::DegradeDecision consult_governor();
  /// Syncs the "serve_aggregates" accountant to approximate_bytes().
  void sync_govern_account();

  io::FileSystem& fs_;
  Options options_;
  bool open_ = false;
  telemetry::LogCursor cursor_;
  telemetry::LogCursor durable_cursor_;
  bool have_checkpoint_ = false;  ///< durable_cursor_ is backed by a file
  std::uint64_t days_since_checkpoint_ = 0;
  std::uint64_t days_since_scrub_ = 0;
  bool ledger_dirty_ = false;  ///< loss ledger changed since last checkpoint
  StreamAggregates aggregates_;

  /// Certified-loss state (checkpoint v2 payload).
  std::vector<std::uint32_t> quarantined_;  // ascending
  std::uint64_t records_lost_ = 0;
  std::uint64_t days_lost_ = 0;
  bool loss_exact_ = true;
  int loss_first_day_ = -1;
  int loss_last_day_ = -1;

  govern::MemoryBudget* governor_ = nullptr;
  govern::Accountant govern_account_;  // "serve_aggregates"
  std::uint64_t govern_epoch_ = UINT64_MAX;
  std::uint64_t accounted_bytes_ = 0;

  std::uint64_t obs_epoch_ = UINT64_MAX;
  obs::Counter obs_polls_;
  obs::Counter obs_days_;
  obs::Counter obs_records_;
  obs::Counter obs_checkpoints_;
  obs::Counter obs_checkpoint_bytes_;
  obs::Counter obs_segments_retired_;
  obs::Gauge obs_cursor_day_;
  obs::Gauge obs_sketch_items_;
};

}  // namespace tl::serve
