#include "serve/wal_tailer.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "telemetry/scrub.hpp"
#include "util/byte_codec.hpp"
#include "util/crc32c.hpp"

namespace tl::serve {
namespace {

constexpr std::uint8_t kCheckpointVersion = 1;
// v2 appends the certified-loss ledger (quarantined segments + accounting)
// after the aggregates payload; a v1 file (no losses ever certified) is
// still accepted, and a tailer with an empty ledger still writes v1 — the
// formats only diverge once data was actually lost.
constexpr std::uint8_t kCheckpointVersionQuarantine = 2;
// magic + version + cursor (4+8+4+8) + payload length + CRC trailer.
constexpr std::size_t kCheckpointOverhead = 8 + 1 + 24 + 8 + 4;
// v2 ledger: segment count + records/days lost + day range + exact flag.
constexpr std::size_t kLossLedgerMinBytes = 4 + 8 + 8 + 4 + 4 + 1;

using util::get_u32;
using util::get_u64;
using util::put_u32;
using util::put_u64;

DegradeLevel ladder_for(govern::PressureLevel pressure) noexcept {
  switch (pressure) {
    case govern::PressureLevel::kSteady: return DegradeLevel::kExact;
    case govern::PressureLevel::kElevated: return DegradeLevel::kSketchOnly;
    case govern::PressureLevel::kCritical: return DegradeLevel::kSampled;
  }
  return DegradeLevel::kExact;
}

govern::PressureLevel pressure_for(DegradeLevel level) noexcept {
  switch (level) {
    case DegradeLevel::kExact: return govern::PressureLevel::kSteady;
    case DegradeLevel::kSketchOnly: return govern::PressureLevel::kElevated;
    case DegradeLevel::kSampled: return govern::PressureLevel::kCritical;
  }
  return govern::PressureLevel::kSteady;
}

}  // namespace

WalTailer::WalTailer(io::FileSystem& fs, Options options)
    : fs_(fs),
      options_(std::move(options)),
      aggregates_(StreamAggregates::Options{options_.window_days,
                                            options_.sketch_k,
                                            options_.sample_modulus}) {
  if (options_.wal_directory.empty() || options_.checkpoint_path.empty()) {
    throw std::invalid_argument{
        "WalTailer: wal_directory and checkpoint_path are required"};
  }
  if (options_.checkpoint_every_days == 0) {
    throw std::invalid_argument{"WalTailer: checkpoint_every_days must be >= 1"};
  }
  if (options_.max_days_per_poll == 0) {
    throw std::invalid_argument{"WalTailer: max_days_per_poll must be >= 1"};
  }
}

void WalTailer::open() {
  resolve_obs();
  resolve_governor();
  // A .tmp is a checkpoint attempt that died before its rename: the real
  // checkpoint (if any) is still intact, the tmp is garbage.
  const std::string tmp = options_.checkpoint_path + ".tmp";
  if (fs_.exists(tmp)) fs_.remove(tmp);
  if (fs_.exists(options_.checkpoint_path)) {
    load_checkpoint(options_.checkpoint_path);
  }
  install_degrade_policy();
  if (governor_ != nullptr) {
    // Re-seed the governor's deterministic state from the recovered
    // aggregates so the remainder of a pressure plan replays exactly as an
    // uninterrupted run: the injection clock ticks once per sealed day, and
    // the hysteresis memory is whatever level the last seal decided.
    governor_->set_tick(aggregates_.days_sealed());
    governor_->set_level(pressure_for(aggregates_.level()));
    sync_govern_account();
  }
  open_ = true;
}

void WalTailer::resolve_governor() {
  const std::uint64_t epoch = govern::global_epoch();
  if (epoch == govern_epoch_) return;
  govern_epoch_ = epoch;
  governor_ = govern::global_governor();
  govern_account_ = governor_ != nullptr
                        ? governor_->accountant("serve_aggregates")
                        : govern::Accountant{};
  accounted_bytes_ = 0;
}

void WalTailer::sync_govern_account() {
  const std::uint64_t now = aggregates_.approximate_bytes();
  if (now >= accounted_bytes_) {
    govern_account_.add(now - accounted_bytes_);
  } else {
    govern_account_.sub(accounted_bytes_ - now);
  }
  accounted_bytes_ = now;
}

void WalTailer::install_degrade_policy() {
  aggregates_.set_degrade_policy(
      [this](int) { return consult_governor(); });
}

StreamAggregates::DegradeDecision WalTailer::consult_governor() {
  StreamAggregates::DegradeDecision decision;
  decision.level = aggregates_.level();
  if (governor_ == nullptr) return decision;  // governance off: hold level
  sync_govern_account();
  governor_->tick();
  decision.level = ladder_for(governor_->level());
  decision.used_bytes = governor_->used_bytes();
  decision.budget_bytes = governor_->budget_bytes();
  return decision;
}

void WalTailer::load_checkpoint(const std::string& path) {
  const std::vector<std::uint8_t> bytes = io::read_file(fs_, path);
  if (bytes.size() < kCheckpointOverhead) {
    throw io::IoError{"serve checkpoint truncated: " + path};
  }
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t stored = util::unmask_crc32c(get_u32(bytes.data() + body));
  if (stored != util::crc32c(bytes.data(), body)) {
    throw io::IoError{"serve checkpoint CRC mismatch: " + path};
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof kCheckpointMagic) != 0 ||
      (bytes[8] != kCheckpointVersion &&
       bytes[8] != kCheckpointVersionQuarantine)) {
    throw io::IoError{"serve checkpoint bad magic/version: " + path};
  }
  const bool has_ledger = bytes[8] == kCheckpointVersionQuarantine;
  telemetry::LogCursor cursor;
  cursor.segment = get_u32(bytes.data() + 9);
  cursor.offset = get_u64(bytes.data() + 13);
  cursor.day = static_cast<std::int32_t>(get_u32(bytes.data() + 21));
  cursor.records = get_u64(bytes.data() + 25);
  const std::uint64_t payload_len = get_u64(bytes.data() + 33);
  const std::uint64_t fixed_len = body - (kCheckpointOverhead - 4);
  // Checked before any arithmetic on it: a huge length would wrap the sums
  // below and point the ledger and aggregate reads past the file.
  if (payload_len > fixed_len ||
      (has_ledger ? payload_len + kLossLedgerMinBytes > fixed_len
                  : payload_len != fixed_len)) {
    throw io::IoError{"serve checkpoint payload length mismatch: " + path};
  }
  std::vector<std::uint32_t> quarantined;
  std::uint64_t records_lost = 0, days_lost = 0;
  bool loss_exact = true;
  int loss_first = -1, loss_last = -1;
  if (has_ledger) {
    const std::uint8_t* p = bytes.data() + 41 + payload_len;
    const std::uint32_t count = get_u32(p);
    if (payload_len + kLossLedgerMinBytes + 4ull * count != fixed_len) {
      throw io::IoError{"serve checkpoint loss-ledger length mismatch: " + path};
    }
    p += 4;
    quarantined.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i, p += 4) {
      quarantined.push_back(get_u32(p));
    }
    records_lost = get_u64(p);
    days_lost = get_u64(p + 8);
    loss_first = static_cast<std::int32_t>(get_u32(p + 16));
    loss_last = static_cast<std::int32_t>(get_u32(p + 20));
    loss_exact = p[24] != 0;
  }
  StreamAggregates aggs = [&] {
    try {
      return StreamAggregates::deserialize(
          std::span<const std::uint8_t>(bytes.data() + 41, payload_len));
    } catch (const std::runtime_error& error) {
      throw io::IoError{"serve checkpoint aggregate state invalid (" + path +
                        "): " + error.what()};
    }
  }();
  if (aggs.options().window_days != options_.window_days ||
      aggs.options().sketch_k != options_.sketch_k ||
      aggs.options().sample_modulus != options_.sample_modulus) {
    throw io::IoError{
        "serve checkpoint was written with different window/sketch options; "
        "refusing to mix streams (" + path + ")"};
  }
  if (cursor.day != aggs.last_sealed_day()) {
    throw io::IoError{
        "serve checkpoint cursor and aggregates disagree on the last day: " +
        path};
  }
  cursor_ = cursor;
  durable_cursor_ = cursor;
  have_checkpoint_ = true;
  days_since_checkpoint_ = 0;
  aggregates_ = std::move(aggs);
  quarantined_ = std::move(quarantined);
  records_lost_ = records_lost;
  days_lost_ = days_lost;
  loss_exact_ = loss_exact;
  loss_first_day_ = loss_first;
  loss_last_day_ = loss_last;
}

void WalTailer::checkpoint() {
  if (!open_) throw std::logic_error{"WalTailer: open() before checkpoint()"};
  if (have_checkpoint_ && days_since_checkpoint_ == 0 && !ledger_dirty_) return;
  if (!have_checkpoint_ && aggregates_.days_sealed() == 0 && !ledger_dirty_) {
    return;
  }

  // Until a loss is certified the image stays byte-for-byte a v1 file; the
  // ledger (and the version bump) only appear once there is one to keep.
  const bool ledger = !quarantined_.empty() || records_lost_ > 0 ||
                      days_lost_ > 0 || !loss_exact_;
  std::vector<std::uint8_t> bytes;
  bytes.insert(bytes.end(), kCheckpointMagic,
               kCheckpointMagic + sizeof kCheckpointMagic);
  bytes.push_back(ledger ? kCheckpointVersionQuarantine : kCheckpointVersion);
  put_u32(bytes, cursor_.segment);
  put_u64(bytes, cursor_.offset);
  put_u32(bytes, static_cast<std::uint32_t>(cursor_.day));
  put_u64(bytes, cursor_.records);
  std::vector<std::uint8_t> payload;
  aggregates_.serialize(payload);
  put_u64(bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  if (ledger) {
    put_u32(bytes, static_cast<std::uint32_t>(quarantined_.size()));
    for (const std::uint32_t seg : quarantined_) put_u32(bytes, seg);
    put_u64(bytes, records_lost_);
    put_u64(bytes, days_lost_);
    put_u32(bytes, static_cast<std::uint32_t>(loss_first_day_));
    put_u32(bytes, static_cast<std::uint32_t>(loss_last_day_));
    bytes.push_back(loss_exact_ ? 1 : 0);
  }
  put_u32(bytes, util::mask_crc32c(util::crc32c(bytes.data(), bytes.size())));

  // The rename is the commit point. Any failure or crash before it leaves
  // the previous checkpoint untouched (open() sweeps the tmp); after it the
  // new one is complete and CRC-sealed.
  io::write_file_atomic(fs_, options_.checkpoint_path, bytes);

  durable_cursor_ = cursor_;
  have_checkpoint_ = true;
  days_since_checkpoint_ = 0;
  ledger_dirty_ = false;
  obs_checkpoints_.inc();
  obs_checkpoint_bytes_.inc(bytes.size());
}

WalTailer::PollResult WalTailer::poll() {
  if (!open_) throw std::logic_error{"WalTailer: open() before poll()"};
  resolve_obs();
  resolve_governor();
  PollResult result;

  // Fold one follow attempt into the poll result and the certified-loss
  // ledger. Quarantine accounting commits inside follow() in the same step
  // as the cursor advance past the hole, so absorbing every attempt (not
  // just the final one) is what keeps the ledger exactly-once: an attempt
  // that crossed a hole and then stopped (kTorn, kMore) already carries the
  // hole's numbers, and a re-poll of the same hole contributes zero.
  const auto absorb = [&](const telemetry::TailReadResult& t) {
    result.days_delivered += t.days_delivered;
    result.records_delivered += t.records_delivered;
    days_since_checkpoint_ += t.days_delivered;
    days_since_scrub_ += t.days_delivered;
    if (t.days_quarantined > 0 || t.records_quarantined > 0 ||
        !t.quarantine_exact) {
      records_lost_ += t.records_quarantined;
      days_lost_ += t.days_quarantined;
      result.records_quarantined += t.records_quarantined;
      if (!t.quarantine_exact) loss_exact_ = false;
      if (t.quarantine_first_day >= 0 &&
          (loss_first_day_ < 0 || t.quarantine_first_day < loss_first_day_)) {
        loss_first_day_ = t.quarantine_first_day;
      }
      if (t.quarantine_last_day > loss_last_day_) {
        loss_last_day_ = t.quarantine_last_day;
      }
      ledger_dirty_ = true;
    }
  };

  telemetry::FollowOptions fopts;
  fopts.max_days = options_.max_days_per_poll;
  telemetry::TailReadResult tail;
  bool integrity_ran = false;
  for (;;) {
    fopts.quarantined = quarantined_;  // may have grown since last attempt
    const std::uint32_t segment_before = cursor_.segment;
    try {
      tail = telemetry::RecordLog::follow(fs_, options_.wal_directory, cursor_,
                                          aggregates_, fopts);
    } catch (const io::IoError&) {
      // The attempt's result died with the exception. If the attempt had
      // already crossed a quarantined hole (cursor only passes a hole when
      // the post-hole marker is delivered), the accounting it carried is
      // gone — certify the ledger inexact rather than undercount silently.
      for (const std::uint32_t q : quarantined_) {
        if (q >= segment_before && q < cursor_.segment) {
          loss_exact_ = false;
          ledger_dirty_ = true;
        }
      }
      // Structurally impossible chain under the cursor: run one storage-
      // integrity pass (read-repair from the mirror, else certified
      // quarantine) and retry; if integrity changes nothing, it is real.
      if (integrity_ran || !run_integrity(&result)) throw;
      integrity_ran = true;
      continue;
    }
    absorb(tail);
    if (tail.state == telemetry::TailState::kTorn && !integrity_ran) {
      // A complete frame with a bad CRC: latent rot in a sealed region is
      // repairable (or certifiable); a torn writer tail is the writer's
      // recovery to redo — retry only when integrity actually changed
      // something, else surface the torn state as before.
      integrity_ran = true;
      if (run_integrity(&result)) continue;
    }
    break;
  }
  result.state = tail.state;

  // Proactive scrub cadence — deterministic in the delivered-day count.
  // Runs before the checkpoint so a quarantine it certifies lands in the
  // same durable image as the cursor that will skip it.
  if (options_.scrub_every_days > 0 &&
      days_since_scrub_ >= options_.scrub_every_days) {
    days_since_scrub_ = 0;
    run_integrity(&result);
  }

  if (days_since_checkpoint_ >= options_.checkpoint_every_days ||
      ledger_dirty_) {
    checkpoint();
    result.checkpointed = true;
  }
  if (options_.retention && have_checkpoint_) {
    result.segments_retired = retire_segments();
  }

  // Keep the accountant fresh between seals too (open-day sketch growth);
  // degrade decisions still read only the seal-time sync in
  // consult_governor, so this does not affect determinism.
  if (governor_ != nullptr) sync_govern_account();

  obs_polls_.inc();
  obs_days_.inc(result.days_delivered);
  obs_records_.inc(result.records_delivered);
  obs_cursor_day_.set(static_cast<double>(cursor_.day));
  obs_sketch_items_.set(static_cast<double>(aggregates_.stored_sketch_items()));
  return result;
}

bool WalTailer::run_integrity(PollResult* result) {
  telemetry::LogIntegrity integrity{
      fs_, telemetry::ScrubOptions{options_.wal_directory,
                                   options_.mirror_directory}};
  const telemetry::IntegrityReport report = integrity.check_and_repair();
  if (result != nullptr) ++result->scrubs_run;
  std::uint64_t repaired = 0;
  for (const telemetry::RepairEvent& e : report.events) {
    if (e.action != telemetry::RepairAction::kQuarantined) ++repaired;
  }
  // The ledger's day/record numbers accumulate at skip time in follow()
  // (they anchor on what the reader actually passes over); here we only
  // adopt the set of segments certified unreadable.
  std::uint64_t newly_quarantined = 0;
  for (const std::uint32_t seg : report.quarantined_segments) {
    if (!std::binary_search(quarantined_.begin(), quarantined_.end(), seg)) {
      quarantined_.push_back(seg);
      ++newly_quarantined;
    }
  }
  if (newly_quarantined > 0) {
    std::sort(quarantined_.begin(), quarantined_.end());
    ledger_dirty_ = true;
    // A hole with no closing marker anchor (e.g. at the very end of the
    // chain, tail still empty) cannot be counted until the writer commits
    // past it; until then the ledger must not claim exactness.
    if (!report.accounting_exact) loss_exact_ = false;
  }
  if (result != nullptr) {
    result->segments_repaired += repaired;
    result->segments_quarantined += newly_quarantined;
  }
  return repaired > 0 || newly_quarantined > 0;
}

bool WalTailer::scrub_now() {
  if (!open_) throw std::logic_error{"WalTailer: open() before scrub_now()"};
  resolve_obs();
  PollResult scratch;
  const bool changed = run_integrity(&scratch);
  days_since_scrub_ = 0;
  if (changed && ledger_dirty_) checkpoint();
  return changed;
}

std::uint64_t WalTailer::retire_segments() {
  // Strictly behind the *durable* cursor: a restart replays from the
  // checkpoint, so every byte at or after its segment must stay. Oldest
  // first, so a crash mid-sweep leaves the chain contiguous.
  if (durable_cursor_.fresh()) return 0;
  const auto retire_in = [this](const std::string& directory) {
    std::uint64_t removed = 0;
    for (const std::string& name : fs_.list(directory, "wal-")) {
      const std::optional<std::uint32_t> index =
          telemetry::RecordLog::parse_segment_name(name);
      if (!index) continue;  // foreign file under our prefix; leave it alone
      if (*index >= durable_cursor_.segment) break;  // sorted ascending
      fs_.remove(directory + "/" + name);
      ++removed;
    }
    return removed;
  };
  const std::uint64_t retired = retire_in(options_.wal_directory);
  // Mirror lockstep: a replica is needed exactly as long as its primary can
  // still be read (read-repair is segment-for-segment), so the same
  // strictly-behind-the-durable-cursor rule applies. Primaries are removed
  // first, so a crash between the sweeps leaves orphan replicas — which
  // this same rule reclaims on the next pass.
  if (!options_.mirror_directory.empty()) retire_in(options_.mirror_directory);
  obs_segments_retired_.inc(retired);
  return retired;
}

void WalTailer::resolve_obs() {
  const std::uint64_t epoch = obs::global_epoch();
  if (epoch == obs_epoch_) return;
  obs_epoch_ = epoch;
  obs_polls_ = obs::counter("tl_serve_polls_total", "tail polls executed");
  obs_days_ = obs::counter("tl_serve_days_total", "committed days ingested");
  obs_records_ =
      obs::counter("tl_serve_records_total", "records ingested from the WAL");
  obs_checkpoints_ =
      obs::counter("tl_serve_checkpoints_total", "durable checkpoints written");
  obs_checkpoint_bytes_ = obs::counter("tl_serve_checkpoint_bytes_total",
                                       "bytes written to checkpoint files");
  obs_segments_retired_ = obs::counter("tl_serve_segments_retired_total",
                                       "WAL segments deleted by retention");
  obs_cursor_day_ =
      obs::gauge("tl_serve_cursor_day", "last committed day consumed");
  obs_sketch_items_ = obs::gauge("tl_serve_sketch_items",
                                 "retained sketch samples across the window");
}

}  // namespace tl::serve
