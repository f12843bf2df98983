#pragma once

// Incremental aggregates for the serve-mode tailer.
//
// The batch aggregators (telemetry/aggregates.hpp) assume a fixed study
// horizon — they allocate [sector x day] lattices up front and answer after
// the whole stream has passed. A long-running ingest has neither luxury:
// days keep arriving, and reports cover a *rolling window* (the paper's
// four weeks) over whatever has landed so far. StreamAggregates is the
// bounded-memory counterpart:
//
//  - per sealed day, exact HO/HOF tallies nationally, per vendor, per
//    target RAT class, and per district, plus a mergeable QuantileSketch of
//    successful-HO signaling times (analysis/quantile_sketch.hpp) — the
//    piece that keeps per-day memory flat where a reservoir would neither
//    merge nor bound rank error;
//  - a deque ring of the last `window_days` sealed days (older days retire
//    as new ones seal, so RSS does not grow with stream length);
//  - lifetime exact totals and a per-sector HO/HOF map that outlive the
//    window (bounded by the sector universe, not the stream).
//
// The per-district and per-sector tallies are hash maps, so a record costs
// two hash lookups rather than two tree walks; serialize() writes their
// entries in ascending key order, so the bytes do not depend on the
// container.
//
// report() merges the ring into one WindowReport: exact counters summed,
// sketches merged, quantiles carrying a certified rank-error bound.
//
// Degradation ladder (resource governance): under memory pressure the
// aggregates shed detail, never data, and every step is recorded:
//
//   kExact      everything above;
//   kSketchOnly the per-district day maps and the lifetime per-sector map
//               stop accumulating and already-held keys are shed (they are
//               the unbounded-cardinality terms); national/vendor/RAT
//               tallies stay exact, the sketch stays full-rate;
//   kSampled    additionally, sketch inserts are hash-sampled 1-in-modulus.
//
// Level changes happen only at day-seal boundaries, decided by an installed
// DegradePolicy (the WalTailer consults the governor there). Each change
// appends a DegradationEvent — old level, new level, the byte readings that
// forced it, and the sampling modulus — to an event journal that rides in
// the serialized state, so degradation is explicit, auditable, and survives
// restarts. The sampling is *content-keyed* (a pure hash of record identity
// fields, util::derive_seed), not positional: the admitted substream is
// independent of thread count, arrival order, and crash/replay boundaries,
// and the sketch's certified rank-error bound applies exactly to that
// declared substream — which the chaos harness checks against an exact ECDF
// computed over the same substream. National totals stay exact at every
// level, so "no silent drops" is a testable equality.
//
// State is byte-serializable, deterministically: two instances fed the
// same day sequence serialize identically, which is the property the chaos
// harness leans on to prove kill/recover convergence bit-for-bit. The
// serve checkpoint embeds these bytes next to the WAL cursor.

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/quantile_sketch.hpp"
#include "telemetry/records.hpp"
#include "telemetry/sinks.hpp"

namespace tl::serve {

enum class DegradeLevel : std::uint8_t {
  kExact = 0,
  kSketchOnly = 1,
  kSampled = 2,
};

const char* to_string(DegradeLevel level) noexcept;

class StreamAggregates : public telemetry::RecordSink {
 public:
  struct Options {
    /// Sealed days retained for rolling reports (the paper's study window).
    std::size_t window_days = 28;
    /// QuantileSketch buffer size; rank error ~ levels/(2k).
    std::size_t sketch_k = 128;
    /// 1-in-N content-keyed sketch sampling at DegradeLevel::kSampled.
    std::uint32_t sample_modulus = 8;
  };

  struct Tally {
    std::uint64_t handovers = 0;
    std::uint64_t failures = 0;
    double hof_rate() const noexcept {
      return handovers ? static_cast<double>(failures) /
                             static_cast<double>(handovers)
                       : 0.0;
    }
  };

  /// Tallies keyed by district or sector id.
  using TallyMap = std::unordered_map<std::uint32_t, Tally>;

  /// One sealed (or in-progress) day of exact tallies plus its sketch.
  struct DayStats {
    explicit DayStats(std::size_t sketch_k) : durations(sketch_k) {}
    int day = -1;  ///< -1 while in progress; set by on_day_end
    std::uint64_t handovers = 0;
    std::uint64_t failures = 0;
    std::array<Tally, 4> by_vendor{};  ///< indexed by topology::Vendor
    std::array<Tally, 3> by_target{};  ///< indexed by topology::ObservedRat
    TallyMap by_district;
    analysis::QuantileSketch durations;  ///< successful-HO signaling ms
    /// Level the day accumulated under, and the sketch-sampling modulus in
    /// force (1 = every successful HO inserted) — the declared basis the
    /// day's quantiles are certified against.
    DegradeLevel degrade_level = DegradeLevel::kExact;
    std::uint32_t sample_modulus = 1;
  };

  /// One recorded step of the degradation ladder (either direction).
  struct DegradationEvent {
    int effective_day = -1;  ///< first day accumulated at `to`
    DegradeLevel from = DegradeLevel::kExact;
    DegradeLevel to = DegradeLevel::kExact;
    /// Governor readings that forced the step (0 when policy-less callers
    /// degrade manually).
    std::uint64_t used_bytes = 0;
    std::uint64_t budget_bytes = 0;
    /// Sketch-sampling modulus from `effective_day` on.
    std::uint32_t sample_modulus = 1;
    /// Detail shed by this step (down-steps into kSketchOnly and beyond).
    std::uint64_t shed_district_keys = 0;
    std::uint64_t shed_sector_keys = 0;
  };

  /// Degrade decision hook, invoked after every day seal with the index the
  /// *next* accumulated day will carry. Must be deterministic for the
  /// bit-identity proofs (the tailer's governor consult is: accounted bytes
  /// and the clamp plan are pure functions of the delivered stream).
  struct DegradeDecision {
    DegradeLevel level = DegradeLevel::kExact;
    std::uint64_t used_bytes = 0;
    std::uint64_t budget_bytes = 0;
  };
  using DegradePolicy = std::function<DegradeDecision(int next_day)>;

  StreamAggregates() : StreamAggregates(Options{}) {}
  explicit StreamAggregates(Options options);

  /// RecordSink: consume accumulates into the open day; on_day_end seals it
  /// into the ring (retiring the oldest day past window_days). Days must
  /// seal in increasing order (std::logic_error otherwise) — the WAL
  /// delivers them that way.
  void consume(const telemetry::HandoverRecord& record) override;
  void on_day_end(int day) override;

  // --- lifetime exacts (survive window retirement) ---
  std::uint64_t total_records() const noexcept { return total_records_; }
  std::uint64_t total_failures() const noexcept { return total_failures_; }
  std::uint64_t days_sealed() const noexcept { return days_sealed_; }
  int last_sealed_day() const noexcept { return last_sealed_day_; }
  /// Per-source-sector lifetime tallies (bounded by the sector universe).
  const TallyMap& sectors() const noexcept { return sectors_; }

  // --- the rolling window ---
  const std::deque<DayStats>& window() const noexcept { return window_; }
  const Options& options() const noexcept { return options_; }

  // --- degradation ladder ---
  /// Installs (or clears) the per-seal degrade hook. Not serialized: the
  /// owner re-installs after restoring from a checkpoint.
  void set_degrade_policy(DegradePolicy policy) {
    degrade_policy_ = std::move(policy);
  }
  /// Applies a decision immediately (also what the policy path uses).
  /// Records an event when the level changes; sheds district/sector maps
  /// when first crossing into kSketchOnly. `effective_day` is the day the
  /// new level first applies to (the currently-open day).
  void apply_degrade(const DegradeDecision& decision, int effective_day);
  DegradeLevel level() const noexcept { return level_; }
  const std::vector<DegradationEvent>& degradation_events() const noexcept {
    return events_;
  }
  /// Events beyond the retained journal cap (kMaxEvents), dropped oldest
  /// first — surfaced, never silent.
  std::uint64_t degradation_events_dropped() const noexcept {
    return events_dropped_;
  }
  static constexpr std::size_t kMaxEvents = 1024;

  /// Whether a record's successful-HO duration is admitted to the sketch at
  /// 1-in-`modulus` sampling. Pure content-keyed hash of the record's
  /// identity (user, timestamp): the same record is admitted or not
  /// regardless of position, thread count, or replay boundaries — this IS
  /// the declared basis of a sampled day's certified quantile bound.
  static bool sample_admits(const telemetry::HandoverRecord& record,
                            std::uint32_t modulus) noexcept;

  /// Conservative estimate of this instance's heap footprint, a pure
  /// function of logical state (sizes, not capacities) so restored and
  /// uninterrupted replicas report the same value — what the governor
  /// accountant is fed.
  std::size_t approximate_bytes() const noexcept;

  /// Merge of the current window: exact counters summed, day sketches
  /// merged front-to-back (deterministic given the window contents).
  struct WindowReport {
    int first_day = -1;
    int last_day = -1;
    std::size_t days = 0;
    std::uint64_t handovers = 0;
    std::uint64_t failures = 0;
    std::array<Tally, 4> by_vendor{};
    std::array<Tally, 3> by_target{};
    std::map<std::uint32_t, Tally> by_district;
    /// Signaling-time quantiles (ms) of successful HOs in the window, with
    /// the certified bound the merged sketch reports.
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    double quantile_rank_error = 0.0;
    std::uint64_t sketch_count = 0;
    /// Degradation visibility: window days that accumulated below kExact,
    /// the worst sampling modulus among them (1 = none sampled), and the
    /// count of window days that still carry district detail.
    std::size_t degraded_days = 0;
    std::uint32_t max_sample_modulus = 1;
    std::size_t district_detail_days = 0;
    double hof_rate() const noexcept {
      return handovers ? static_cast<double>(failures) /
                             static_cast<double>(handovers)
                       : 0.0;
    }
  };
  WindowReport report() const;

  /// Retained sketch items across the ring — the term that must stay flat
  /// for the bench's RSS assertion.
  std::size_t stored_sketch_items() const noexcept;

  /// Deterministic byte image of the full state (options, lifetime, ring,
  /// open day). Equal states produce equal bytes.
  void serialize(std::vector<std::uint8_t>& out) const;
  /// Inverse; validates structure and throws std::runtime_error on any
  /// malformed input. `offset` advances past the consumed bytes.
  static StreamAggregates deserialize(std::span<const std::uint8_t> bytes,
                                      std::size_t& offset);
  static StreamAggregates deserialize(std::span<const std::uint8_t> bytes);

 private:
  Options options_;
  std::uint64_t total_records_ = 0;
  std::uint64_t total_failures_ = 0;
  std::uint64_t days_sealed_ = 0;
  int last_sealed_day_ = -1;
  TallyMap sectors_;
  std::deque<DayStats> window_;  ///< sealed days, oldest first
  DayStats open_;                ///< the day currently accumulating
  DegradeLevel level_ = DegradeLevel::kExact;
  std::vector<DegradationEvent> events_;
  std::uint64_t events_dropped_ = 0;
  DegradePolicy degrade_policy_;  ///< not serialized; re-install on restore
};

}  // namespace tl::serve
