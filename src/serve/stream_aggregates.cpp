#include "serve/stream_aggregates.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/byte_codec.hpp"
#include "util/rng.hpp"

namespace tl::serve {

const char* to_string(DegradeLevel level) noexcept {
  switch (level) {
    case DegradeLevel::kExact: return "exact";
    case DegradeLevel::kSketchOnly: return "sketch-only";
    case DegradeLevel::kSampled: return "sampled";
  }
  return "?";
}

namespace {

using util::put_u32;
using util::put_u64;

[[noreturn]] void corrupt(const std::string& why) {
  throw std::runtime_error{"StreamAggregates::deserialize: " + why};
}

constexpr char kMagic[4] = {'T', 'L', 'S', 'A'};
// v2 added the degradation ladder (per-day level/modulus, event journal).
constexpr std::uint8_t kVersion = 2;

// Salt for the content-keyed sketch-sampling hash. Part of the wire
// contract: certifying a sampled day's quantiles requires recomputing the
// same admitted substream.
constexpr std::uint64_t kSampleSalt = 0x5a3d1e5ab0a5e5ULL;

void put_tally(std::vector<std::uint8_t>& out,
               const StreamAggregates::Tally& t) {
  put_u64(out, t.handovers);
  put_u64(out, t.failures);
}

StreamAggregates::Tally read_tally(util::ByteReader& r) {
  StreamAggregates::Tally t;
  t.handovers = r.u64();
  t.failures = r.u64();
  if (t.failures > t.handovers) corrupt("tally failures > handovers");
  return t;
}

/// Writes the entries in ascending key order: the bytes are a function of
/// the contents, not of the hash map's iteration order.
void put_tally_map(std::vector<std::uint8_t>& out, const StreamAggregates::TallyMap& m) {
  std::vector<std::pair<std::uint32_t, StreamAggregates::Tally>> entries(m.begin(), m.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  put_u64(out, entries.size());
  for (const auto& [key, tally] : entries) {
    put_u32(out, key);
    put_tally(out, tally);
  }
}

StreamAggregates::TallyMap read_tally_map(util::ByteReader& r) {
  const std::uint64_t size = r.u64();
  // 20 bytes per entry: a size beyond the remaining bytes is garbage.
  if (size > (r.bytes.size() - r.pos) / 20) corrupt("map size");
  StreamAggregates::TallyMap m;
  m.reserve(size);
  std::int64_t previous = -1;
  for (std::uint64_t i = 0; i < size; ++i) {
    const std::uint32_t key = r.u32();
    if (static_cast<std::int64_t>(key) <= previous) {
      corrupt("map keys not strictly increasing");
    }
    previous = key;
    m.emplace(key, read_tally(r));
  }
  return m;
}

}  // namespace

StreamAggregates::StreamAggregates(Options options)
    : options_(options), open_(options.sketch_k) {
  if (options_.window_days == 0) {
    throw std::invalid_argument{"StreamAggregates: window_days must be >= 1"};
  }
  if (options_.sample_modulus == 0) {
    throw std::invalid_argument{"StreamAggregates: sample_modulus must be >= 1"};
  }
}

bool StreamAggregates::sample_admits(const telemetry::HandoverRecord& record,
                                     std::uint32_t modulus) noexcept {
  if (modulus <= 1) return true;
  return util::derive_seed(kSampleSalt, record.anon_user_id,
                           static_cast<std::uint64_t>(record.timestamp)) %
             modulus ==
         0;
}

void StreamAggregates::consume(const telemetry::HandoverRecord& record) {
  ++total_records_;
  ++open_.handovers;
  const bool failed = !record.success;
  if (failed) {
    ++total_failures_;
    ++open_.failures;
  }
  const auto vendor = static_cast<std::size_t>(record.vendor);
  if (vendor < open_.by_vendor.size()) {
    ++open_.by_vendor[vendor].handovers;
    if (failed) ++open_.by_vendor[vendor].failures;
  }
  const auto target = static_cast<std::size_t>(record.target_rat);
  if (target < open_.by_target.size()) {
    ++open_.by_target[target].handovers;
    if (failed) ++open_.by_target[target].failures;
  }
  // The unbounded-cardinality maps stop accumulating below kExact; the
  // national/vendor/RAT tallies above stay exact at every level.
  if (level_ < DegradeLevel::kSketchOnly) {
    Tally& district = open_.by_district[record.district];
    ++district.handovers;
    if (failed) ++district.failures;
    Tally& sector = sectors_[record.source_sector];
    ++sector.handovers;
    if (failed) ++sector.failures;
  }
  // Successful-HO signaling time, like DurationAggregator (failure
  // durations measure the abort path, a different distribution). NaN goes
  // to the sketch's nan tally. At kSampled, admission is a pure hash of
  // record identity — the declared basis of the day's certified bound.
  if (record.success && (open_.sample_modulus <= 1 ||
                         sample_admits(record, open_.sample_modulus))) {
    open_.durations.insert(static_cast<double>(record.duration_ms));
  }
}

void StreamAggregates::on_day_end(int day) {
  if (day <= last_sealed_day_) {
    throw std::logic_error{"StreamAggregates: days must seal in increasing "
                           "order (got " +
                           std::to_string(day) + " after " +
                           std::to_string(last_sealed_day_) + ")"};
  }
  open_.day = day;
  window_.push_back(std::move(open_));
  open_ = DayStats(options_.sketch_k);
  open_.degrade_level = level_;
  open_.sample_modulus =
      level_ == DegradeLevel::kSampled ? options_.sample_modulus : 1;
  while (window_.size() > options_.window_days) window_.pop_front();
  ++days_sealed_;
  last_sealed_day_ = day;
  // Level changes only here, at seal boundaries: a day is accumulated
  // entirely at one level, so its stamped (level, modulus) is a complete
  // description of how to certify it.
  if (degrade_policy_) apply_degrade(degrade_policy_(day + 1), day + 1);
}

void StreamAggregates::apply_degrade(const DegradeDecision& decision,
                                     int effective_day) {
  if (decision.level == level_) return;
  DegradationEvent event;
  event.effective_day = effective_day;
  event.from = level_;
  event.to = decision.level;
  event.used_bytes = decision.used_bytes;
  event.budget_bytes = decision.budget_bytes;
  event.sample_modulus =
      decision.level == DegradeLevel::kSampled ? options_.sample_modulus : 1;
  if (level_ < DegradeLevel::kSketchOnly &&
      decision.level >= DegradeLevel::kSketchOnly) {
    // First crossing below exact: shed the unbounded-cardinality maps, and
    // record exactly how much detail went — shed, never silently dropped.
    // Assigning empty maps frees their bucket arrays too, not just the keys.
    event.shed_district_keys = open_.by_district.size();
    for (DayStats& day : window_) {
      event.shed_district_keys += day.by_district.size();
      day.by_district = TallyMap{};
    }
    open_.by_district = TallyMap{};
    event.shed_sector_keys = sectors_.size();
    sectors_ = TallyMap{};
  }
  level_ = decision.level;
  open_.degrade_level = level_;
  open_.sample_modulus = event.sample_modulus;
  if (events_.size() >= kMaxEvents) {
    events_.erase(events_.begin());
    ++events_dropped_;
  }
  events_.push_back(event);
}

StreamAggregates::WindowReport StreamAggregates::report() const {
  WindowReport report;
  if (window_.empty()) return report;
  report.first_day = window_.front().day;
  report.last_day = window_.back().day;
  report.days = window_.size();
  analysis::QuantileSketch merged(options_.sketch_k);
  for (const DayStats& day : window_) {
    report.handovers += day.handovers;
    report.failures += day.failures;
    for (std::size_t v = 0; v < day.by_vendor.size(); ++v) {
      report.by_vendor[v].handovers += day.by_vendor[v].handovers;
      report.by_vendor[v].failures += day.by_vendor[v].failures;
    }
    for (std::size_t t = 0; t < day.by_target.size(); ++t) {
      report.by_target[t].handovers += day.by_target[t].handovers;
      report.by_target[t].failures += day.by_target[t].failures;
    }
    for (const auto& [district, tally] : day.by_district) {
      Tally& merged_tally = report.by_district[district];
      merged_tally.handovers += tally.handovers;
      merged_tally.failures += tally.failures;
    }
    if (day.degrade_level != DegradeLevel::kExact) ++report.degraded_days;
    report.max_sample_modulus =
        std::max(report.max_sample_modulus, day.sample_modulus);
    if (!day.by_district.empty()) ++report.district_detail_days;
    merged.merge(day.durations);
  }
  report.sketch_count = merged.count();
  if (!merged.empty()) {
    report.p50_ms = merged.quantile(0.50);
    report.p90_ms = merged.quantile(0.90);
    report.p99_ms = merged.quantile(0.99);
    report.quantile_rank_error = merged.quantile_rank_error_bound();
  }
  return report;
}

std::size_t StreamAggregates::stored_sketch_items() const noexcept {
  std::size_t items = open_.durations.stored_items();
  for (const DayStats& day : window_) items += day.durations.stored_items();
  return items;
}

namespace {

// The fixed terms of the estimate: the footprint of a DayStats and of the
// instance itself. They are constants, not sizeof, so that the governor's
// readings, and with them the degradation ladder, do not move with a
// standard library's container layout.
constexpr std::size_t kDayStatsBytes = 288;
constexpr std::size_t kInstanceBytes = 552;

std::size_t approximate_day_bytes(const StreamAggregates::DayStats& day) {
  // ~64 B per hash-map entry (key + tally + node and bucket overhead), 8 B per
  // stored sketch item plus ~48 B per sketch level vector, and the struct
  // itself. Deliberately a function of *sizes*, never capacities: restored
  // and uninterrupted replicas must report the same value.
  return kDayStatsBytes + day.by_district.size() * 64 +
         day.durations.stored_items() * 8 + day.durations.levels() * 48;
}

}  // namespace

std::size_t StreamAggregates::approximate_bytes() const noexcept {
  std::size_t bytes = kInstanceBytes;
  bytes += sectors_.size() * 64;
  bytes += approximate_day_bytes(open_);
  for (const DayStats& day : window_) bytes += approximate_day_bytes(day);
  bytes += events_.size() * sizeof(DegradationEvent);
  return bytes;
}

namespace {

void put_day(std::vector<std::uint8_t>& out,
             const StreamAggregates::DayStats& day) {
  put_u32(out, static_cast<std::uint32_t>(day.day));
  put_u64(out, day.handovers);
  put_u64(out, day.failures);
  out.push_back(static_cast<std::uint8_t>(day.degrade_level));
  put_u32(out, day.sample_modulus);
  for (const auto& t : day.by_vendor) put_tally(out, t);
  for (const auto& t : day.by_target) put_tally(out, t);
  put_tally_map(out, day.by_district);
  day.durations.serialize(out);
}

StreamAggregates::DayStats read_day(util::ByteReader& r, std::size_t sketch_k) {
  StreamAggregates::DayStats day(sketch_k);
  day.day = static_cast<std::int32_t>(r.u32());
  day.handovers = r.u64();
  day.failures = r.u64();
  if (day.failures > day.handovers) corrupt("day failures > handovers");
  const std::uint8_t level = r.u8();
  if (level > static_cast<std::uint8_t>(DegradeLevel::kSampled)) {
    corrupt("day degrade level out of range");
  }
  day.degrade_level = static_cast<DegradeLevel>(level);
  day.sample_modulus = r.u32();
  if (day.sample_modulus == 0) corrupt("day sample modulus zero");
  for (auto& t : day.by_vendor) t = read_tally(r);
  for (auto& t : day.by_target) t = read_tally(r);
  day.by_district = read_tally_map(r);
  day.durations = analysis::QuantileSketch::deserialize(r.bytes, r.pos);
  if (day.durations.k() != sketch_k) corrupt("sketch k mismatch");
  return day;
}

}  // namespace

void StreamAggregates::serialize(std::vector<std::uint8_t>& out) const {
  out.insert(out.end(), kMagic, kMagic + sizeof kMagic);
  out.push_back(kVersion);
  put_u32(out, static_cast<std::uint32_t>(options_.window_days));
  put_u32(out, static_cast<std::uint32_t>(options_.sketch_k));
  put_u32(out, options_.sample_modulus);
  put_u64(out, total_records_);
  put_u64(out, total_failures_);
  put_u64(out, days_sealed_);
  put_u32(out, static_cast<std::uint32_t>(last_sealed_day_));
  out.push_back(static_cast<std::uint8_t>(level_));
  put_u64(out, events_dropped_);
  put_u32(out, static_cast<std::uint32_t>(events_.size()));
  for (const DegradationEvent& event : events_) {
    put_u32(out, static_cast<std::uint32_t>(event.effective_day));
    out.push_back(static_cast<std::uint8_t>(event.from));
    out.push_back(static_cast<std::uint8_t>(event.to));
    put_u64(out, event.used_bytes);
    put_u64(out, event.budget_bytes);
    put_u32(out, event.sample_modulus);
    put_u64(out, event.shed_district_keys);
    put_u64(out, event.shed_sector_keys);
  }
  put_tally_map(out, sectors_);
  put_u32(out, static_cast<std::uint32_t>(window_.size()));
  for (const DayStats& day : window_) put_day(out, day);
  put_day(out, open_);
}

StreamAggregates StreamAggregates::deserialize(
    std::span<const std::uint8_t> bytes, std::size_t& offset) {
  util::ByteReader r{bytes, offset,
                     "StreamAggregates::deserialize: truncated input"};
  r.need(sizeof kMagic + 1);
  for (char expected : kMagic) {
    if (r.u8() != static_cast<std::uint8_t>(expected)) {
      corrupt("bad magic");
    }
  }
  if (r.u8() != kVersion) corrupt("unsupported version");
  Options options;
  options.window_days = r.u32();
  options.sketch_k = r.u32();
  options.sample_modulus = r.u32();
  if (options.window_days == 0 || options.window_days > (1u << 20)) {
    corrupt("window_days out of range");
  }
  if (options.sample_modulus == 0) corrupt("sample_modulus zero");
  StreamAggregates aggs(options);  // validates sketch_k via the open sketch
  aggs.total_records_ = r.u64();
  aggs.total_failures_ = r.u64();
  aggs.days_sealed_ = r.u64();
  aggs.last_sealed_day_ = static_cast<std::int32_t>(r.u32());
  if (aggs.total_failures_ > aggs.total_records_) {
    corrupt("total failures > total records");
  }
  const std::uint8_t level = r.u8();
  if (level > static_cast<std::uint8_t>(DegradeLevel::kSampled)) {
    corrupt("degrade level out of range");
  }
  aggs.level_ = static_cast<DegradeLevel>(level);
  aggs.events_dropped_ = r.u64();
  const std::uint32_t event_count = r.u32();
  if (event_count > StreamAggregates::kMaxEvents) {
    corrupt("event journal larger than cap");
  }
  // 42 bytes per event entry on the wire.
  if (event_count > (r.bytes.size() - r.pos) / 42) {
    corrupt("event journal size");
  }
  std::int64_t previous_event_day = INT64_MIN;
  for (std::uint32_t i = 0; i < event_count; ++i) {
    DegradationEvent event;
    event.effective_day = static_cast<std::int32_t>(r.u32());
    const std::uint8_t from = r.u8();
    const std::uint8_t to = r.u8();
    if (from > static_cast<std::uint8_t>(DegradeLevel::kSampled) ||
        to > static_cast<std::uint8_t>(DegradeLevel::kSampled) || from == to) {
      corrupt("event levels invalid");
    }
    event.from = static_cast<DegradeLevel>(from);
    event.to = static_cast<DegradeLevel>(to);
    event.used_bytes = r.u64();
    event.budget_bytes = r.u64();
    event.sample_modulus = r.u32();
    if (event.sample_modulus == 0) corrupt("event modulus zero");
    event.shed_district_keys = r.u64();
    event.shed_sector_keys = r.u64();
    if (event.effective_day < previous_event_day) {
      corrupt("event days not nondecreasing");
    }
    previous_event_day = event.effective_day;
    aggs.events_.push_back(event);
  }
  if (!aggs.events_.empty() && aggs.events_.back().to != aggs.level_) {
    corrupt("last event disagrees with instance level");
  }
  aggs.sectors_ = read_tally_map(r);
  const std::uint32_t ring = r.u32();
  if (ring > options.window_days) corrupt("ring larger than window");
  int previous_day = -2;
  for (std::uint32_t i = 0; i < ring; ++i) {
    DayStats day = read_day(r, options.sketch_k);
    if (day.day < 0 || day.day <= previous_day) {
      corrupt("ring days not strictly increasing");
    }
    previous_day = day.day;
    aggs.window_.push_back(std::move(day));
  }
  if (!aggs.window_.empty() &&
      aggs.window_.back().day != aggs.last_sealed_day_) {
    corrupt("last sealed day disagrees with ring");
  }
  aggs.open_ = read_day(r, options.sketch_k);
  if (aggs.open_.day != -1) corrupt("open day carries a day index");
  if (aggs.open_.degrade_level != aggs.level_) {
    corrupt("open day level disagrees with instance level");
  }
  const std::uint32_t expected_modulus =
      aggs.level_ == DegradeLevel::kSampled ? options.sample_modulus : 1;
  if (aggs.open_.sample_modulus != expected_modulus) {
    corrupt("open day modulus disagrees with instance level");
  }
  offset = r.pos;
  return aggs;
}

StreamAggregates StreamAggregates::deserialize(
    std::span<const std::uint8_t> bytes) {
  std::size_t offset = 0;
  StreamAggregates aggs = deserialize(bytes, offset);
  if (offset != bytes.size()) {
    throw std::runtime_error{
        "StreamAggregates::deserialize: trailing bytes after state"};
  }
  return aggs;
}

}  // namespace tl::serve
