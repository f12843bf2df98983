#include "experiment/ab_experiment.hpp"

#include <cstdio>
#include <ostream>

#include "core/simulator.hpp"
#include "telemetry/pingpong.hpp"
#include "telemetry/record_log.hpp"
#include "util/sim_time.hpp"

namespace tl::experiment {

namespace {

/// Hourly HO/HOF tallies per area (the TemporalAggregator's 30-min series
/// folded to hour-of-day would also work, but tallying directly keeps this
/// harness independent of its lazy bitmap allocation).
class HourlyProbe final : public telemetry::RecordSink {
 public:
  void consume(const telemetry::HandoverRecord& record) override {
    const std::size_t area = static_cast<std::size_t>(record.area);
    const int hour = util::SimCalendar::hour_of_day(record.timestamp);
    ++ho_[area][static_cast<std::size_t>(hour)];
    if (!record.success) ++hof_[area][static_cast<std::size_t>(hour)];
  }

  const std::array<std::array<std::uint64_t, 24>, 2>& ho() const noexcept { return ho_; }
  const std::array<std::array<std::uint64_t, 24>, 2>& hof() const noexcept { return hof_; }

 private:
  std::array<std::array<std::uint64_t, 24>, 2> ho_{};
  std::array<std::array<std::uint64_t, 24>, 2> hof_{};
};

void kv(std::ostream& os, const char* key, const std::string& arm, std::uint64_t value) {
  os << key << '.' << arm << ' ' << value << '\n';
}

void kvf(std::ostream& os, const char* key, const std::string& arm, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", value);
  os << key << '.' << arm << ' ' << buf << '\n';
}

void serialize_arm(std::ostream& os, const ArmReport& r) {
  const std::string& arm = r.label;
  os << "policy." << arm << ' ' << r.policy << '\n';
  kv(os, "records", arm, r.records);
  kv(os, "failures", arm, r.failures);
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", r.stream_crc);
  os << "stream_crc." << arm << ' ' << crc << '\n';
  kvf(os, "hof_rate", arm, r.hof_rate());
  for (std::size_t t = 0; t < 3; ++t) {
    const auto rat = static_cast<topology::ObservedRat>(t);
    os << "ho_to." << to_string(rat) << '.' << arm << ' ' << r.by_target[t] << '\n';
    os << "hof_to." << to_string(rat) << '.' << arm << ' ' << r.hof_by_target[t] << '\n';
  }
  for (std::size_t bkt = 0; bkt < telemetry::CauseAggregator::kBuckets; ++bkt) {
    os << "cause_bucket." << bkt << '.' << arm << ' ' << r.cause_buckets[bkt] << '\n';
  }
  for (std::size_t a = 0; a < 2; ++a) {
    const auto area = static_cast<geo::AreaType>(a);
    os << "ho." << to_string(area) << '.' << arm << ' ' << r.area_handovers[a] << '\n';
    os << "hof." << to_string(area) << '.' << arm << ' ' << r.area_failures[a] << '\n';
    for (int h = 0; h < 24; ++h) {
      os << "hourly_ho." << to_string(area) << '.' << h << '.' << arm << ' '
         << r.hourly_handovers[a][static_cast<std::size_t>(h)] << '\n';
      os << "hourly_hof." << to_string(area) << '.' << h << '.' << arm << ' '
         << r.hourly_failures[a][static_cast<std::size_t>(h)] << '\n';
    }
  }
  for (std::size_t d = 0; d < r.district_handovers.size(); ++d) {
    os << "district." << d << '.' << arm << ' ' << r.district_handovers[d] << ' '
       << r.district_failures[d] << '\n';
  }
  kv(os, "pp_hops", arm, r.pp_hops);
  kv(os, "ping_pongs", arm, r.ping_pongs);
  kv(os, "bouncing_ues", arm, r.bouncing_ues);
  kvf(os, "ping_pong_rate", arm, r.ping_pong_rate());
}

}  // namespace

double ArmReport::hof_rate_in_hour(geo::AreaType area, int hour) const noexcept {
  const std::size_t a = static_cast<std::size_t>(area);
  const std::size_t h = static_cast<std::size_t>(hour);
  return hourly_handovers[a][h] == 0
             ? 0.0
             : static_cast<double>(hourly_failures[a][h]) /
                   static_cast<double>(hourly_handovers[a][h]);
}

double ArmReport::area_hof_rate(geo::AreaType area) const noexcept {
  const std::size_t a = static_cast<std::size_t>(area);
  return area_handovers[a] == 0 ? 0.0
                                : static_cast<double>(area_failures[a]) /
                                      static_cast<double>(area_handovers[a]);
}

int ArmReport::peak_hour(geo::AreaType area) const noexcept {
  const auto& series = hourly_handovers[static_cast<std::size_t>(area)];
  int best = 0;
  for (int h = 1; h < 24; ++h) {
    if (series[static_cast<std::size_t>(h)] > series[static_cast<std::size_t>(best)]) {
      best = h;
    }
  }
  return best;
}

ExperimentReport::PeakHourDiff ExperimentReport::peak_hour_diff(
    geo::AreaType area) const noexcept {
  PeakHourDiff diff;
  diff.hour = a.peak_hour(area);
  diff.a_rate = a.hof_rate_in_hour(area, diff.hour);
  diff.b_rate = b.hof_rate_in_hour(area, diff.hour);
  diff.delta_pct = delta_pct(diff.a_rate, diff.b_rate);
  return diff;
}

void ExperimentReport::serialize(std::ostream& os) const {
  os << "experiment v1\n";
  os << "seed " << seed << '\n';
  os << "days " << days << '\n';
  os << "ping_pong_window_ms " << ping_pong_window_ms << '\n';
  serialize_arm(os, a);
  serialize_arm(os, b);
  // Headline diffs (B vs A), derived but serialized so a report diff reads
  // standalone.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", delta_pct(a.hof_rate(), b.hof_rate()));
  os << "delta.hof_rate_pct " << buf << '\n';
  std::snprintf(buf, sizeof buf, "%.4f",
                delta_pct(a.share_to(topology::ObservedRat::kG3),
                          b.share_to(topology::ObservedRat::kG3)));
  os << "delta.share_3g_pct " << buf << '\n';
  std::snprintf(buf, sizeof buf, "%.4f",
                delta_pct(a.ping_pong_rate(), b.ping_pong_rate()));
  os << "delta.ping_pong_rate_pct " << buf << '\n';
  const PeakHourDiff rural = peak_hour_diff(geo::AreaType::kRural);
  std::snprintf(buf, sizeof buf, "%.4f", rural.delta_pct);
  os << "delta.rural_peak_hour_hof_pct h=" << rural.hour << ' ' << buf << '\n';
}

void ExperimentReport::print(std::ostream& os) const {
  char buf[160];
  os << "A/B experiment (seed " << seed << ", " << days << " days)\n";
  os << "  arm A: " << a.label << " [" << a.policy << "]\n";
  os << "  arm B: " << b.label << " [" << b.policy << "]\n\n";
  std::snprintf(buf, sizeof buf, "  %-28s %14s %14s %10s\n", "metric", a.label.c_str(),
                b.label.c_str(), "B vs A");
  os << buf;
  const auto row = [&](const char* name, double va, double vb, const char* fmt) {
    char ca[32], cb[32], cd[32];
    std::snprintf(ca, sizeof ca, fmt, va);
    std::snprintf(cb, sizeof cb, fmt, vb);
    std::snprintf(cd, sizeof cd, "%+.1f%%", delta_pct(va, vb));
    std::snprintf(buf, sizeof buf, "  %-28s %14s %14s %10s\n", name, ca, cb, cd);
    os << buf;
  };
  row("handover attempts", static_cast<double>(a.records), static_cast<double>(b.records),
      "%.0f");
  row("failures (HOF)", static_cast<double>(a.failures), static_cast<double>(b.failures),
      "%.0f");
  row("HOF rate", a.hof_rate(), b.hof_rate(), "%.5f");
  row("share ->3G", a.share_to(topology::ObservedRat::kG3),
      b.share_to(topology::ObservedRat::kG3), "%.5f");
  row("share ->2G", a.share_to(topology::ObservedRat::kG2),
      b.share_to(topology::ObservedRat::kG2), "%.6f");
  row("urban HOF rate", a.area_hof_rate(geo::AreaType::kUrban),
      b.area_hof_rate(geo::AreaType::kUrban), "%.5f");
  row("rural HOF rate", a.area_hof_rate(geo::AreaType::kRural),
      b.area_hof_rate(geo::AreaType::kRural), "%.5f");
  row("ping-pong rate", a.ping_pong_rate(), b.ping_pong_rate(), "%.5f");

  const PeakHourDiff rural = peak_hour_diff(geo::AreaType::kRural);
  std::snprintf(buf, sizeof buf,
                "\n  rural peak hour (A volume): %02d:00  HOF %.5f -> %.5f (%+.1f%%)\n",
                rural.hour, rural.a_rate, rural.b_rate, rural.delta_pct);
  os << buf;

  os << "\n  failure-cause mix (share of each arm's HOFs):\n";
  for (std::size_t bkt = 0; bkt < telemetry::CauseAggregator::kBuckets; ++bkt) {
    const double sa = a.failures == 0 ? 0.0
                                      : static_cast<double>(a.cause_buckets[bkt]) /
                                            static_cast<double>(a.failures);
    const double sb = b.failures == 0 ? 0.0
                                      : static_cast<double>(b.cause_buckets[bkt]) /
                                            static_cast<double>(b.failures);
    std::snprintf(buf, sizeof buf, "    %-34s %8.4f %8.4f\n",
                  telemetry::CauseAggregator::bucket_label(bkt), sa, sb);
    os << buf;
  }
}

ExperimentReport AbExperiment::run() {
  ExperimentReport report;
  report.seed = config_.study.seed;
  report.days = config_.study.days;
  report.ping_pong_window_ms = config_.ping_pong_window_ms;
  report.a = run_arm(config_.policy_a, config_.label_a);
  report.b = run_arm(config_.policy_b, config_.label_b);
  return report;
}

ArmReport AbExperiment::run_arm(const policy::PolicyConfig& policy,
                                const std::string& label) {
  core::StudyConfig cfg = config_.study;
  cfg.policy = policy;
  core::Simulator sim{cfg};

  const std::size_t n_districts = sim.country().districts().size();
  const std::size_t n_makers = sim.catalog().manufacturers().size();

  telemetry::DistrictAggregator districts{n_districts, n_makers};
  telemetry::CauseAggregator causes{cfg.days, n_makers};
  HourlyProbe hourly;
  telemetry::PingPongDetector pingpong{config_.ping_pong_window_ms};
  telemetry::ChecksumSink stream;  // the arm's identity
  sim.add_sink(&districts);
  sim.add_sink(&causes);
  sim.add_sink(&hourly);
  sim.add_sink(&pingpong);
  sim.add_sink(&stream);
  sim.run();

  ArmReport r;
  r.label = label;
  r.policy = std::string{policy::to_string(policy.kind)};
  r.stream_crc = stream.checksum();
  r.cause_buckets = causes.totals_by_bucket();
  r.hof_by_target = causes.failures_by_target();
  r.hourly_handovers = hourly.ho();
  r.hourly_failures = hourly.hof();

  r.district_handovers.resize(n_districts, 0);
  r.district_failures.resize(n_districts, 0);
  for (std::size_t d = 0; d < n_districts; ++d) {
    const auto& tally = districts.district(static_cast<geo::DistrictId>(d));
    r.district_handovers[d] = tally.handovers;
    r.district_failures[d] = tally.failures;
    r.records += tally.handovers;
    r.failures += tally.failures;
    for (std::size_t t = 0; t < 3; ++t) r.by_target[t] += tally.by_target[t];
  }
  for (std::size_t a = 0; a < 2; ++a) {
    for (int h = 0; h < 24; ++h) {
      r.area_handovers[a] += r.hourly_handovers[a][static_cast<std::size_t>(h)];
      r.area_failures[a] += r.hourly_failures[a][static_cast<std::size_t>(h)];
    }
  }
  r.pp_hops = pingpong.total_handovers();
  r.ping_pongs = pingpong.ping_pongs();
  r.bouncing_ues = pingpong.bouncing_ues();
  return r;
}

}  // namespace tl::experiment
