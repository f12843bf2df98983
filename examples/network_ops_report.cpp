// Daily network-operations report — the view an MNO's NOC would pull from
// this pipeline every morning: control-plane load per entity, handover
// health, ping-pong waste, QoS damage, and the worst failure causes of the
// day. Exercises the extension APIs end to end.
//
//   $ network_ops_report [scale] [days] [--threads N] [--supervised]
//                        [--fault-rate F] [--metrics-out PATH]
//
// --threads N simulates each day on N workers (0 = all hardware threads);
// every reported number is identical at any thread count.
// --supervised runs the days through the StudySupervisor (retries, watchdog
// deadlines, poison-UE quarantine) and appends a Supervision section;
// --fault-rate F (implies --supervised) additionally storms the shard tasks
// with seeded throws/EIOs/slowdowns at probability F per attempt — the
// report's numbers must not move.
// --metrics-out PATH installs a metrics registry for the run and writes the
// engine's internal telemetry (shard/day latencies, WAL volume, retry and
// quarantine pressure) as Prometheus text exposition to PATH, plus an
// Observability section to stdout. Report numbers are identical with or
// without it — metrics are observational only.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "core/control_plane.hpp"
#include "core/qos_model.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/study_monitor.hpp"
#include "supervise/supervisor.hpp"
#include "supervise/task_fault_injector.hpp"
#include "telemetry/aggregates.hpp"
#include "telemetry/pingpong.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: " << argv0
            << " [scale] [days] [--threads N] [--supervised]"
               " [--fault-rate F] [--metrics-out PATH]\n"
            << "  scale        (0, 1]   deployment scale factor\n"
            << "  days         1..366   study days to simulate\n"
            << "  --threads    0..1024  workers per day (0 = all hardware)\n"
            << "  --fault-rate [0, 1]   per-attempt shard fault probability\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tl;

  core::StudyConfig config = core::StudyConfig::bench_scale();
  bool supervised = false;
  double fault_rate = 0.0;
  std::string metrics_out;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const auto threads = util::parse_uint(argv[++i], 0, 1024);
      if (!threads) usage(argv[0], std::string{"bad --threads: "} + argv[i]);
      config.threads = static_cast<unsigned>(*threads);
    } else if (std::strcmp(argv[i], "--supervised") == 0) {
      supervised = true;
    } else if (std::strcmp(argv[i], "--fault-rate") == 0 && i + 1 < argc) {
      const auto rate = util::parse_double(argv[++i], 0.0, 1.0);
      if (!rate) usage(argv[0], std::string{"bad --fault-rate: "} + argv[i]);
      fault_rate = *rate;
      supervised = true;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 2) usage(argv[0], "too many positional arguments");
  config.scale = 0.01;
  config.days = 1;
  if (positional.size() > 0) {
    const auto scale = util::parse_double(positional[0], 1e-6, 1.0);
    if (!scale) usage(argv[0], std::string{"bad scale: "} + positional[0]);
    config.scale = *scale;
  }
  if (positional.size() > 1) {
    const auto days = util::parse_uint(positional[1], 1, 366);
    if (!days) usage(argv[0], std::string{"bad days: "} + positional[1]);
    config.days = static_cast<int>(*days);
  }
  config.finalize();
  config.population.count = 20'000;

  std::cout << "Simulating " << config.days << " day(s) of network operation...\n";

  // Install the registry before anything resolves obs handles; it must
  // outlive the simulator's runs, hence scope-level lifetime here.
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::ScopedGlobalRegistry> install;
  std::unique_ptr<obs::StudyMonitor> monitor;
  if (!metrics_out.empty()) {
    install = std::make_unique<obs::ScopedGlobalRegistry>(&registry);
    monitor = std::make_unique<obs::StudyMonitor>(registry);
  }

  core::Simulator sim{config};

  supervise::TaskFaultConfig storm;
  storm.seed = config.seed ^ 0x0b5;
  storm.throw_rate = fault_rate / 3;
  storm.io_error_rate = fault_rate / 3;
  storm.slow_rate = fault_rate / 3;
  storm.slow_ms = 2;
  const supervise::TaskFaultInjector injector{storm};
  std::unique_ptr<supervise::StudySupervisor> supervisor;
  if (supervised) {
    supervise::SupervisorOptions sup_opt;
    sup_opt.retry.attempt_deadline_ms = 10'000;
    if (fault_rate > 0.0) sup_opt.injector = &injector;
    supervisor = std::make_unique<supervise::StudySupervisor>(sup_opt);
    sim.set_supervisor(supervisor.get());
  }
  telemetry::PingPongDetector pingpong{10'000};
  core::QosAggregator qos;
  telemetry::CauseAggregator causes{config.days, sim.catalog().manufacturers().size()};
  telemetry::UeDayStore ue_days;
  sim.add_sink(&pingpong);
  sim.add_sink(&qos);
  sim.add_sink(&causes);
  sim.add_metrics_sink(&ue_days);
  sim.run();

  // Control-plane load: replay the generator over the UE-day HO counts.
  const core::ControlPlaneGenerator control{sim.country(), sim.activity()};
  telemetry::ControlEventCounter control_counter;
  for (const auto& row : ue_days.rows()) {
    control.generate_day(sim.population().ue(row.ue), row.day, row.handovers,
                         control_counter);
  }

  util::print_section(std::cout, "Control-plane load (all days)");
  util::TextTable cp{{"Event", "Count", "Per UE per day"}};
  const double ue_days_n = static_cast<double>(ue_days.rows().size());
  for (int t = 0; t < static_cast<int>(telemetry::kControlEventTypes); ++t) {
    const auto type = static_cast<telemetry::ControlEventType>(t);
    cp.add_row({std::string{telemetry::to_string(type)},
                std::to_string(control_counter.count(type)),
                util::TextTable::num(control_counter.count(type) / ue_days_n, 1)});
  }
  cp.add_row({"Handover", std::to_string(sim.records_emitted()),
              util::TextTable::num(sim.records_emitted() / ue_days_n, 1)});
  cp.print(std::cout);

  util::print_section(std::cout, "Handover health");
  util::TextTable hh{{"Metric", "Value"}};
  hh.add_row({"handovers", std::to_string(pingpong.total_handovers())});
  hh.add_row({"ping-pong rate", util::TextTable::pct(pingpong.ping_pong_rate(), 2)});
  hh.add_row({"wasted PP signaling",
              util::TextTable::num(pingpong.wasted_signaling_ms() / 1'000.0, 1) + " s"});
  hh.add_row({"mean interruption (success)",
              util::TextTable::num(qos.mean_interruption_success_ms(), 1) + " ms"});
  hh.add_row({"mean interruption (failure)",
              util::TextTable::num(qos.mean_interruption_failure_ms(), 1) + " ms"});
  hh.add_row({"user-plane loss",
              util::TextTable::num(qos.total_lost_mbytes() / 1'024.0, 2) + " GB"});
  hh.add_row({"loss from vertical HOs",
              util::TextTable::pct(qos.vertical_share_of_loss(), 1)});
  hh.print(std::cout);

  util::print_section(std::cout, "Top failure causes today");
  util::TextTable fc{{"Cause", "share of failures"}};
  for (std::size_t b = 0; b < telemetry::CauseAggregator::kBuckets; ++b) {
    const auto share = causes.daily_share(b);
    if (share.mean < 0.03) continue;
    fc.add_row({telemetry::CauseAggregator::bucket_label(b),
                util::TextTable::pct(share.mean, 1)});
  }
  fc.print(std::cout);

  // Regional core entity rollup.
  util::print_section(std::cout, "Core entities");
  util::TextTable ce{{"Region", "MME HOs", "MME HOF rate", "SGSN relocations",
                      "MSC SRVCC"}};
  for (const auto region : geo::kAllRegions) {
    const auto& mme = sim.core_network().mme(region);
    const auto& sgsn = sim.core_network().sgsn(region);
    const auto& msc = sim.core_network().msc(region);
    ce.add_row({std::string{geo::to_string(region)},
                std::to_string(mme.handovers.procedures),
                util::TextTable::pct(mme.handovers.failure_rate(), 2),
                std::to_string(sgsn.relocations.procedures),
                std::to_string(msc.srvcc.procedures)});
  }
  ce.print(std::cout);

  if (supervisor != nullptr) {
    const auto& summary = supervisor->summary();
    util::print_section(std::cout, "Supervision");
    util::TextTable sv{{"Metric", "Value"}};
    sv.add_row({"days supervised", std::to_string(summary.days)});
    sv.add_row({"degraded days", std::to_string(summary.degraded_days)});
    sv.add_row({"shard attempts", std::to_string(summary.shard_attempts)});
    sv.add_row({"retries", std::to_string(summary.retries)});
    sv.add_row({"watchdog timeouts", std::to_string(summary.timeouts)});
    sv.add_row({"transient failures", std::to_string(summary.transient_failures)});
    sv.add_row({"permanent failures", std::to_string(summary.permanent_failures)});
    sv.add_row({"bisection probes", std::to_string(summary.bisection_probes)});
    sv.add_row({"quarantined UEs", std::to_string(sim.quarantined_ues().size())});
    sv.print(std::cout);
    if (fault_rate > 0.0) {
      std::cout << "\nEvery number above the Supervision section is identical to\n"
                   "an unsupervised, fault-free run: degradation is absorbed by\n"
                   "retries and quarantine, never by the telemetry.\n";
    }
  }

  if (monitor != nullptr) {
    const obs::StudyMonitor::Snapshot snap = monitor->snapshot();
    util::print_section(std::cout, "Observability");
    util::TextTable ob{{"Metric", "Value"}};
    ob.add_row({"days simulated", std::to_string(snap.days)});
    ob.add_row({"UE-days", std::to_string(snap.ue_days)});
    ob.add_row({"records", std::to_string(snap.records)});
    ob.add_row({"UE-days/sec", util::TextTable::num(snap.ue_days_per_sec, 0)});
    ob.add_row({"retries", std::to_string(snap.retries)});
    ob.add_row({"quarantine size", std::to_string(
                    static_cast<std::uint64_t>(snap.quarantine_size))});
    if (const auto* h = snap.metrics.find_histogram("tl_sim_day_seconds")) {
      ob.add_row({"day wall p50", util::TextTable::num(h->quantile(0.5), 3) + " s"});
      ob.add_row({"day wall p99", util::TextTable::num(h->quantile(0.99), 3) + " s"});
    }
    ob.print(std::cout);
    monitor->write_prometheus_file(metrics_out);
    std::cout << "\nWrote Prometheus exposition to " << metrics_out << "\n";
  }
  return 0;
}
