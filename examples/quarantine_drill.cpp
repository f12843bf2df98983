// Quarantine drill — the always-on operations story end to end: a multi-day
// supervised study runs under a seeded in-process fault storm (task throws,
// transient EIOs, hangs, slowdowns) on top of a set of poison UEs that fail
// deterministically on every attempt. The supervisor retries the transient
// failures with backoff, cancels hung shards via watchdog deadlines, bisects
// the deterministic failures down to the offending UEs and quarantines them
// — and the drill then proves the degradation was lossless by re-running
// serially, uninjected, over the surviving population and comparing record
// checksums.
//
//   $ quarantine_drill [scale] [days] [--threads N] [--poison F] [--storm F]
//
// --poison F   fraction of UEs that are deterministically pathological
// --storm F    per-attempt task fault probability (split across fault kinds)

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "supervise/supervisor.hpp"
#include "supervise/task_fault_injector.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/sinks.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

[[noreturn]] static void usage(const char* argv0, const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: " << argv0
            << " [scale] [days] [--threads N] [--poison F] [--storm F]\n"
            << "  scale     (0, 1]   deployment scale factor\n"
            << "  days      1..366   study days to simulate\n"
            << "  --threads 0..1024  workers per day (0 = all hardware)\n"
            << "  --poison  [0, 1]   fraction of UEs seeded as poison\n"
            << "  --storm   [0, 1]   per-attempt transient-fault probability\n";
  std::exit(2);
}

int main(int argc, char** argv) {
  using namespace tl;

  core::StudyConfig config = core::StudyConfig::test_scale();
  double poison_fraction = 0.002;
  double storm_rate = 0.12;
  config.threads = 0;  // all hardware threads unless --threads says otherwise
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const auto parsed = util::parse_uint(argv[++i], 0, 1024);
      if (!parsed) usage(argv[0], std::string{"bad --threads: "} + argv[i]);
      config.threads = static_cast<unsigned>(*parsed);
    } else if (std::strcmp(argv[i], "--poison") == 0 && i + 1 < argc) {
      const auto parsed = util::parse_double(argv[++i], 0.0, 1.0);
      if (!parsed) usage(argv[0], std::string{"bad --poison: "} + argv[i]);
      poison_fraction = *parsed;
    } else if (std::strcmp(argv[i], "--storm") == 0 && i + 1 < argc) {
      const auto parsed = util::parse_double(argv[++i], 0.0, 1.0);
      if (!parsed) usage(argv[0], std::string{"bad --storm: "} + argv[i]);
      storm_rate = *parsed;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 2) usage(argv[0], "too many positional arguments");
  if (!positional.empty()) {
    const auto scale = util::parse_double(positional[0], 1e-6, 1.0);
    if (!scale) usage(argv[0], std::string{"bad scale: "} + positional[0]);
    config.scale = *scale;
  }
  config.days = 2;
  if (positional.size() > 1) {
    const auto days = util::parse_uint(positional[1], 1, 366);
    if (!days) usage(argv[0], std::string{"bad days: "} + positional[1]);
    config.days = static_cast<int>(*days);
  }
  config.finalize();
  config.population.count = 4'000;

  supervise::TaskFaultConfig storm;
  storm.seed = config.seed ^ 0xD811;
  storm.throw_rate = storm_rate / 4;
  storm.io_error_rate = storm_rate / 4;
  storm.hang_rate = storm_rate / 4;
  storm.slow_rate = storm_rate / 4;
  storm.slow_ms = 2;
  storm.hang_cap_ms = 30'000;  // hangs end only when the watchdog fires
  storm.poison_ue_fraction = poison_fraction;
  storm.poison_hang_fraction = 0.25;
  const supervise::TaskFaultInjector injector{storm};

  supervise::SupervisorOptions sup_opt;
  sup_opt.retry.attempt_deadline_ms = 2'000;
  sup_opt.injector = &injector;
  sup_opt.on_quarantine = [](const supervise::QuarantinedItem& q) {
    std::cout << "  quarantined UE " << q.item << " (day " << q.day << ", shard "
              << q.shard << "): " << q.status.to_string() << "\n";
  };
  supervise::StudySupervisor supervisor{sup_opt};

  std::cout << "Supervised study: " << config.days << " day(s), "
            << config.population.count << " UEs, task fault rate " << storm_rate
            << ", poison fraction " << poison_fraction << "...\n";
  tl::telemetry::ChecksumSink storm_crc;
  core::Simulator sim{config};
  sim.set_supervisor(&supervisor);
  sim.add_sink(&storm_crc);
  sim.run();
  sim.remove_sink(&storm_crc);
  const std::vector<devices::UeId> quarantined = sim.quarantined_ues();

  const auto& summary = supervisor.summary();
  util::print_section(std::cout, "Supervision summary");
  util::TextTable st{{"Metric", "Value"}};
  st.add_row({"days", std::to_string(summary.days)});
  st.add_row({"degraded days", std::to_string(summary.degraded_days)});
  st.add_row({"shard attempts", std::to_string(summary.shard_attempts)});
  st.add_row({"retries", std::to_string(summary.retries)});
  st.add_row({"watchdog timeouts", std::to_string(summary.timeouts)});
  st.add_row({"transient failures", std::to_string(summary.transient_failures)});
  st.add_row({"permanent failures", std::to_string(summary.permanent_failures)});
  st.add_row({"bisection probes", std::to_string(summary.bisection_probes)});
  st.add_row({"quarantined UEs", std::to_string(quarantined.size())});
  st.print(std::cout);

  if (!summary.quarantine.items.empty()) {
    util::print_section(std::cout, "Quarantine report");
    util::TextTable qt{{"UE", "Day", "Shard", "Verdict", "Shard attempts"}};
    for (const auto& q : summary.quarantine.items) {
      qt.add_row({std::to_string(q.item), std::to_string(q.day),
                  std::to_string(q.shard), std::string{to_string(q.status.code())},
                  std::to_string(q.trail.size())});
    }
    qt.print(std::cout);
  }

  // The lossless-degradation check: a serial, unsupervised, uninjected run
  // over the surviving population must reproduce the storm's byte stream.
  std::cout << "\nVerifying against a clean serial run over the survivors...\n";
  tl::telemetry::ChecksumSink clean_crc;
  core::Simulator oracle{config};
  oracle.set_threads(1);
  oracle.set_quarantined_ues(quarantined);
  oracle.add_sink(&clean_crc);
  oracle.run();

  util::print_section(std::cout, "Byte-determinism verdict");
  util::TextTable vt{{"Run", "Records", "Stream CRC32C"}};
  vt.add_row({"supervised + fault storm", std::to_string(storm_crc.records()),
              std::to_string(storm_crc.checksum())});
  vt.add_row({"clean serial over survivors", std::to_string(clean_crc.records()),
              std::to_string(clean_crc.checksum())});
  vt.print(std::cout);

  if (storm_crc.checksum() != clean_crc.checksum() ||
      storm_crc.records() != clean_crc.records()) {
    std::cout << "\nMISMATCH — supervised degradation altered the stream.\n";
    return 1;
  }
  std::cout << "\nIdentical: the storm cost retries and " << quarantined.size()
            << " quarantined UE(s), not correctness.\n";
  return 0;
}
