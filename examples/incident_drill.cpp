// Incident drill — scripts a canned fault scenario against one study day
// and reports before/during/after handover health, the shape a NOC would
// watch during a real sector outage plus vendor bug wave. Demonstrates the
// fault-injection subsystem end to end: scenario building, schedule
// installation, recovery modeling and the incident-window aggregator.
//
//   $ incident_drill [scale] [seed] [--storm]
//
// --storm runs the drill day under the StudySupervisor with an in-process
// task-fault storm on top of the RAN incident: shard attempts randomly
// throw, hit transient EIOs, or stall, and the supervisor's retries keep
// the drill's telemetry identical while it reports what the storm cost.
//
// The drill checks its own claims and exits 1, naming each failed check,
// unless all three hold: the before-window national HO and HOF counts equal
// the baseline's, no HO targets the victim during the window, and the
// drill's during-window national HOF rate exceeds the baseline's.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "core/simulator.hpp"
#include "faults/scenarios.hpp"
#include "supervise/supervisor.hpp"
#include "supervise/task_fault_injector.hpp"
#include "telemetry/aggregates.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

[[noreturn]] static void usage(const char* argv0, const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: " << argv0 << " [scale] [seed] [--storm]\n"
            << "  scale (0, 1]  deployment scale factor\n"
            << "  seed  uint64  simulation seed\n";
  std::exit(2);
}

int main(int argc, char** argv) {
  using namespace tl;
  using Phase = telemetry::IncidentWindowAggregator::Phase;

  bool storm = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--storm") == 0) {
      storm = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 2) usage(argv[0], "too many positional arguments");
  core::StudyConfig config = core::StudyConfig::bench_scale();
  config.scale = 0.01;
  config.seed = 42;
  if (!positional.empty()) {
    const auto scale = util::parse_double(positional[0], 1e-6, 1.0);
    if (!scale) usage(argv[0], std::string{"bad scale: "} + positional[0]);
    config.scale = *scale;
  }
  if (positional.size() > 1) {
    const auto seed = util::parse_uint(positional[1]);
    if (!seed) usage(argv[0], std::string{"bad seed: "} + positional[1]);
    config.seed = *seed;
  }
  config.days = 1;
  config.finalize();
  config.population.count = 20'000;
  config.recovery.enabled = true;  // UEs re-attempt after HOFs during the drill

  // Baseline pass: find the busiest sector so the drill hits where it hurts.
  std::cout << "Baseline day (no faults)...\n";
  core::Simulator baseline{config};
  const auto n_sectors = baseline.deployment().sectors().size();
  const auto window_start = faults::at_hour(0, 10.0);
  const auto window_end = faults::at_hour(0, 14.0);
  telemetry::IncidentWindowAggregator before{window_start, window_end, n_sectors};
  baseline.add_sink(&before);
  baseline.run();

  topology::SectorId victim = 0;
  std::uint64_t busiest = 0;
  for (topology::SectorId s = 0; s < n_sectors; ++s) {
    const std::uint64_t total = before.targeting(s, Phase::kBefore) +
                                before.targeting(s, Phase::kDuring) +
                                before.targeting(s, Phase::kAfter);
    if (total > busiest) {
      busiest = total;
      victim = s;
    }
  }
  const auto& victim_sector = baseline.deployment().sectors()[victim];

  // The drill: take the busiest sector off-air for the window, and let a
  // vendor bug wave degrade its vendor's fleet for the same hours.
  faults::Scenario drill = faults::single_sector_drill(victim, 0, 10.0, 14.0);
  drill.add(faults::vendor_bug_wave(victim_sector.vendor, window_start, window_end, 8.0));
  faults::FaultSchedule schedule;
  drill.install(schedule);

  std::cout << "Drill day: sector " << victim << " off-air 10:00-14:00, vendor "
            << topology::to_string(victim_sector.vendor) << " bug wave x8"
            << (storm ? ", supervised task-fault storm" : "") << "...\n";
  core::Simulator sim{config};
  sim.set_fault_schedule(&schedule);

  // --storm: the RAN incident above attacks the modeled network; this
  // attacks the pipeline running the model. Both at once is the realistic
  // bad day, and the drill tables must not change.
  supervise::TaskFaultConfig storm_cfg;
  storm_cfg.seed = config.seed ^ 0x57032;
  storm_cfg.throw_rate = 0.05;
  storm_cfg.io_error_rate = 0.05;
  storm_cfg.slow_rate = 0.05;
  storm_cfg.slow_ms = 2;
  const supervise::TaskFaultInjector injector{storm_cfg};
  supervise::SupervisorOptions sup_opt;
  sup_opt.retry.attempt_deadline_ms = 10'000;
  sup_opt.injector = &injector;
  supervise::StudySupervisor supervisor{sup_opt};
  if (storm) sim.set_supervisor(&supervisor);

  telemetry::IncidentWindowAggregator during{window_start, window_end, n_sectors};
  sim.add_sink(&during);
  sim.run();

  const char* phase_names[] = {"before (00-10h)", "during (10-14h)", "after (14-24h)"};
  const Phase phases[] = {Phase::kBefore, Phase::kDuring, Phase::kAfter};

  util::print_section(std::cout, "National HO health around the incident window");
  util::TextTable nat{{"Phase", "HOs (baseline)", "HOF (baseline)", "HOs (drill)",
                       "HOF (drill)"}};
  for (int p = 0; p < 3; ++p) {
    const auto& b = before.national(phases[p]);
    const auto& d = during.national(phases[p]);
    nat.add_row({phase_names[p], std::to_string(b.handovers),
                 util::TextTable::pct(b.hof_rate(), 2), std::to_string(d.handovers),
                 util::TextTable::pct(d.hof_rate(), 2)});
  }
  nat.print(std::cout);

  util::print_section(std::cout, "Victim sector (HOs targeting it)");
  util::TextTable vic{{"Phase", "baseline", "drill"}};
  for (int p = 0; p < 3; ++p) {
    vic.add_row({phase_names[p], std::to_string(before.targeting(victim, phases[p])),
                 std::to_string(during.targeting(victim, phases[p]))});
  }
  vic.print(std::cout);

  util::print_section(std::cout, "Victim sector as HO source");
  util::TextTable src{{"Phase", "HOs (drill)", "HOF (drill)"}};
  for (int p = 0; p < 3; ++p) {
    const auto& t = during.sourced_at(victim, phases[p]);
    src.add_row({phase_names[p], std::to_string(t.handovers),
                 util::TextTable::pct(t.hof_rate(), 2)});
  }
  src.print(std::cout);

  if (storm) {
    const auto& summary = supervisor.summary();
    util::print_section(std::cout, "Supervision (task-fault storm)");
    util::TextTable sv{{"Metric", "Value"}};
    sv.add_row({"shard attempts", std::to_string(summary.shard_attempts)});
    sv.add_row({"retries", std::to_string(summary.retries)});
    sv.add_row({"transient failures", std::to_string(summary.transient_failures)});
    sv.add_row({"watchdog timeouts", std::to_string(summary.timeouts)});
    sv.add_row({"quarantined UEs", std::to_string(sim.quarantined_ues().size())});
    sv.print(std::cout);
  }

  std::cout << "\nThe during-window column should read zero for the victim and the\n"
               "national drill HOF should spike inside the window only — injected\n"
               "incidents flow through the same records as organic failures.\n";

  const auto& base_before = before.national(Phase::kBefore);
  const auto& drill_before = during.national(Phase::kBefore);
  const struct {
    const char* name;
    bool ok;
  } checks[] = {
      {"before-window national HOs and HOFs equal the baseline's",
       drill_before.handovers == base_before.handovers &&
           drill_before.failures == base_before.failures},
      {"no HO targets the victim during the window",
       during.targeting(victim, Phase::kDuring) == 0},
      {"during-window national HOF rate exceeds the baseline's",
       during.national(Phase::kDuring).hof_rate() >
           before.national(Phase::kDuring).hof_rate()},
  };
  int failed = 0;
  for (const auto& check : checks) {
    if (check.ok) continue;
    std::cerr << "incident_drill: check failed: " << check.name << "\n";
    ++failed;
  }
  return failed > 0 ? 1 : 0;
}
