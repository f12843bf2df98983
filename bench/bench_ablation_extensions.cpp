// Ablation experiments for the design choices DESIGN.md calls out, plus the
// paper's §8 extension studies:
//   A. Ping-pong suppression: what the [15]-style policy buys (PP rate,
//      wasted signaling) and costs (suppressed HOs).
//   B. Telemetry sampling: estimator error for the Table-2 vertical share
//      and the HOF rate across policies and rates — the paper's call for
//      "efficient data sampling techniques".
//   C. QoS impact: the user-plane cost of HOs/HOFs, and the share of damage
//      attributable to vertical HOs (the paper's central complaint).

#include <cmath>
#include <iostream>

#include "bench_world.hpp"
#include "core/qos_model.hpp"
#include "telemetry/pingpong.hpp"
#include "telemetry/signaling_dataset.hpp"
#include "telemetry/sampling.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

core::StudyConfig ablation_config() {
  core::StudyConfig cfg = bench::bench_config();
  cfg.days = 2;
  cfg.population.count =
      static_cast<std::uint32_t>(bench::env_double("TL_ABLATION_UES", 12'000));
  return cfg;
}

void print_pingpong_ablation() {
  util::print_section(std::cout,
                      "Ablation A: ping-pong suppression (sub-cell movement detection)");
  util::TextTable t{{"Variant", "HOs", "PP events", "PP rate", "wasted signaling (s)"}};
  for (const bool suppress : {false, true}) {
    core::StudyConfig cfg = ablation_config();
    cfg.suppress_ping_pong = suppress;
    cfg.ping_pong_window_ms = 10'000;
    core::Simulator sim{cfg};
    telemetry::PingPongDetector detector{10'000};
    sim.add_sink(&detector);
    sim.run();
    t.add_row({suppress ? "suppression ON" : "baseline",
               std::to_string(detector.total_handovers()),
               std::to_string(detector.ping_pongs()),
               util::TextTable::pct(detector.ping_pong_rate(), 2),
               util::TextTable::num(detector.wasted_signaling_ms() / 1'000.0, 1)});
  }
  t.print(std::cout);
}

void print_sampling_ablation() {
  util::print_section(std::cout,
                      "Ablation B: telemetry sampling accuracy (Horvitz-Thompson)");

  // Ground truth from one full stream.
  core::StudyConfig cfg = ablation_config();
  core::Simulator sim{cfg};
  telemetry::SignalingDataset full;
  sim.add_sink(&full);
  sim.run();
  double true_vertical = 0, true_hof = 0;
  for (const auto& r : full.records()) {
    if (r.is_vertical()) ++true_vertical;
    if (!r.success) ++true_hof;
  }
  true_vertical /= static_cast<double>(full.size());
  true_hof /= static_cast<double>(full.size());
  std::cout << "ground truth: vertical share "
            << util::TextTable::pct(true_vertical, 2) << ", HOF rate "
            << util::TextTable::pct(true_hof, 3) << ", " << full.size()
            << " records\n";

  util::TextTable t{{"Policy", "rate", "kept", "vertical-share error",
                     "HOF-rate error"}};
  const struct {
    telemetry::SamplingPolicy policy;
    const char* name;
  } policies[] = {{telemetry::SamplingPolicy::kUniform, "uniform"},
                  {telemetry::SamplingPolicy::kPerUe, "per-UE"},
                  {telemetry::SamplingPolicy::kStratifiedByTarget, "stratified"}};
  for (const auto& p : policies) {
    for (const double rate : {0.10, 0.01}) {
      telemetry::SignalingDataset kept;
      telemetry::SamplingSink sampler{kept, p.policy, rate};
      for (const auto& r : full.records()) sampler.consume(r);
      double wv = 0, wh = 0, wt = 0;
      for (const auto& r : kept.records()) {
        const double w = sampler.weight_of(r);
        wt += w;
        if (r.is_vertical()) wv += w;
        if (!r.success) wh += w;
      }
      const double est_vertical = wt > 0 ? wv / wt : 0.0;
      const double est_hof = wt > 0 ? wh / wt : 0.0;
      t.add_row({p.name, util::TextTable::num(rate, 2), std::to_string(sampler.kept()),
                 util::TextTable::pct(std::fabs(est_vertical - true_vertical), 3),
                 util::TextTable::pct(std::fabs(est_hof - true_hof), 3)});
    }
  }
  t.print(std::cout);
  std::cout << "(stratified keeps every rare vertical HO: its tail statistics survive\n"
               " even at 1% volume, which uniform sampling cannot guarantee)\n";
}

void print_qos_ablation() {
  util::print_section(std::cout, "Ablation C: QoS impact of HOs and HOFs (§8)");
  core::StudyConfig cfg = ablation_config();
  core::Simulator sim{cfg};
  core::QosAggregator qos;
  sim.add_sink(&qos);
  sim.run();
  util::TextTable t{{"Metric", "Value"}};
  t.add_row({"records", std::to_string(qos.records())});
  t.add_row({"mean interruption, successful HO",
             util::TextTable::num(qos.mean_interruption_success_ms(), 1) + " ms"});
  t.add_row({"mean interruption, failed HO",
             util::TextTable::num(qos.mean_interruption_failure_ms(), 1) + " ms"});
  t.add_row({"total user-plane loss",
             util::TextTable::num(qos.total_lost_mbytes() / 1'024.0, 1) + " GB"});
  t.add_row({"share of loss from vertical HOs",
             util::TextTable::pct(qos.vertical_share_of_loss(), 1)});
  t.print(std::cout);
  std::cout << "(vertical HOs are ~6% of events; their outsized loss share is the\n"
               " paper's quantitative case for legacy-RAT decommissioning)\n";
}

}  // namespace

int main() {
  print_pingpong_ablation();
  print_sampling_ablation();
  print_qos_ablation();
  return 0;
}
