// Table 1 — Dataset statistics.
//
// Regenerates the paper's dataset-statistics table at the configured scale
// and reports the full-scale equivalents next to the paper's values.

#include <iostream>

#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

void print_table1() {
  const auto& w = bench::simulated_world();
  const auto stats = core::dataset_stats(*w.sim, w.sim->records_emitted());

  util::print_section(std::cout, "Table 1: Dataset statistics");
  util::TextTable t{{"Feature", "Paper", "This run", "Full-scale equivalent"}};
  t.add_row({"Area covered", "Country in Europe (300+ districts)",
             std::to_string(stats.districts) + " districts (synthetic country)",
             std::to_string(stats.districts) + " districts"});
  t.add_row({"# of cell sites", "24k+", std::to_string(stats.cell_sites),
             util::TextTable::num(stats.full_scale_sites, 0)});
  t.add_row({"# of radio sectors", "350k+", std::to_string(stats.radio_sectors),
             util::TextTable::num(stats.full_scale_sectors, 0)});
  t.add_row({"# of UEs measured", "~40M", std::to_string(stats.ues_measured),
             util::TextTable::num(stats.full_scale_ues, 0)});
  t.add_row({"# handovers (daily)", "1.7B+",
             util::TextTable::num(stats.daily_handovers, 0),
             util::TextTable::num(stats.full_scale_daily_handovers, 0)});
  t.add_row({"Measurement duration", "4 weeks (28 days)",
             std::to_string(stats.days) + " days", "-"});
  t.print(std::cout);
}

/// Streaming throughput of the telemetry path: how fast records pass
/// through a retaining sink (the operator-pipeline hot path).
}  // namespace

int main() {
  print_table1();
  return 0;
}
