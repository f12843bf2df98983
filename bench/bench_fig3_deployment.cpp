// Fig. 3a — Deployment evolution 2009-2023 per RAT.
// Fig. 3b — Average daily RAT use (time share) + UL/DL traffic shares.

#include <iostream>

#include "bench_world.hpp"
#include "core/usage_model.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

void print_fig3a() {
  const auto& w = bench::static_world();
  const auto evolution = w.sim->deployment().evolution(2009, 2023);

  util::print_section(std::cout, "Fig. 3a: Deployment evolution (sector counts per RAT)");
  util::TextTable t{{"Year", "2G", "3G", "4G", "5G-NR", "Total", "2G%", "3G%", "4G%", "5G%"}};
  for (const auto& yc : evolution) {
    const double total = static_cast<double>(yc.total());
    t.add_row({std::to_string(yc.year), std::to_string(yc.by_rat[0]),
               std::to_string(yc.by_rat[1]), std::to_string(yc.by_rat[2]),
               std::to_string(yc.by_rat[3]), std::to_string(yc.total()),
               util::TextTable::pct(yc.by_rat[0] / total, 1),
               util::TextTable::pct(yc.by_rat[1] / total, 1),
               util::TextTable::pct(yc.by_rat[2] / total, 1),
               util::TextTable::pct(yc.by_rat[3] / total, 1)});
  }
  t.print(std::cout);
  const double growth = static_cast<double>(evolution.back().total()) /
                        static_cast<double>(evolution[9].total());
  std::cout << "2018->2023 growth: x" << util::TextTable::num(growth, 2)
            << "  (paper: ~+59% over the last 5 years)\n"
            << "End-of-2023 shares, paper: 2G ~18% / 3G ~18% / 4G ~55% / 5G 8.4%\n";
}

void print_fig3b() {
  const auto& w = bench::static_world();
  const core::UsageModel usage{w.sim->population(), w.sim->coverage()};
  const auto r = usage.compute(w.config.days);

  util::print_section(std::cout, "Fig. 3b: Average daily RAT use");
  util::TextTable t{{"RAT", "Time share (paper)", "Time share (measured)", "min..max",
                     "UL share (paper)", "UL (measured)", "DL share (paper)",
                     "DL (measured)"}};
  const char* names[3] = {"2G", "3G", "4G/5G-NSA"};
  const char* paper_time[3] = {"8.9%", "8.9%", "~82%"};
  const char* paper_ul[3] = {"", "5.23% (2G+3G)", "94.77%"};
  const char* paper_dl[3] = {"", "2.07% (2G+3G)", "97.93%"};
  for (int rat = 0; rat < 3; ++rat) {
    t.add_row({names[rat], paper_time[rat], util::TextTable::pct(r.time_share[rat], 1),
               util::TextTable::pct(r.time_share_min[rat], 1) + ".." +
                   util::TextTable::pct(r.time_share_max[rat], 1),
               paper_ul[rat], util::TextTable::pct(r.uplink_share[rat], 2),
               paper_dl[rat], util::TextTable::pct(r.downlink_share[rat], 2)});
  }
  t.print(std::cout);
  std::cout << "Legacy (2G+3G) UL share: "
            << util::TextTable::pct(r.uplink_share[0] + r.uplink_share[1], 2)
            << " (paper 5.23%), DL share: "
            << util::TextTable::pct(r.downlink_share[0] + r.downlink_share[1], 2)
            << " (paper 2.07%)\n";
}

}  // namespace

int main() {
  print_fig3a();
  print_fig3b();
  return 0;
}
