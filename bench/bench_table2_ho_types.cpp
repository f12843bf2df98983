// Table 2 — Statistics per handover and device type (shares of all HOs,
// with min/max daily variation).

#include <iostream>

#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;
using topology::ObservedRat;

std::string share_cell(const telemetry::TypeMixAggregator::Share& s) {
  return util::TextTable::pct(s.mean, 2) + " [" + util::TextTable::pct(s.min, 2) + ".." +
         util::TextTable::pct(s.max, 2) + "]";
}

void print_table2() {
  const auto& w = bench::simulated_world();
  const auto& mix = *w.mix;

  util::print_section(std::cout, "Table 2: HO type x device type (share of all HOs)");
  util::TextTable t{{"Device type", "Intra 4G/5G-NSA", "to 3G", "to 2G", "All"}};
  const char* paper[4][4] = {
      {"88.28 +/- 0.77 %", "5.84 +/- 0.77 %", "<0.001%", "94.12%"},
      {"5.73 +/- 0.52 %", "0.02 +/- 0.01 %", "<0.001%", "5.75%"},
      {"0.13 +/- 0.05 %", "<0.001%", "<0.001%", "0.13%"},
      {"94.14 +/- 1.29 %", "5.86 +/- 0.78 %", "<0.001%", "-"},
  };
  int row = 0;
  for (const auto type : devices::kAllDeviceTypes) {
    const auto intra = mix.daily_share(type, ObservedRat::kG45Nsa);
    const auto g3 = mix.daily_share(type, ObservedRat::kG3);
    const auto g2 = mix.daily_share(type, ObservedRat::kG2);
    t.add_row({std::string{devices::to_string(type)} + " (paper)", paper[row][0],
               paper[row][1], paper[row][2], paper[row][3]});
    t.add_row({std::string{devices::to_string(type)} + " (measured)", share_cell(intra),
               share_cell(g3), share_cell(g2),
               util::TextTable::pct(intra.mean + g3.mean + g2.mean, 2)});
    ++row;
  }
  // All-devices row.
  const double total = static_cast<double>(mix.total());
  double intra_all = 0, g3_all = 0, g2_all = 0;
  for (const auto type : devices::kAllDeviceTypes) {
    intra_all += static_cast<double>(mix.count(type, ObservedRat::kG45Nsa));
    g3_all += static_cast<double>(mix.count(type, ObservedRat::kG3));
    g2_all += static_cast<double>(mix.count(type, ObservedRat::kG2));
  }
  t.add_row({"All devices (paper)", paper[3][0], paper[3][1], paper[3][2], paper[3][3]});
  t.add_row({"All devices (measured)", util::TextTable::pct(intra_all / total, 2),
             util::TextTable::pct(g3_all / total, 2),
             util::TextTable::pct(g2_all / total, 4), "-"});
  t.print(std::cout);
}

}  // namespace

int main() {
  print_table2();
  return 0;
}
