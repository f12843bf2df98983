// Fig. 12 — HOF counts per hour in urban and rural areas, normalized by
// the number of active sectors of each class. Paper: morning peak
// [7:00-9:00), afternoon peak [15:00-18:00), rural median +32.4% over urban
// during [7:00-8:00).

#include <iostream>

#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

void print_fig12() {
  const auto& w = bench::simulated_world();
  const auto hourly = w.temporal->hourly_hof_per_active_sector();
  const auto& rural = hourly[static_cast<std::size_t>(geo::AreaType::kRural)];
  const auto& urban = hourly[static_cast<std::size_t>(geo::AreaType::kUrban)];

  util::print_section(std::cout,
                      "Fig. 12: HOFs per hour per active sector (urban vs rural)");
  util::TextTable t{{"Hour", "Urban", "Rural", "Rural/Urban"}};
  for (int h = 0; h < 24; ++h) {
    const double ratio = urban[h] > 0.0 ? rural[h] / urban[h] : 0.0;
    t.add_row({std::to_string(h) + ":00", util::TextTable::num(urban[h], 3),
               util::TextTable::num(rural[h], 3), util::TextTable::num(ratio, 2)});
  }
  t.print(std::cout);

  const double ratio_7 = urban[7] > 0.0 ? rural[7] / urban[7] - 1.0 : 0.0;
  std::cout << "Rural excess at [7:00-8:00) (paper: +32.4%): "
            << util::TextTable::pct(ratio_7, 1) << "\n";
  // Peaks.
  int peak_hour = 0;
  for (int h = 1; h < 24; ++h) {
    if (rural[h] > rural[peak_hour]) peak_hour = h;
  }
  std::cout << "Rural HOF peak hour (paper: morning commute [7:00-9:00)): "
            << peak_hour << ":00\n";
}

}  // namespace

int main() {
  print_fig12();
  return 0;
}
