// Fig. 6 — Daily HOs per square km per district vs population density
// (Pearson 0.97; 2.1M HOs/km2 in the capital centre, 60 in the most remote
// district, 13.1k mean).

#include <algorithm>
#include <iostream>

#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

void print_fig6() {
  const auto& w = bench::simulated_world();
  const auto density = core::district_ho_density(*w.sim, *w.districts);

  util::print_section(std::cout, "Fig. 6: Daily HOs per km^2 per district");
  std::cout << "Pearson(HOs/km^2, residents/km^2) = "
            << util::TextTable::num(density.pearson, 3) << "   (paper: 0.97)\n";

  const double scale_up = 1.0 /
      (static_cast<double>(w.config.population.count) / core::StudyConfig::kFullScaleUes);
  util::TextTable t{{"Statistic", "Paper (full scale)", "Measured", "Measured x scale"}};
  t.add_row({"max HOs/km^2 (capital centre)", "~2.1M",
             util::TextTable::num(density.max_hos_per_km2, 1),
             util::TextTable::num(density.max_hos_per_km2 * scale_up, 0)});
  t.add_row({"district mean HOs/km^2", "13.1k",
             util::TextTable::num(density.mean_hos_per_km2, 2),
             util::TextTable::num(density.mean_hos_per_km2 * scale_up, 0)});
  t.add_row({"min HOs/km^2 (remote)", "~60",
             util::TextTable::num(density.min_hos_per_km2, 3),
             util::TextTable::num(density.min_hos_per_km2 * scale_up, 1)});
  t.print(std::cout);

  // Decile profile of the distribution across districts.
  std::vector<double> sorted = density.hos_per_km2;
  std::sort(sorted.begin(), sorted.end());
  util::TextTable d{{"Percentile", "HOs/km^2 (this run)"}};
  for (const double p : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    d.add_row({util::TextTable::pct(p, 0),
               util::TextTable::num(sorted[static_cast<std::size_t>(
                                        p * (sorted.size() - 1))],
                                    2)});
  }
  d.print(std::cout);
}

}  // namespace

int main() {
  print_fig6();
  return 0;
}
