// Fig. 5 — Census population vs MNO-inferred population (R^2 = 0.92).

#include <algorithm>
#include <iostream>

#include "bench_world.hpp"
#include "core/home_inference.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

void print_fig5() {
  const auto& w = bench::static_world();
  const auto result = core::infer_home_locations(w.sim->country(), w.sim->deployment(),
                                                 w.sim->population());

  util::print_section(std::cout, "Fig. 5: Inferred vs census population (district level)");
  std::cout << "R^2 (paper: 0.92): " << util::TextTable::num(result.r_squared(), 3)
            << "\nfit: census = " << util::TextTable::num(result.fit.intercept, 1)
            << " + " << util::TextTable::num(result.fit.slope, 2) << " * inferred\n";

  // Scatter extract: top-10 districts by census population.
  std::vector<std::size_t> order(result.census_population.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.census_population[a] > result.census_population[b];
  });
  util::TextTable t{{"District", "Census population", "Inferred MNO users"}};
  for (std::size_t i = 0; i < order.size() && i < 10; ++i) {
    const auto d = order[i];
    t.add_row({w.sim->country().district(static_cast<geo::DistrictId>(d)).name,
               std::to_string(result.census_population[d]),
               std::to_string(result.inferred_users[d])});
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  print_fig5();
  return 0;
}
