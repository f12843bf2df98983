// Table 5 — Full linear model (all covariates) on the outlier-filtered
// dataset, and Table 7 — the same model without HOs to 2G.
//
// Paper Table 5: HO type dominates (to-2G +5.48, to-3G +4.77) with smaller
// area/vendor/region effects (Rural +0.26, V3 +0.72, West +0.40).

#include <iostream>

#include "bench_world.hpp"
#include "core/hof_dataset.hpp"
#include "model_printing.hpp"

namespace {

using namespace tl;

const core::HofModelingDataset& dataset() {
  static const core::HofModelingDataset ds = [] {
    const auto& w = bench::modeling_world();
    return core::HofModelingDataset::build(*w.sector_day, w.sim->deployment(),
                                           w.sim->country());
  }();
  return ds;
}

void print_table5() {
  util::print_section(
      std::cout,
      "Table 5: Linear model, all covariates, outliers filtered "
      "(paper: to-2G +5.48, to-3G +4.77, Rural +0.26, Urban +0.19, V2 +0.12, "
      "V3 +0.72, West +0.40)");
  const auto filtered = dataset().filtered(50.0, 10, 30'000);
  std::cout << "rows after filter: " << filtered.size() << "\n";
  bench::print_model(std::cout, filtered.fit_full());
}

void print_table7() {
  util::print_section(std::cout,
                      "Table 7: Linear model w/o 2G HOs "
                      "(paper: to-3G +5.23, Rural +0.42, V3 +1.00, West +0.58)");
  const auto filtered = dataset().without_2g().filtered(50.0, 10, 30'000);
  std::cout << "rows after filter: " << filtered.size() << "\n";
  bench::print_model(std::cout, filtered.fit_full());
}

void print_stepwise() {
  util::print_section(std::cout,
                      "Appendix B: step-wise covariate selection (forward, by AIC)");
  const auto filtered = dataset().filtered(50.0, 10, 30'000);
  const auto result = filtered.fit_stepwise();
  std::cout << "selected order:";
  for (const auto& g : result.selected) std::cout << "  [" << g << "]";
  std::cout << "\nfinal model AIC = " << util::TextTable::num(result.model.aic, 0)
            << ", R^2 = " << util::TextTable::num(result.model.r_squared, 4) << "\n";
}

}  // namespace

int main() {
  print_table5();
  print_table7();
  print_stepwise();
  return 0;
}
