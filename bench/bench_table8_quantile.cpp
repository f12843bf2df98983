// Table 8 — Quantile regression of log(HOF rate) on HO type, outliers
// filtered, tau in {0.2, 0.4, 0.6, 0.8}.
// Table 9 — The same over all non-zero HOF rates.
//
// Paper: the to-3G coefficient stays ~4.8-5.0 (filtered) / ~5.0-5.5 (all)
// across the whole quantile range; to-2G ~5.7-5.9 / ~6.7-7.2.

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

void print_quantile_tables() {
  const auto filtered = dataset().filtered(50.0, 10, 30'000);
  util::print_section(std::cout,
                      "Table 8: Quantile regression w/o outliers "
                      "(paper: to-3G ~4.8-5.0 across taus)");
  for (const double tau : {0.2, 0.4, 0.6, 0.8}) {
    bench::print_quantile_fit(std::cout, filtered.fit_quantile(tau));
  }

  const auto all_nonzero = dataset().nonzero();
  util::print_section(std::cout,
                      "Table 9: Quantile regression, all non-zero HOF rates "
                      "(paper: to-3G ~5.0-5.5)");
  for (const double tau : {0.2, 0.4, 0.6, 0.8}) {
    bench::print_quantile_fit(std::cout, all_nonzero.fit_quantile(tau));
  }
}

}  // namespace

int main() {
  print_quantile_tables();
  return 0;
}
