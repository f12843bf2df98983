// Table 3 (covariates) + Table 4 (univariate log-linear model) + the §6.3
// ANOVA / Kruskal-Wallis tests and median HOF rates per HO type.
//
// Paper Table 4: Intra -2.77 / to-3G +5.12 / to-2G +6.82; medians 0.04%,
// 5.85%, 21.42%; ANOVA p < 0.001 with eta^2 = 0.81.

#include <iostream>

#include "bench_world.hpp"
#include "core/hof_dataset.hpp"
#include "model_printing.hpp"
#include "util/table.hpp"

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

void print_table3() {
  util::print_section(std::cout, "Table 3: Regression covariates");
  util::TextTable t{{"Feature", "Values"}};
  t.add_row({"Number of HOs per day", ">= 0"});
  t.add_row({"RATs", "4G/5G-NSA, 3G, 2G"});
  t.add_row({"District population", ">= 0"});
  t.add_row({"Sector Region", "West, South, North, Capital area"});
  t.add_row({"Area Type", "Rural / Urban (+ unclassified postcodes)"});
  t.add_row({"Antenna Vendor", "4 vendors (V1, V2, V3, V4)"});
  t.print(std::cout);
  std::cout << "Observations (sector-day-HOtype rows): " << dataset().size()
            << "  (paper: 6.7M at full scale)\n";
}

void print_first_look() {
  util::print_section(std::cout, "First look (§6.3): median HOF rate per HO type");
  const auto medians = dataset().median_rate_by_type();
  util::TextTable t{{"HO type", "Paper median", "Measured median"}};
  t.add_row({"Intra 4G/5G-NSA", "0.04%",
             util::TextTable::num(medians[2], 3) + "%"});
  t.add_row({"4G/5G-NSA -> 3G", "5.85%",
             util::TextTable::num(medians[1], 2) + "%"});
  t.add_row({"4G/5G-NSA -> 2G", "21.42%",
             util::TextTable::num(medians[0], 2) + "%"});
  t.print(std::cout);

  const auto anova = dataset().anova_by_type();
  std::cout << "ANOVA on log(HOF rate) by HO type: F = "
            << util::TextTable::num(anova.f_statistic, 0) << ", p "
            << (anova.p_value < 1e-12 ? "< 1e-12" : util::TextTable::num(anova.p_value, 6))
            << ", eta^2 = " << util::TextTable::num(anova.eta_squared, 2)
            << "   (paper: p < .001, eta^2 = 0.81)\n";
  const auto kw = dataset().kruskal_wallis_by_type();
  std::cout << "Kruskal-Wallis: H = " << util::TextTable::num(kw.h_statistic, 0)
            << ", p " << (kw.p_value < 1e-12 ? "< 1e-12"
                                             : util::TextTable::num(kw.p_value, 6))
            << "   (paper: p = 0)\n";
}

void print_table4() {
  util::print_section(std::cout,
                      "Table 4: Univariate linear model for log(HOF rate) "
                      "(paper: -2.77 / +5.12 / +6.82)");
  const auto model = dataset().nonzero().fit_univariate();
  bench::print_model(std::cout, model);
}

}  // namespace

int main() {
  print_table3();
  print_first_look();
  print_table4();
  return 0;
}
