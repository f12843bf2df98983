// Appendix B — Fig. 16 (ECDFs of HOF rate per HO type at three filter
// levels), Fig. 17 (vendor per region / per HO type), Fig. 18 (HOF rate
// boxplots vs vendor and vs area), plus the appendix ANOVA robustness runs.

#include <iostream>
#include <map>

#include "analysis/anova.hpp"
#include "bench_world.hpp"
#include "core/hof_dataset.hpp"
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

void print_fig16(const core::HofModelingDataset& ds, const char* title) {
  std::array<std::vector<double>, 3> by_type;
  for (const auto& row : ds.rows()) {
    by_type[static_cast<std::size_t>(row.target)].push_back(row.hof_rate_pct);
  }
  util::print_section(std::cout, title);
  util::TextTable t{{"F", "Intra 4G/5G-NSA", "to 3G", "to 2G"}};
  for (const double p : {0.25, 0.5, 0.75, 0.9, 0.95}) {
    std::vector<std::string> row{util::TextTable::num(p, 2)};
    for (const int rat : {2, 1, 0}) {
      if (by_type[rat].empty()) {
        row.push_back("-");
        continue;
      }
      row.push_back(util::TextTable::num(analysis::quantile(by_type[rat], p), 3) + "%");
    }
    t.add_row(row);
  }
  t.print(std::cout);
}

void print_fig17() {
  const auto& w = bench::modeling_world();
  util::print_section(std::cout, "Fig. 17 (top): vendor share per region");
  std::map<geo::Region, std::array<std::uint64_t, 4>> per_region;
  for (const auto& site : w.sim->deployment().sites()) {
    ++per_region[site.region][static_cast<std::size_t>(site.vendor)];
  }
  util::TextTable t{{"Region", "V1", "V2", "V3", "V4"}};
  for (const auto region : geo::kAllRegions) {
    const auto& counts = per_region[region];
    const double total = static_cast<double>(counts[0] + counts[1] + counts[2] + counts[3]);
    t.add_row({std::string{geo::to_string(region)},
               util::TextTable::pct(counts[0] / total, 1),
               util::TextTable::pct(counts[1] / total, 1),
               util::TextTable::pct(counts[2] / total, 1),
               util::TextTable::pct(counts[3] / total, 1)});
  }
  t.print(std::cout);

  util::print_section(std::cout, "Fig. 17 (bottom): vendor share per HO type");
  std::array<std::array<std::uint64_t, 4>, 3> per_type{};
  for (const auto& row : dataset().rows()) {
    per_type[static_cast<std::size_t>(row.target)]
            [static_cast<std::size_t>(row.vendor)] += row.daily_hos;
  }
  util::TextTable t2{{"HO type", "V1", "V2", "V3", "V4"}};
  const char* names[3] = {"to 2G", "to 3G", "Intra 4G/5G-NSA"};
  for (const int rat : {2, 1, 0}) {
    const auto& counts = per_type[rat];
    const double total =
        static_cast<double>(counts[0] + counts[1] + counts[2] + counts[3]);
    if (total == 0) continue;
    t2.add_row({names[rat], util::TextTable::pct(counts[0] / total, 1),
                util::TextTable::pct(counts[1] / total, 1),
                util::TextTable::pct(counts[2] / total, 1),
                util::TextTable::pct(counts[3] / total, 1)});
  }
  t2.print(std::cout);
}

void print_fig18_and_anova() {
  util::print_section(std::cout,
                      "Fig. 18 (top): HOF-rate boxplots per vendor (non-zero rows)");
  std::array<std::vector<double>, 4> by_vendor;
  std::array<std::vector<double>, 2> by_area;
  for (const auto& row : dataset().rows()) {
    if (row.hof_rate_pct <= 0.0) continue;
    by_vendor[static_cast<std::size_t>(row.vendor)].push_back(row.hof_rate_pct);
    if (row.area == core::AreaClass::kRural) by_area[0].push_back(row.hof_rate_pct);
    if (row.area == core::AreaClass::kUrban) by_area[1].push_back(row.hof_rate_pct);
  }
  util::TextTable t{{"Vendor", "q1", "median", "q3", "mean", "n"}};
  for (std::size_t v = 0; v < 4; ++v) {
    if (by_vendor[v].empty()) continue;
    const auto box = analysis::boxplot(by_vendor[v]);
    t.add_row({"V" + std::to_string(v + 1), util::TextTable::num(box.q1, 3),
               util::TextTable::num(box.median, 3), util::TextTable::num(box.q3, 3),
               util::TextTable::num(box.mean, 3), std::to_string(box.n)});
  }
  t.print(std::cout);

  util::print_section(std::cout, "Fig. 18 (bottom): HOF-rate boxplots per area type");
  util::TextTable t2{{"Area", "q1", "median", "q3", "mean", "n"}};
  const char* areas[2] = {"Rural", "Urban"};
  for (std::size_t a = 0; a < 2; ++a) {
    if (by_area[a].empty()) continue;
    const auto box = analysis::boxplot(by_area[a]);
    t2.add_row({areas[a], util::TextTable::num(box.q1, 3),
                util::TextTable::num(box.median, 3), util::TextTable::num(box.q3, 3),
                util::TextTable::num(box.mean, 3), std::to_string(box.n)});
  }
  t2.print(std::cout);

  // Appendix ANOVA robustness: vendor and area effects — significant but
  // much smaller than the HO-type effect.
  std::vector<std::vector<double>> vendor_groups, area_groups;
  for (auto& g : by_vendor) {
    if (g.size() > 3) {
      for (auto& v : g) v = std::log(v);
      vendor_groups.push_back(std::move(g));
    }
  }
  for (auto& g : by_area) {
    if (g.size() > 3) {
      for (auto& v : g) v = std::log(v);
      area_groups.push_back(std::move(g));
    }
  }
  const auto vendor_anova = analysis::one_way_anova(vendor_groups);
  const auto area_anova = analysis::one_way_anova(area_groups);
  const auto type_anova = dataset().anova_by_type();
  util::print_section(std::cout, "Appendix B: ANOVA effect sizes (log HOF rate)");
  util::TextTable a{{"Factor", "F", "p", "eta^2", "paper eta^2"}};
  const auto fmt_p = [](double p) {
    return p < 1e-12 ? std::string{"~0"} : util::TextTable::num(p, 6);
  };
  a.add_row({"HO type", util::TextTable::num(type_anova.f_statistic, 0),
             fmt_p(type_anova.p_value), util::TextTable::num(type_anova.eta_squared, 3),
             "0.81"});
  a.add_row({"Antenna vendor", util::TextTable::num(vendor_anova.f_statistic, 0),
             fmt_p(vendor_anova.p_value),
             util::TextTable::num(vendor_anova.eta_squared, 3), "0.02"});
  a.add_row({"Area type", util::TextTable::num(area_anova.f_statistic, 0),
             fmt_p(area_anova.p_value), util::TextTable::num(area_anova.eta_squared, 3),
             "0.0079"});
  a.print(std::cout);
}

}  // namespace

int main() {
  print_fig16(dataset(), "Fig. 16 (all rows): HOF-rate quantiles per HO type");
  print_fig16(dataset().nonzero(), "Fig. 16 (non-zero rows)");
  print_fig16(dataset().filtered(50.0, 10, 30'000), "Fig. 16 (outliers filtered)");
  print_fig17();
  print_fig18_and_anova();
  return 0;
}
