// Fig. 13 — HOF rate vs binned device-level mobility metrics (log-scale
// bins), with the UE ECDF per bin. Paper: ~zero HOF for 87% of UEs (<=100
// sectors/day); up to 0.4% at pct-75 beyond 100 sectors or 100 km gyration.

#include <iostream>

#include "analysis/histogram.hpp"
#include "analysis/summary.hpp"
#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

void print_panel(const std::vector<double>& metric, const std::vector<double>& rates,
                 double lo, double hi, const char* title) {
  auto hist = analysis::Histogram::logarithmic(lo, hi, 8);
  hist.add_all(metric);
  const auto groups = analysis::group_by_bins(hist, metric, rates);

  util::print_section(std::cout, title);
  util::TextTable t{{"Bin", "UE-days", "ECDF", "HOF rate median", "HOF rate p75"}};
  std::size_t cumulative = hist.underflow();
  const double total = static_cast<double>(metric.size());
  for (std::size_t b = 0; b < groups.size(); ++b) {
    cumulative += hist.bins()[b].count;
    if (groups[b].empty()) {
      t.add_row({hist.label(b), "0", util::TextTable::pct(cumulative / total, 1), "-",
                 "-"});
      continue;
    }
    t.add_row({hist.label(b), std::to_string(groups[b].size()),
               util::TextTable::pct(cumulative / total, 1),
               util::TextTable::pct(analysis::median(groups[b]), 3),
               util::TextTable::pct(analysis::quantile(groups[b], 0.75), 3)});
  }
  t.print(std::cout);
}

void print_fig13() {
  const auto& w = bench::simulated_world();
  std::vector<double> sectors, gyration, rates;
  for (const auto& row : w.ue_days.rows()) {
    if (row.handovers == 0) continue;
    sectors.push_back(std::max<double>(row.distinct_sectors, 0.51));
    gyration.push_back(std::max<double>(row.radius_of_gyration_km, 0.011));
    rates.push_back(row.hof_rate());
  }
  print_panel(sectors, rates, 0.5, 2'000.0,
              "Fig. 13a: HOF rate vs distinct sectors per day");
  print_panel(gyration, rates, 0.01, 1'000.0,
              "Fig. 13b: HOF rate vs radius of gyration (km)");

  // Headline: share of UE-days at <=100 sectors with ~zero median HOF rate.
  std::size_t below = 0, below_zero = 0;
  for (std::size_t i = 0; i < sectors.size(); ++i) {
    if (sectors[i] <= 100.0) {
      ++below;
      if (rates[i] == 0.0) ++below_zero;
    }
  }
  std::cout << "UE-days with <=100 sectors (paper: 87% of UEs): "
            << util::TextTable::pct(below / static_cast<double>(sectors.size()), 1)
            << "; of those with zero HOF rate: "
            << util::TextTable::pct(below_zero / std::max<double>(below, 1), 1) << "\n";
}

}  // namespace

int main() {
  print_fig13();
  return 0;
}
