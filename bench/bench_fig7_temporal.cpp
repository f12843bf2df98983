// Fig. 7 — Temporal evolution of HOs (top) and active sectors (bottom) in
// urban and rural areas, 30-minute bins, normalized by the period maximum.

#include <algorithm>
#include <iostream>

#include "analysis/correlation.hpp"
#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

std::vector<double> normalize(const std::vector<std::uint64_t>& v) {
  const double max = static_cast<double>(*std::max_element(v.begin(), v.end()));
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = max > 0 ? static_cast<double>(v[i]) / max : 0.0;
  }
  return out;
}

void print_fig7() {
  const auto& w = bench::simulated_world();
  const auto urban = normalize(w.temporal->ho_series(geo::AreaType::kUrban));
  const auto rural = normalize(w.temporal->ho_series(geo::AreaType::kRural));
  const auto active_u = w.temporal->active_sector_series(geo::AreaType::kUrban);

  util::print_section(std::cout,
                      "Fig. 7 (top): normalized HO volume per hour (week 1)");
  util::TextTable t{{"Day", "Hour", "Urban", "Rural"}};
  const int days = std::min(w.config.days, 7);
  for (int day = 0; day < days; ++day) {
    for (int hour = 0; hour < 24; hour += 2) {
      const std::size_t bin = static_cast<std::size_t>(day) * 48 + hour * 2;
      const double u = (urban[bin] + urban[bin + 1]) / 2.0;
      const double r = (rural[bin] + rural[bin + 1]) / 2.0;
      t.add_row({util::to_short_name(util::SimCalendar::day_of_week_for_day(day)),
                 std::to_string(hour) + ":00", util::TextTable::num(u, 3),
                 util::TextTable::num(r, 3)});
    }
  }
  t.print(std::cout);

  // Headline findings the paper reports on this figure.
  util::print_section(std::cout, "Fig. 7 findings");
  const auto find_peak_bin = [&](int day) {
    std::size_t best = 0;
    for (int b = 0; b < 48; ++b) {
      const std::size_t idx = static_cast<std::size_t>(day) * 48 + b;
      if (urban[idx] > urban[static_cast<std::size_t>(day) * 48 + best]) {
        best = static_cast<std::size_t>(b);
      }
    }
    return best;
  };
  const std::size_t monday_peak = find_peak_bin(0);
  std::cout << "Weekday peak bin (paper: 08:00-08:30): "
            << monday_peak / 2 << ":" << (monday_peak % 2 ? "30" : "00") << "\n";
  if (w.config.days >= 7) {
    double friday_peak = 0, sunday_peak = 0;
    for (int b = 0; b < 48; ++b) {
      friday_peak = std::max(friday_peak, urban[4 * 48 + b]);
      sunday_peak = std::max(sunday_peak, urban[6 * 48 + b]);
    }
    std::cout << "Sunday peak vs Friday peak (paper: -33%): "
              << util::TextTable::pct(sunday_peak / friday_peak - 1.0, 1) << "\n";
  }
  const double ramp = urban[16] / std::max(urban[12], 1e-9);
  std::cout << "06:00->08:00 ramp on Monday (paper: ~x3): x"
            << util::TextTable::num(ramp, 2) << "\n";

  // Fig. 7 (bottom): active sectors, and their correlation with HO volume.
  std::vector<double> active_d(active_u.size());
  std::vector<double> ho_d(urban.size());
  for (std::size_t i = 0; i < active_u.size(); ++i) {
    active_d[i] = static_cast<double>(active_u[i]);
    ho_d[i] = urban[i];
  }
  const double corr = analysis::pearson(active_d, ho_d);
  std::cout << "Pearson(active sectors, HOs) (paper: 0.9): "
            << util::TextTable::num(corr, 3) << "\n";
  const auto max_active = *std::max_element(active_u.begin(), active_u.end());
  const std::size_t plateau_bin = 20;  // 10:00 on Monday
  std::cout << "Active-sector plateau level at 10:00 vs max (paper: ~99%): "
            << util::TextTable::pct(
                   static_cast<double>(active_u[plateau_bin]) / max_active, 1)
            << "\n";
}

}  // namespace

int main() {
  print_fig7();
  return 0;
}
