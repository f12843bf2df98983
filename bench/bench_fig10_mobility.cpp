// Fig. 10 — Mobility metrics across device types (ECDFs): smartphones
// median 22 visited sectors / 2.7 km gyration; M2M 1 sector / 0.0 km with a
// 20.1 km p95 tail; feature phones 3 sectors / 0.9 km.

#include <iostream>

#include "analysis/summary.hpp"
#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

void print_fig10() {
  const auto& w = bench::simulated_world();

  std::array<std::vector<double>, 3> sectors, gyration;
  for (const auto& row : w.ue_days.rows()) {
    const auto t = static_cast<std::size_t>(row.device_type);
    sectors[t].push_back(row.distinct_sectors);
    gyration[t].push_back(row.radius_of_gyration_km);
  }

  util::print_section(std::cout, "Fig. 10a: distinct sectors per UE-day");
  util::TextTable t{{"Device type", "Paper median", "Measured median", "p75", "p95"}};
  const char* paper_sectors[3] = {"22", "1", "3"};
  for (const auto type : devices::kAllDeviceTypes) {
    const auto i = static_cast<std::size_t>(type);
    t.add_row({std::string{devices::to_string(type)}, paper_sectors[i],
               util::TextTable::num(analysis::median(sectors[i]), 1),
               util::TextTable::num(analysis::quantile(sectors[i], 0.75), 1),
               util::TextTable::num(analysis::quantile(sectors[i], 0.95), 1)});
  }
  t.print(std::cout);

  util::print_section(std::cout, "Fig. 10b: radius of gyration (km) per UE-day");
  util::TextTable g{{"Device type", "Paper median", "Measured median", "Paper p95",
                     "Measured p95"}};
  const char* paper_gyr_median[3] = {"2.7 km", "0.0 km", "0.9 km"};
  const char* paper_gyr_p95[3] = {"-", "20.1 km", "-"};
  for (const auto type : devices::kAllDeviceTypes) {
    const auto i = static_cast<std::size_t>(type);
    g.add_row({std::string{devices::to_string(type)}, paper_gyr_median[i],
               util::TextTable::num(analysis::median(gyration[i]), 2) + " km",
               paper_gyr_p95[i],
               util::TextTable::num(analysis::quantile(gyration[i], 0.95), 1) + " km"});
  }
  g.print(std::cout);

  util::print_section(std::cout, "Fig. 10: ECDF series (gyration km at F)");
  util::TextTable e{{"F", "Smartphone", "M2M/IoT", "Feature phone"}};
  for (const double p : {0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    std::vector<std::string> row{util::TextTable::num(p, 2)};
    for (const auto type : devices::kAllDeviceTypes) {
      row.push_back(util::TextTable::num(
          analysis::quantile(gyration[static_cast<std::size_t>(type)], p), 2));
    }
    e.add_row(row);
  }
  e.print(std::cout);
}

}  // namespace

int main() {
  print_fig10();
  return 0;
}
