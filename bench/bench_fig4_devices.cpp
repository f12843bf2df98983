// Fig. 4a — Device-type and manufacturer shares.
// Fig. 4b — Supported-RAT shares, overall and per device type.

#include <algorithm>
#include <iostream>
#include <map>

#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

void print_fig4a() {
  const auto& w = bench::static_world();
  const auto& pop = w.sim->population();
  const auto& catalog = w.sim->catalog();

  util::print_section(std::cout, "Fig. 4a: Device types");
  const auto shares = pop.type_shares();
  util::TextTable t{{"Device type", "Paper", "Measured"}};
  const char* paper[3] = {"59.1%", "39.8%", "1.1%"};
  for (const auto type : devices::kAllDeviceTypes) {
    t.add_row({std::string{devices::to_string(type)},
               paper[static_cast<std::size_t>(type)],
               util::TextTable::pct(shares[static_cast<std::size_t>(type)], 1)});
  }
  t.print(std::cout);

  util::print_section(std::cout, "Fig. 4a: Top manufacturers per type (measured share within type)");
  std::map<devices::ManufacturerId, std::uint64_t> counts;
  std::array<std::uint64_t, 3> type_totals{};
  for (const auto& ue : pop.ues()) {
    ++counts[ue.manufacturer];
    ++type_totals[static_cast<std::size_t>(ue.type)];
  }
  util::TextTable m{{"Type", "Manufacturer", "Measured", "Paper (where reported)"}};
  for (const auto type : devices::kAllDeviceTypes) {
    std::vector<std::pair<std::uint64_t, const devices::Manufacturer*>> ranked;
    for (const auto& maker : catalog.manufacturers()) {
      if (maker.type == type) ranked.push_back({counts[maker.id], &maker});
    }
    std::sort(ranked.rbegin(), ranked.rend());
    for (std::size_t i = 0; i < ranked.size() && i < 5; ++i) {
      const auto& maker = *ranked[i].second;
      std::string paper_share = "-";
      if (maker.name == "Apple") paper_share = "54.8%";
      if (maker.name == "Samsung") paper_share = "30.2%";
      m.add_row({std::string{devices::to_string(type)}, maker.name,
                 util::TextTable::pct(static_cast<double>(ranked[i].first) /
                                          static_cast<double>(
                                              type_totals[static_cast<std::size_t>(type)]),
                                      1),
                 paper_share});
    }
  }
  m.print(std::cout);
}

void print_fig4b() {
  const auto& w = bench::static_world();
  const auto& pop = w.sim->population();

  util::print_section(std::cout, "Fig. 4b: Supported RATs");
  const auto overall = pop.rat_support_shares();
  util::TextTable t{{"Population", "2G only", "up to 3G", "up to 4G", "5G"}};
  t.add_row({"Paper (all UEs)", "12.6%", "20.1%", "67.2% (4G+5G)", ""});
  t.add_row({"Measured (all UEs)", util::TextTable::pct(overall[0], 1),
             util::TextTable::pct(overall[1], 1), util::TextTable::pct(overall[2], 1),
             util::TextTable::pct(overall[3], 1)});

  // Per type.
  std::array<std::array<std::uint64_t, 4>, 3> by_type{};
  std::array<std::uint64_t, 3> totals{};
  for (const auto& ue : pop.ues()) {
    ++by_type[static_cast<std::size_t>(ue.type)][static_cast<std::size_t>(ue.rat_support)];
    ++totals[static_cast<std::size_t>(ue.type)];
  }
  for (const auto type : devices::kAllDeviceTypes) {
    const auto i = static_cast<std::size_t>(type);
    std::vector<std::string> row{std::string{"Measured ("} +
                                 std::string{devices::to_string(type)} + ")"};
    for (int s = 0; s < 4; ++s) {
      row.push_back(util::TextTable::pct(
          static_cast<double>(by_type[i][s]) / static_cast<double>(totals[i]), 1));
    }
    t.add_row(row);
  }
  t.print(std::cout);
  std::cout << "Paper: smartphones 51.4% up-to-4G / 48.5% 5G; >80% of M2M and >50% of\n"
               "feature phones support at most 3G.\n";
}

}  // namespace

int main() {
  print_fig4a();
  print_fig4b();
  return 0;
}
