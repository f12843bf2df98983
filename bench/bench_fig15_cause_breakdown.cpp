// Fig. 15 — Stacked cause shares by (a) area type, (b) device type, and
// (c) top smartphone manufacturers x area. Paper: Cause #4 drives 42% of
// urban HOFs; #5/#6 ~20% each in rural; 59% of M2M failures are #3; feature
// phones skew to #6; #8 is x3 more common on M2M.

#include <iostream>

#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;
using telemetry::CauseAggregator;

template <typename CountFn>
void print_stack(const char* title, const std::vector<std::string>& groups,
                 CountFn count) {
  util::print_section(std::cout, title);
  std::vector<std::string> headers{"Group"};
  for (std::size_t b = 0; b < CauseAggregator::kBuckets; ++b) {
    headers.push_back("#" + std::to_string(b + 1 <= 8 ? b + 1 : 0));
  }
  headers.back() = "tail";
  util::TextTable t{headers};
  for (std::size_t g = 0; g < groups.size(); ++g) {
    double total = 0.0;
    for (std::size_t b = 0; b < CauseAggregator::kBuckets; ++b) {
      total += static_cast<double>(count(g, b));
    }
    std::vector<std::string> row{groups[g]};
    for (std::size_t b = 0; b < CauseAggregator::kBuckets; ++b) {
      row.push_back(total > 0.0
                        ? util::TextTable::pct(count(g, b) / total, 1)
                        : std::string{"-"});
    }
    t.add_row(row);
  }
  t.print(std::cout);
}

void print_fig15() {
  const auto& w = bench::simulated_world();
  const auto& causes = *w.causes;

  print_stack("Fig. 15a: causes by area type (paper: #4 -> 42% urban; #5/#6 ~20% rural)",
              {"Rural", "Urban"}, [&](std::size_t g, std::size_t b) {
                return static_cast<double>(causes.by_area()[g][b]);
              });

  print_stack(
      "Fig. 15b: causes by device type (paper: 59% of M2M failures are #3; feature "
      "phones skew to #6)",
      {"Smartphone", "M2M/IoT", "Feature phone"}, [&](std::size_t g, std::size_t b) {
        return static_cast<double>(causes.by_device()[g][b]);
      });

  // Fig. 15c: top smartphone manufacturers x area.
  const auto& catalog = w.sim->catalog();
  std::vector<std::string> groups;
  std::vector<std::pair<devices::ManufacturerId, geo::AreaType>> keys;
  for (const char* name : {"Apple", "Samsung", "Google", "Huawei", "Motorola"}) {
    const auto& maker = catalog.by_name(name);
    for (const auto area : {geo::AreaType::kRural, geo::AreaType::kUrban}) {
      groups.push_back(std::string{name} + "-" + std::string{geo::to_string(area)});
      keys.emplace_back(maker.id, area);
    }
  }
  print_stack("Fig. 15c: causes for top-5 smartphone manufacturers x area", groups,
              [&](std::size_t g, std::size_t b) {
                return static_cast<double>(
                    causes.by_maker_area(keys[g].first, keys[g].second, b));
              });
}

}  // namespace

int main() {
  print_fig15();
  return 0;
}
