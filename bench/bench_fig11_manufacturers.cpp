// Fig. 11 — Normalized district-level HOs (left) and HOF rate (right) per
// UE manufacturer: the top-5 makers sit near 1.0 (+/-10%), Apple +4% HOs /
// +8% HOF, Google -27% HOF, while outliers reach +600% HOF (KVD, HMD) and
// +293% HOs (Simcom).

#include <iostream>

#include "analysis/summary.hpp"
#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

void print_row_group(const core::ManufacturerNormalized& result,
                     const std::vector<std::size_t>& indices, const char* title) {
  util::print_section(std::cout, title);
  util::TextTable t{{"Manufacturer", "norm. HOs median", "norm. HOs IQR",
                     "norm. HOF median", "norm. HOF IQR", "districts"}};
  for (const std::size_t idx : indices) {
    const auto& row = result.rows[idx];
    const auto ho_box = analysis::boxplot(row.normalized_hos);
    const auto hof_box = analysis::boxplot(row.normalized_hof_rate);
    t.add_row({row.name, util::TextTable::num(ho_box.median, 2),
               util::TextTable::num(ho_box.q1, 2) + ".." +
                   util::TextTable::num(ho_box.q3, 2),
               util::TextTable::num(hof_box.median, 2),
               util::TextTable::num(hof_box.q1, 2) + ".." +
                   util::TextTable::num(hof_box.q3, 2),
               std::to_string(row.normalized_hos.size())});
  }
  t.print(std::cout);
}

void print_fig11() {
  const auto& w = bench::simulated_world();
  const auto result = core::manufacturer_normalized(*w.sim, *w.districts, 3);

  print_row_group(result, result.top5_by_share,
                  "Fig. 11 (left group): top-5 smartphone manufacturers "
                  "(paper: ratios ~1.0, Apple +4% HOs / +8% HOF, Google -27% HOF)");
  print_row_group(result, result.top5_by_hof,
                  "Fig. 11 (right group): top-5 manufacturers by normalized HOF "
                  "(paper: KVD/HMD up to +600% HOF, Simcom +293% HOs)");
}

}  // namespace

int main() {
  print_fig11();
  return 0;
}
