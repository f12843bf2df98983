// Table 6 — Summary statistics of the sector-day modeling dataset.
// Paper: Daily HOs {1, 76, 1989, 6431, 8591, 953287}; HOF rate (%) {0, 0,
// 0.069, 6.131, 4.191, 100}.

#include <iostream>

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

void add_summary_row(util::TextTable& t, const std::string& name,
                     const analysis::SixNumberSummary& s, int precision) {
  t.add_row({name, util::TextTable::num(s.min, precision),
             util::TextTable::num(s.q1, precision),
             util::TextTable::num(s.median, precision),
             util::TextTable::num(s.mean, precision),
             util::TextTable::num(s.q3, precision),
             util::TextTable::num(s.max, precision)});
}

void print_table6() {
  util::print_section(std::cout, "Table 6: Summary stats of the modeling dataset");
  util::TextTable t{{"Feature", "Min", "1st Qu", "Median", "Mean", "3rd Qu", "Max"}};
  t.add_row({"Daily HOs (paper)", "1", "76", "1989", "6431", "8591", "953287"});
  add_summary_row(t, "Daily HOs (measured)", dataset().summary_daily_hos(), 0);
  t.add_row({"HOF rate % (paper)", "0.0", "0.0", "0.069", "6.131", "4.191", "100.0"});
  add_summary_row(t, "HOF rate % (measured)", dataset().summary_hof_rate(), 3);
  t.print(std::cout);
  std::cout << "(absolute HO counts scale with the configured UE count; the paper's\n"
               " shape to preserve is median << mean on both columns)\n";
}

}  // namespace

int main() {
  print_table6();
  return 0;
}
