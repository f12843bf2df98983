// Fig. 8 — HO duration, horizontal vs vertical (ECDFs): intra 4G/5G-NSA
// completes in tens of ms (median 43 ms), to-3G in hundreds (412 ms),
// to-2G in seconds (median ~1 s, p95 3.8 s).

#include <iostream>

#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;
using topology::ObservedRat;

void print_fig8() {
  const auto& w = bench::simulated_world();

  util::print_section(std::cout, "Fig. 8: HO signaling time per HO type (successes)");
  util::TextTable t{{"HO type", "Paper median", "Measured median", "Paper p95",
                     "Measured p95", "samples"}};
  const struct {
    ObservedRat rat;
    const char* median;
    const char* p95;
  } rows[] = {{ObservedRat::kG45Nsa, "43 ms", "~90 ms"},
              {ObservedRat::kG3, "412 ms", ">1 s"},
              {ObservedRat::kG2, "~1 s", "3.8 s"}};
  for (const auto& row : rows) {
    const auto& r = w.durations->durations(row.rat);
    if (r.values().empty()) {
      t.add_row({std::string{to_string(row.rat)}, row.median, "-", row.p95, "-", "0"});
      continue;
    }
    t.add_row({std::string{to_string(row.rat)}, row.median,
               util::TextTable::num(r.quantile(0.5), 0) + " ms", row.p95,
               util::TextTable::num(r.quantile(0.95), 0) + " ms",
               std::to_string(r.seen())});
  }
  t.print(std::cout);

  util::print_section(std::cout, "Fig. 8: ECDF series (duration ms -> F)");
  util::TextTable e{{"F", "Intra 4G/5G-NSA", "to 3G", "to 2G"}};
  for (const double p : {0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    std::vector<std::string> row{util::TextTable::num(p, 2)};
    for (const auto rat : {ObservedRat::kG45Nsa, ObservedRat::kG3, ObservedRat::kG2}) {
      const auto& r = w.durations->durations(rat);
      row.push_back(r.values().empty()
                        ? std::string{"-"}
                        : util::TextTable::num(r.quantile(p), 0) + " ms");
    }
    e.add_row(row);
  }
  e.print(std::cout);
}

}  // namespace

int main() {
  print_fig8();
  return 0;
}
