// Fig. 9 — Distribution of (a) intra 4G/5G-NSA, (b) to-3G, (c) to-2G HO
// shares across districts: dense urban districts near-exclusively intra
// (up to 99.92%), remote districts up to 58.1% on 3G (26.5% average in the
// 6% least dense), 2G marginal with ~0.5% in a handful of districts.

#include <algorithm>
#include <iostream>

#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

void print_fig9() {
  const auto& w = bench::simulated_world();
  const auto shares = core::district_rat_shares(*w.sim, *w.districts);

  util::print_section(std::cout, "Fig. 9: HO-type shares across districts");
  util::TextTable t{{"Statistic", "Paper", "Measured"}};
  t.add_row({"max intra 4G/5G-NSA share", "99.92%",
             util::TextTable::pct(shares.max_intra_share, 2)});
  t.add_row({"max to-3G share (remote district)", "58.1%",
             util::TextTable::pct(shares.max_3g_share, 1)});
  t.add_row({"mean to-3G share, 6% least dense districts", "26.5%",
             util::TextTable::pct(shares.mean_3g_least_dense, 1)});
  t.add_row({"max to-2G share", "~0.5%",
             util::TextTable::pct(shares.max_2g_share, 2)});
  t.print(std::cout);

  // Distribution summary across districts with observed HOs.
  std::vector<double> intra, g3, g2;
  for (const auto& s : shares.shares) {
    if (s[0] + s[1] + s[2] == 0.0) continue;
    g2.push_back(s[0]);
    g3.push_back(s[1]);
    intra.push_back(s[2]);
  }
  std::sort(intra.begin(), intra.end());
  std::sort(g3.begin(), g3.end());
  std::sort(g2.begin(), g2.end());
  util::TextTable d{{"Percentile (districts)", "intra share", "to-3G share", "to-2G share"}};
  for (const double p : {0.05, 0.25, 0.5, 0.75, 0.95, 1.0}) {
    const auto idx = static_cast<std::size_t>(p * (intra.size() - 1));
    d.add_row({util::TextTable::pct(p, 0), util::TextTable::pct(intra[idx], 2),
               util::TextTable::pct(g3[idx], 2), util::TextTable::pct(g2[idx], 4)});
  }
  d.print(std::cout);
  std::cout << "(districts with observed HOs: " << intra.size() << " of "
            << shares.shares.size() << ")\n";
}

}  // namespace

int main() {
  print_fig9();
  return 0;
}
