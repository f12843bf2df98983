// Fig. 14a — HOF cause shares (8 causes cover 92% of failures; 75% of all
// HOFs are on the to-3G path).
// Fig. 14b — HO signaling time per cause (#3/#6 abort at 0 ms; #4 ~81 ms;
// #1/#2 seconds; #8 a ~10 s timeout).

#include <iostream>

#include "bench_world.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;
using telemetry::CauseAggregator;

void print_fig14a() {
  const auto& w = bench::simulated_world();
  const auto& causes = *w.causes;

  util::print_section(std::cout, "Fig. 14a: HOF cause shares (of all failures)");
  util::TextTable t{{"Cause", "Mean share", "min..max (daily)"}};
  double dominant = 0.0;
  for (std::size_t b = 0; b < CauseAggregator::kBuckets; ++b) {
    const auto share = causes.daily_share(b);
    if (b < 8) dominant += share.mean;
    t.add_row({CauseAggregator::bucket_label(b), util::TextTable::pct(share.mean, 1),
               util::TextTable::pct(share.min, 1) + ".." +
                   util::TextTable::pct(share.max, 1)});
  }
  t.print(std::cout);
  std::cout << "8 dominant causes cover (paper: 92%): "
            << util::TextTable::pct(dominant, 1) << "\n"
            << "Distinct cause codes observed (paper: 1k+ exist): "
            << causes.distinct_causes() << " of "
            << w.sim->cause_catalog().total_causes() << " in the catalog\n";

  const auto by_target = causes.failures_by_target();
  const double total = static_cast<double>(causes.total_failures());
  std::cout << "Failures on to-3G path (paper: 75%): "
            << util::TextTable::pct(by_target[1] / total, 1)
            << "; intra (paper: ~25%): " << util::TextTable::pct(by_target[2] / total, 1)
            << "; to-2G (paper: 0.03%): " << util::TextTable::pct(by_target[0] / total, 3)
            << "\n";
}

void print_fig14b() {
  const auto& w = bench::simulated_world();

  util::print_section(std::cout, "Fig. 14b: HO signaling time per failure cause");
  util::TextTable t{{"Cause", "Paper median", "Measured median", "Measured p95",
                     "samples"}};
  const char* paper_medians[9] = {"1-2 s", "1-2 s", "0 ms", "81 ms", "-",
                                  "0 ms",  "-",     ">10 s", "-"};
  for (std::size_t b = 0; b < CauseAggregator::kBuckets; ++b) {
    const auto& r = w.causes->durations(b);
    if (r.values().empty()) {
      t.add_row({CauseAggregator::bucket_label(b), paper_medians[b], "-", "-", "0"});
      continue;
    }
    t.add_row({CauseAggregator::bucket_label(b), paper_medians[b],
               util::TextTable::num(r.quantile(0.5), 0) + " ms",
               util::TextTable::num(r.quantile(0.95), 0) + " ms",
               std::to_string(r.seen())});
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  print_fig14a();
  print_fig14b();
  return 0;
}
