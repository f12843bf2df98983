// Calendar, hashing, CSV, accumulators, and table formatting.

#include <gtest/gtest.h>

#include <sstream>

#include "util/accumulator.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/sim_time.hpp"
#include "util/table.hpp"

namespace tl::util {
namespace {

TEST(SimCalendar, EpochIsAMonday) {
  EXPECT_EQ(SimCalendar::day_of_week(0), DayOfWeek::kMonday);
  EXPECT_FALSE(SimCalendar::is_weekend(0));
}

TEST(SimCalendar, WeekWrapsCorrectly) {
  EXPECT_EQ(SimCalendar::day_of_week(5 * kMsPerDay), DayOfWeek::kSaturday);
  EXPECT_EQ(SimCalendar::day_of_week(6 * kMsPerDay), DayOfWeek::kSunday);
  EXPECT_EQ(SimCalendar::day_of_week(7 * kMsPerDay), DayOfWeek::kMonday);
  EXPECT_TRUE(SimCalendar::is_weekend_day(12));  // second Saturday
  EXPECT_FALSE(SimCalendar::is_weekend_day(14));
}

TEST(SimCalendar, BinsAndHours) {
  const TimestampMs t = SimCalendar::at(3, 8.75);  // day 3, 08:45
  EXPECT_EQ(SimCalendar::day_index(t), 3);
  EXPECT_EQ(SimCalendar::hour_of_day(t), 8);
  EXPECT_EQ(SimCalendar::half_hour_bin(t), 17);
  EXPECT_NEAR(SimCalendar::fractional_hour(t), 8.75, 1e-9);
  EXPECT_TRUE(SimCalendar::is_night(SimCalendar::at(0, 7.99)));
  EXPECT_FALSE(SimCalendar::is_night(SimCalendar::at(0, 8.0)));
}

TEST(SimCalendar, FormatTimestamp) {
  const TimestampMs t = SimCalendar::at(7, 8.5) + 31 * kMsPerSecond + 113;
  EXPECT_EQ(format_timestamp(t), "d07 Mo 08:30:31.113");
}

TEST(Hash, AnonymizeIsStableAndKeyed) {
  EXPECT_EQ(anonymize(42, 7), anonymize(42, 7));
  EXPECT_NE(anonymize(42, 7), anonymize(42, 8));
  EXPECT_NE(anonymize(42, 7), anonymize(43, 7));
}

TEST(Hash, Fnv1aMatchesReference) {
  // Reference FNV-1a 64-bit of the empty string.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

TEST(Hash, FormatAnonId) {
  EXPECT_EQ(format_anon_id(0xabcULL), "anon:0000000000000abc");
}

TEST(Accumulator, MatchesExactStatistics) {
  Accumulator acc;
  const std::vector<double> data{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (const double x : data) acc.add(x);
  EXPECT_EQ(acc.count(), data.size());
  EXPECT_NEAR(acc.mean(), 5.0, 1e-12);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.sum(), 40.0, 1e-12);
}

TEST(Accumulator, MergeEqualsSinglePass) {
  Accumulator a, b, whole;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 5.0;
    (i < 40 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-10);
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 1.0);
}

TEST(ReservoirSample, KeepsEverythingBelowCapacity) {
  ReservoirSample r{100};
  for (int i = 0; i < 50; ++i) r.add(i);
  EXPECT_EQ(r.values().size(), 50u);
  EXPECT_EQ(r.seen(), 50u);
}

TEST(ReservoirSample, QuantileOverUniformStream) {
  ReservoirSample r{5'000, 77};
  for (int i = 0; i < 100'000; ++i) r.add(i % 1000);
  EXPECT_NEAR(r.quantile(0.5), 500.0, 30.0);
  EXPECT_NEAR(r.quantile(0.95), 950.0, 30.0);
  EXPECT_THROW(r.quantile(1.5), std::invalid_argument);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t{{"A", "LongHeader"}};
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| A      | LongHeader |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 2          |"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t{{"A", "B"}};
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
  EXPECT_THROW(TextTable{std::vector<std::string>{}}, std::invalid_argument);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.123456, 1), "12.3%");
}

TEST(CliParse, UintAcceptsWholeStringWithinRange) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("42"), 42u);
  EXPECT_EQ(parse_uint("18446744073709551615"), UINT64_MAX);
  // Boundaries of an explicit range are inclusive.
  EXPECT_EQ(parse_uint("1", 1, 8), 1u);
  EXPECT_EQ(parse_uint("8", 1, 8), 8u);
}

TEST(CliParse, UintRejectsJunkSignsOverflowAndRange) {
  EXPECT_FALSE(parse_uint(""));
  EXPECT_FALSE(parse_uint("+7"));   // signs are not silently tolerated
  EXPECT_FALSE(parse_uint("-1"));   // would wrap through unsigned conversion
  EXPECT_FALSE(parse_uint(" 3"));
  EXPECT_FALSE(parse_uint("3 "));
  EXPECT_FALSE(parse_uint("3x"));   // atoi would have said 3
  EXPECT_FALSE(parse_uint("0x10"));
  EXPECT_FALSE(parse_uint("18446744073709551616"));  // UINT64_MAX + 1
  EXPECT_FALSE(parse_uint("0", 1, 8));
  EXPECT_FALSE(parse_uint("9", 1, 8));
}

TEST(CliParse, DoubleAcceptsDecimalsWithinRange) {
  EXPECT_DOUBLE_EQ(parse_double("0.25", 0.0, 1.0).value(), 0.25);
  EXPECT_DOUBLE_EQ(parse_double("0", 0.0, 1.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(parse_double("1", 0.0, 1.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(parse_double("2.5e-1", 0.0, 1.0).value(), 0.25);
  EXPECT_DOUBLE_EQ(parse_double("-0.5", -1.0, 1.0).value(), -0.5);
}

TEST(CliParse, DoubleRejectsJunkNonFiniteAndRange) {
  EXPECT_FALSE(parse_double("", 0.0, 1.0));
  EXPECT_FALSE(parse_double("0.5rate", 0.0, 1.0));
  EXPECT_FALSE(parse_double(" 0.5", 0.0, 1.0));
  EXPECT_FALSE(parse_double("nan", 0.0, 1.0));   // NaN passes no range check
  EXPECT_FALSE(parse_double("inf", 0.0, 1e308));
  EXPECT_FALSE(parse_double("1e999", 0.0, 1e308));  // overflows to rejection
  EXPECT_FALSE(parse_double("1.01", 0.0, 1.0));
  EXPECT_FALSE(parse_double("-0.01", 0.0, 1.0));
}

}  // namespace
}  // namespace tl::util
