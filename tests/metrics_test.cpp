// Unit tests for counters, histogram, table formatting and CSV escaping.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/counters.h"
#include "metrics/csv.h"
#include "metrics/histogram.h"
#include "metrics/table.h"
#include "obs/metrics_registry.h"

namespace lookaside::metrics {
namespace {

TEST(CounterSetTest, AddAndRead) {
  CounterSet counters;
  EXPECT_EQ(counters.value("queries.a"), 0u);
  counters.add("queries.a");
  counters.add("queries.a", 4);
  EXPECT_EQ(counters.value("queries.a"), 5u);
}

TEST(CounterSetTest, PrefixTotals) {
  CounterSet counters;
  counters.add("queries.a", 3);
  counters.add("queries.aaaa", 2);
  counters.add("queries.ds", 7);
  counters.add("bytes.total", 100);
  EXPECT_EQ(counters.total_with_prefix("queries."), 12u);
  EXPECT_EQ(counters.total_with_prefix("queries.a"), 5u);
  EXPECT_EQ(counters.total_with_prefix("nothing."), 0u);
}

TEST(CounterSetTest, PrefixTotalEdgeCases) {
  CounterSet counters;
  counters.add("a", 1);
  counters.add("ab", 2);
  counters.add("b", 4);
  // The empty prefix matches every counter.
  EXPECT_EQ(counters.total_with_prefix(""), 7u);
  // An exact counter name is its own prefix.
  EXPECT_EQ(counters.total_with_prefix("ab"), 2u);
  // A prefix longer than any name matches nothing.
  EXPECT_EQ(counters.total_with_prefix("abc"), 0u);
  // A prefix lexicographically past every name matches nothing.
  EXPECT_EQ(counters.total_with_prefix("z"), 0u);
  EXPECT_EQ(CounterSet{}.total_with_prefix("a"), 0u);
}

TEST(CounterSetTest, DeltaSince) {
  CounterSet before;
  before.add("x", 10);
  CounterSet after = before;
  after.add("x", 5);
  after.add("y", 2);
  const CounterSet delta = after.delta_since(before);
  EXPECT_EQ(delta.value("x"), 5u);
  EXPECT_EQ(delta.value("y"), 2u);
  EXPECT_EQ(delta.value(CounterSet::kUnderflowCounter), 0u);
}

TEST(CounterSetTest, DeltaSinceFlagsUnderflow) {
  CounterSet before;
  before.add("x", 10);
  before.add("gone", 4);
  CounterSet after;
  after.add("x", 7);  // went backwards by 3
  const CounterSet delta = after.delta_since(before);
  // Still clamped to zero rather than wrapping...
  EXPECT_EQ(delta.value("x"), 0u);
  // ...but the clamped magnitude (3 from x, 4 from the vanished counter)
  // is surfaced instead of silently discarded.
  EXPECT_EQ(delta.value(CounterSet::kUnderflowCounter), 7u);
}

TEST(CounterSetTest, MergeAdds) {
  CounterSet a;
  a.add("x", 1);
  CounterSet b;
  b.add("x", 2);
  b.add("y", 3);
  a.merge(b);
  EXPECT_EQ(a.value("x"), 3u);
  EXPECT_EQ(a.value("y"), 3u);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (double v : {4.0, 1.0, 3.0, 2.0}) h.add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 4.0);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
}

TEST(TableTest, CommaFormatting) {
  EXPECT_EQ(Table::with_commas(0), "0");
  EXPECT_EQ(Table::with_commas(999), "999");
  EXPECT_EQ(Table::with_commas(1000), "1,000");
  EXPECT_EQ(Table::with_commas(67838), "67,838");
  EXPECT_EQ(Table::with_commas(92705013), "92,705,013");
}

TEST(TableTest, RendersAlignedRows) {
  Table table({"#Domains", "Leaked"});
  table.row().cell(std::uint64_t{100}).cell(std::uint64_t{84});
  table.row().cell(std::uint64_t{1000000}).cell(std::uint64_t{67838});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("1,000,000"), std::string::npos);
  EXPECT_NE(text.find("67,838"), std::string::npos);
  EXPECT_NE(text.find("#Domains"), std::string::npos);
}

TEST(TableTest, PercentCell) {
  Table table({"ratio"});
  table.row().percent_cell(0.1868);
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("18.68%"), std::string::npos);
}

TEST(MetricsRegistryTest, LabeledCountersAreIndependentSeries) {
  obs::MetricsRegistry registry;
  registry.add("upstream_queries", {{"server", "dlv"}}, 3);
  registry.add("upstream_queries", {{"server", "root"}});
  registry.add("upstream_queries");  // unlabeled series
  EXPECT_EQ(registry.value("upstream_queries", {{"server", "dlv"}}), 3u);
  EXPECT_EQ(registry.value("upstream_queries", {{"server", "root"}}), 1u);
  EXPECT_EQ(registry.value("upstream_queries"), 1u);
  EXPECT_EQ(registry.value("upstream_queries", {{"server", "tld"}}), 0u);
  EXPECT_EQ(registry.total("upstream_queries"), 5u);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotSplitSeries) {
  obs::MetricsRegistry registry;
  registry.add("m", {{"a", "1"}, {"b", "2"}}, 1);
  registry.add("m", {{"b", "2"}, {"a", "1"}}, 1);
  EXPECT_EQ(registry.value("m", {{"a", "1"}, {"b", "2"}}), 2u);
}

TEST(CsvTest, EscapesSpecialCharacters) {
  CsvWriter csv({"name", "value"});
  csv.add_row({"plain", "1"});
  csv.add_row({"with,comma", "with\"quote"});
  std::ostringstream out;
  csv.write(out);
  EXPECT_EQ(out.str(),
            "name,value\nplain,1\n\"with,comma\",\"with\"\"quote\"\n");
}

}  // namespace
}  // namespace lookaside::metrics
