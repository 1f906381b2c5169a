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
