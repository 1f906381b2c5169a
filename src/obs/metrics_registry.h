// Labeled-instrument metrics registry with Prometheus/JSON/CSV export.
//
// Named counters, high-water gauges and metrics::Histogram instruments with
// label support — `upstream_queries{server="dlv"}` — the way production
// resolvers expose DNSSEC state counters (cf. PowerDNS's
// dnssecResults[state]++ pattern).
// Export formats:
//   prometheus_text()  — text exposition (counters + summary quantiles);
//   json()             — one object with "counters" and "histograms";
//   write_csv()        — name,labels,value rows via the existing CsvWriter.
// write_file() picks the format from the file extension so bench drivers
// can offer a single --metrics-out= flag.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/histogram.h"

namespace lookaside::obs {

using Label = std::pair<std::string, std::string>;
using Labels = std::vector<Label>;

class MetricsRegistry {
 public:
  /// Increments counter `name{labels}` by `delta`.
  void add(std::string_view name, const Labels& labels = {},
           std::uint64_t delta = 1);

  /// Records `sample` into histogram `name{labels}`.
  void observe(std::string_view name, const Labels& labels, double sample);

  /// Raises gauge `name{labels}` to `value` if higher. Registry gauges are
  /// high-water marks, not last-write instantaneous values, because the
  /// sweep engine's byte-identity contract needs a reduction that is
  /// independent of cell-to-shard partitioning — max is; "latest" is not.
  void set_gauge(std::string_view name, const Labels& labels,
                 std::uint64_t value);

  /// Value of gauge `name{labels}` (0 when absent).
  [[nodiscard]] std::uint64_t gauge(std::string_view name,
                                    const Labels& labels = {}) const;

  /// Value of the exact series `name{labels}` (0 when absent).
  [[nodiscard]] std::uint64_t value(std::string_view name,
                                    const Labels& labels = {}) const;

  /// Sum over every label combination of counter `name`.
  [[nodiscard]] std::uint64_t total(std::string_view name) const;

  /// Histogram for `name{labels}`, or nullptr when absent.
  [[nodiscard]] const metrics::Histogram* histogram(
      std::string_view name, const Labels& labels = {}) const;

  /// Folds another registry into this one: counters add, histogram samples
  /// append. Used by the sweep engine to reduce per-shard registries into
  /// one post-run export; merging shards in canonical order keeps the
  /// result independent of thread scheduling.
  void merge_from(const MetricsRegistry& other);

  /// Prometheus text exposition. Counters get `# TYPE ... counter` lines;
  /// histograms are exported as summaries (quantiles 0.5/0.9/0.99 plus
  /// _sum and _count).
  [[nodiscard]] std::string prometheus_text() const;

  /// JSON document: {"counters":[...],"histograms":[...]}, plus a
  /// "gauges":[...] section when any gauge was set.
  [[nodiscard]] std::string json() const;

  /// CSV rows: name,labels,value (histograms export count/sum/mean/p99).
  void write_csv(std::ostream& out) const;

  /// Writes the registry to `path`; format by extension (.json / .csv /
  /// anything else -> Prometheus text). Returns false on I/O failure.
  [[nodiscard]] bool write_file(const std::string& path) const;

  /// Canonical label rendering: `{a="b",c="d"}` with keys sorted; empty
  /// labels render as "".
  [[nodiscard]] static std::string label_string(const Labels& labels);

  [[nodiscard]] bool empty() const {
    return counters_.empty() && histograms_.empty() && gauges_.empty();
  }

  void clear();

 private:
  struct CounterSeries {
    Labels labels;
    std::uint64_t value = 0;
  };
  struct HistogramSeries {
    Labels labels;
    metrics::Histogram histogram;
  };

  // instrument name -> (canonical label string -> series)
  std::map<std::string, std::map<std::string, CounterSeries>, std::less<>>
      counters_;
  std::map<std::string, std::map<std::string, HistogramSeries>, std::less<>>
      histograms_;
  // Gauges reuse CounterSeries storage; only the write semantics differ
  // (set vs add, max vs sum on merge). Exports emit a gauges section only
  // when one was set, so registries that never touch a gauge render
  // byte-identically to the pre-gauge format.
  std::map<std::string, std::map<std::string, CounterSeries>, std::less<>>
      gauges_;
};

}  // namespace lookaside::obs
