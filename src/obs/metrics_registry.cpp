#include "obs/metrics_registry.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "metrics/csv.h"
#include "obs/event.h"  // json_escape

namespace lookaside::obs {

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Merges an extra label into an already-rendered label string
/// ("" + quantile -> {quantile="0.5"}; {a="b"} -> {a="b",quantile="0.5"}).
std::string with_extra_label(const std::string& rendered,
                             const std::string& key,
                             const std::string& value) {
  const std::string extra = key + "=\"" + json_escape(value) + "\"";
  if (rendered.empty()) return "{" + extra + "}";
  std::string out = rendered;
  out.insert(out.size() - 1, "," + extra);
  return out;
}

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + json_escape(labels[i].first) + "\":\"" +
           json_escape(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

std::string format_double(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

}  // namespace

std::string MetricsRegistry::label_string(const Labels& labels) {
  if (labels.empty()) return "";
  const Labels sorted = sorted_labels(labels);
  std::string out = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ",";
    out += sorted[i].first + "=\"" + json_escape(sorted[i].second) + "\"";
  }
  out += "}";
  return out;
}

void MetricsRegistry::add(std::string_view name, const Labels& labels,
                          std::uint64_t delta) {
  const std::string key = label_string(labels);
  auto& series = counters_[std::string(name)][key];
  if (series.value == 0 && series.labels.empty()) {
    series.labels = sorted_labels(labels);
  }
  series.value += delta;
}

void MetricsRegistry::observe(std::string_view name, const Labels& labels,
                              double sample) {
  const std::string key = label_string(labels);
  auto& series = histograms_[std::string(name)][key];
  if (series.histogram.count() == 0 && series.labels.empty()) {
    series.labels = sorted_labels(labels);
  }
  series.histogram.add(sample);
}

void MetricsRegistry::set_gauge(std::string_view name, const Labels& labels,
                                std::uint64_t value) {
  const std::string key = label_string(labels);
  auto& series = gauges_[std::string(name)][key];
  if (series.labels.empty()) series.labels = sorted_labels(labels);
  if (value > series.value) series.value = value;
}

std::uint64_t MetricsRegistry::gauge(std::string_view name,
                                     const Labels& labels) const {
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) return 0;
  const auto series = it->second.find(label_string(labels));
  return series == it->second.end() ? 0 : series->second.value;
}

std::uint64_t MetricsRegistry::value(std::string_view name,
                                     const Labels& labels) const {
  const auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  const auto series = it->second.find(label_string(labels));
  return series == it->second.end() ? 0 : series->second.value;
}

std::uint64_t MetricsRegistry::total(std::string_view name) const {
  const auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  std::uint64_t sum = 0;
  for (const auto& [key, series] : it->second) sum += series.value;
  return sum;
}

const metrics::Histogram* MetricsRegistry::histogram(
    std::string_view name, const Labels& labels) const {
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) return nullptr;
  const auto series = it->second.find(label_string(labels));
  return series == it->second.end() ? nullptr : &series->second.histogram;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, series_map] : other.counters_) {
    for (const auto& [key, series] : series_map) {
      auto& mine = counters_[name][key];
      if (mine.value == 0 && mine.labels.empty()) mine.labels = series.labels;
      mine.value += series.value;
    }
  }
  for (const auto& [name, series_map] : other.histograms_) {
    for (const auto& [key, series] : series_map) {
      auto& mine = histograms_[name][key];
      if (mine.histogram.count() == 0 && mine.labels.empty()) {
        mine.labels = series.labels;
      }
      mine.histogram.merge(series.histogram);
    }
  }
  // Gauges merge by max: each shard reports its own instantaneous state
  // (e.g. its resolver's cache.bytes), and the high-water mark across
  // shards is both the useful aggregate and independent of merge order.
  for (const auto& [name, series_map] : other.gauges_) {
    for (const auto& [key, series] : series_map) {
      auto& mine = gauges_[name][key];
      if (mine.labels.empty()) mine.labels = series.labels;
      if (series.value > mine.value) mine.value = series.value;
    }
  }
}

std::string MetricsRegistry::prometheus_text() const {
  std::string out;
  for (const auto& [name, series_map] : counters_) {
    const std::string metric = sanitize_metric_name(name);
    out += "# TYPE " + metric + " counter\n";
    for (const auto& [key, series] : series_map) {
      out += metric + key + " " + std::to_string(series.value) + "\n";
    }
  }
  for (const auto& [name, series_map] : gauges_) {
    const std::string metric = sanitize_metric_name(name);
    out += "# TYPE " + metric + " gauge\n";
    for (const auto& [key, series] : series_map) {
      out += metric + key + " " + std::to_string(series.value) + "\n";
    }
  }
  for (const auto& [name, series_map] : histograms_) {
    const std::string metric = sanitize_metric_name(name);
    out += "# TYPE " + metric + " summary\n";
    for (const auto& [key, series] : series_map) {
      for (const double q : {0.5, 0.9, 0.99}) {
        out += metric +
               with_extra_label(key, "quantile", format_double(q)) + " " +
               format_double(series.histogram.percentile(q * 100)) + "\n";
      }
      out += metric + "_sum" + key + " " +
             format_double(series.histogram.sum()) + "\n";
      out += metric + "_count" + key + " " +
             std::to_string(series.histogram.count()) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::json() const {
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const auto& [name, series_map] : counters_) {
    for (const auto& [key, series] : series_map) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"" + json_escape(name) + "\",\"labels\":" +
             labels_json(series.labels) +
             ",\"value\":" + std::to_string(series.value) + "}";
    }
  }
  // The gauges section only appears when a gauge was set, so pre-gauge
  // producers keep emitting the exact historical document.
  if (!gauges_.empty()) {
    out += "],\"gauges\":[";
    first = true;
    for (const auto& [name, series_map] : gauges_) {
      for (const auto& [key, series] : series_map) {
        if (!first) out += ",";
        first = false;
        out += "{\"name\":\"" + json_escape(name) + "\",\"labels\":" +
               labels_json(series.labels) +
               ",\"value\":" + std::to_string(series.value) + "}";
      }
    }
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& [name, series_map] : histograms_) {
    for (const auto& [key, series] : series_map) {
      if (!first) out += ",";
      first = false;
      const metrics::Histogram& h = series.histogram;
      out += "{\"name\":\"" + json_escape(name) + "\",\"labels\":" +
             labels_json(series.labels) +
             ",\"count\":" + std::to_string(h.count()) +
             ",\"sum\":" + format_double(h.sum()) +
             ",\"min\":" + format_double(h.min()) +
             ",\"max\":" + format_double(h.max()) +
             ",\"p50\":" + format_double(h.percentile(50)) +
             ",\"p90\":" + format_double(h.percentile(90)) +
             ",\"p99\":" + format_double(h.percentile(99)) + "}";
    }
  }
  out += "]}";
  return out;
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  metrics::CsvWriter csv({"name", "labels", "value"});
  for (const auto& [name, series_map] : counters_) {
    for (const auto& [key, series] : series_map) {
      csv.add_row({name, key, std::to_string(series.value)});
    }
  }
  for (const auto& [name, series_map] : gauges_) {
    for (const auto& [key, series] : series_map) {
      csv.add_row({name, key, std::to_string(series.value)});
    }
  }
  for (const auto& [name, series_map] : histograms_) {
    for (const auto& [key, series] : series_map) {
      const metrics::Histogram& h = series.histogram;
      csv.add_row({name + "_count", key, std::to_string(h.count())});
      csv.add_row({name + "_sum", key, format_double(h.sum())});
      csv.add_row({name + "_mean", key, format_double(h.mean())});
      csv.add_row({name + "_p99", key, format_double(h.percentile(99))});
    }
  }
  csv.write(out);
}

bool MetricsRegistry::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  const auto ends_with = [&path](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends_with(".json")) {
    out << json() << "\n";
  } else if (ends_with(".csv")) {
    write_csv(out);
  } else {
    out << prometheus_text();
  }
  return out.good();
}

void MetricsRegistry::clear() {
  counters_.clear();
  histograms_.clear();
  gauges_.clear();
}

}  // namespace lookaside::obs
