// Shared helpers for the table/figure reproduction binaries.
//
// Every bench prints (a) the paper's table/figure as measured by this
// simulator and (b) the paper's reported numbers next to it, so shape
// comparisons are one glance. Scale can be capped for quick runs via the
// LOOKASIDE_SCALE environment variable (e.g. LOOKASIDE_SCALE=10000).
//
// Observability flags (parse_obs_args / ObsSession):
//   --trace-out=t.jsonl    write the structured event stream as JSONL
//   --metrics-out=m.txt    export metrics (.json/.csv by extension,
//                          Prometheus text otherwise)
//   --ledger-out=l.jsonl   write the leak ledger (Case-2 records by cause)
//   --profile-out=p.jsonl  write per-query critical-path profiles
//   --summary              print the aggregated per-server table at the end
//
// Engine-parallel drivers additionally take --jobs N (engine::parse_jobs);
// each shard owns a ShardObs bundle so metrics stay race-free and merge
// deterministically (see DESIGN.md §4d).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/sweep.h"
#include "obs/leak_ledger.h"
#include "obs/metrics_registry.h"
#include "obs/metrics_sink.h"
#include "obs/span_timeline.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"

namespace lookaside::bench {

/// Prints a section banner.
inline void banner(const std::string& title) {
  std::cout << "\n==== " << title << " ====\n\n";
}

/// The standard N ladder {100, 1k, 10k, ...} capped at `max`. A cap that is
/// not itself a decade point becomes the final rung, so LOOKASIDE_SCALE=5000
/// runs {100, 1000, 5000} instead of silently stopping at 1000.
inline std::vector<std::uint64_t> n_ladder(std::uint64_t max) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t n = 100; n <= max; n *= 10) out.push_back(n);
  if (out.empty() || out.back() != max) out.push_back(max);
  return out;
}

/// Strict decimal parse for flag values: the whole string must be digits.
/// Malformed input ("abc", "12abc", "", negative) prints an error naming the
/// flag and exits nonzero instead of silently coercing to a default.
inline std::uint64_t parse_u64_flag(std::string_view flag_name,
                                    std::string_view text) {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, 10);
  if (ec != std::errc{} || ptr != end || text.empty()) {
    std::cerr << "error: " << flag_name << " expects an unsigned integer, got '"
              << text << "'\n";
    std::exit(2);
  }
  return value;
}

/// Maximum workload size: LOOKASIDE_SCALE env var, else `default_max`.
/// Unset, empty and 0 mean the default; any other value must be all digits,
/// so "10k" or "1e6" exits 2 instead of being read as a cap of 10 or 1.
inline std::uint64_t max_scale(std::uint64_t default_max) {
  const char* env = std::getenv("LOOKASIDE_SCALE");
  if (env == nullptr || *env == '\0') return default_max;
  const std::uint64_t parsed = parse_u64_flag("LOOKASIDE_SCALE", env);
  return parsed == 0 ? default_max : parsed;
}

/// Observability options shared by the bench drivers.
struct ObsArgs {
  std::string trace_out;        // --trace-out=<path>
  std::string metrics_out;      // --metrics-out=<path>
  std::string ledger_out;       // --ledger-out=<path> (leak ledger JSONL)
  std::string profile_out;      // --profile-out=<path> (per-query profiles)
  bool summary = false;         // --summary
};

/// Parses the observability flags; unknown arguments are ignored so each
/// bench stays free to define its own.
inline ObsArgs parse_obs_args(int argc, char** argv) {
  ObsArgs out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      out.trace_out = std::string(arg.substr(12));
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      out.metrics_out = std::string(arg.substr(14));
    } else if (arg.rfind("--ledger-out=", 0) == 0) {
      out.ledger_out = std::string(arg.substr(13));
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      out.profile_out = std::string(arg.substr(14));
    } else if (arg == "--summary") {
      out.summary = true;
    }
  }
  return out;
}

/// The one flag parser every driver shares. Wraps the observability flags
/// (parse_obs_args) and --jobs (engine::parse_jobs) that used to be parsed
/// in per-driver copies, plus the common --smoke boolean and --out=PATH;
/// driver-specific extras are declared at construction and read
/// through flag()/value() so no driver grows its own argv loop again. An
/// undeclared `--flag` is a usage error: it prints the accepted set to
/// stderr and exits 2 instead of being silently ignored (a typo like
/// --smokee must not quietly run the full-size sweep).
class ArgParser {
 public:
  ArgParser(int argc, char** argv,
            std::initializer_list<std::string_view> extra_flags = {})
      : args_(argv + 1, argv + argc),
        obs_(parse_obs_args(argc, argv)),
        jobs_(engine::parse_jobs(argc, argv)) {
    reject_unknown(extra_flags);
  }

  [[nodiscard]] const ObsArgs& obs() const { return obs_; }
  [[nodiscard]] unsigned jobs() const { return jobs_; }
  [[nodiscard]] bool smoke() const { return flag("smoke"); }
  [[nodiscard]] std::string out(std::string fallback) const {
    return value("out", std::move(fallback));
  }

  /// True when `--<name>` was given.
  [[nodiscard]] bool flag(std::string_view name) const {
    for (const std::string& arg : args_) {
      if (arg.size() == name.size() + 2 && arg.compare(0, 2, "--") == 0 &&
          arg.compare(2, name.size(), name) == 0) {
        return true;
      }
    }
    return false;
  }

  /// Value of the last `--<name>=V` parsed as a strict unsigned decimal, or
  /// `fallback` when the flag is absent. Malformed values error out via
  /// parse_u64_flag instead of being coerced.
  [[nodiscard]] std::uint64_t numeric(std::string_view name,
                                      std::uint64_t fallback) const {
    const std::string text = value(name);
    if (text.empty() && !flag_with_value_present(name)) return fallback;
    return parse_u64_flag(std::string("--") + std::string(name), text);
  }

  /// Value of the last `--<name>=V`, or `fallback` when absent.
  [[nodiscard]] std::string value(std::string_view name,
                                  std::string fallback = {}) const {
    std::string result = std::move(fallback);
    for (const std::string& arg : args_) {
      if (arg.compare(0, 2, "--") == 0 &&
          arg.compare(2, name.size(), name) == 0 &&
          arg.size() > name.size() + 2 && arg[name.size() + 2] == '=') {
        result = arg.substr(name.size() + 3);
      }
    }
    return result;
  }

 private:
  /// Exits 2 on any `--flag` outside the builtin + declared sets. The
  /// two-token `--jobs N` form consumes its value token.
  void reject_unknown(std::initializer_list<std::string_view> extra) const {
    static constexpr std::string_view kBuiltin[] = {
        "smoke",       "out",        "jobs",        "trace-out",
        "metrics-out", "ledger-out", "profile-out", "summary"};
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string& arg = args_[i];
      if (arg.rfind("--", 0) != 0) continue;
      std::string_view name = std::string_view(arg).substr(2);
      if (const auto eq = name.find('='); eq != std::string_view::npos) {
        name = name.substr(0, eq);
      }
      if (arg == "--jobs") ++i;  // skip the separate value token
      bool known = false;
      for (const std::string_view builtin : kBuiltin) {
        known = known || builtin == name;
      }
      for (const std::string_view declared : extra) {
        known = known || declared == name;
      }
      if (known) continue;
      std::cerr << "error: unknown flag '--" << name
                << "'; accepted: --smoke --out=PATH --jobs=N "
                   "--trace-out=PATH --metrics-out=PATH --ledger-out=PATH "
                   "--profile-out=PATH --summary";
      for (const std::string_view declared : extra) {
        std::cerr << " --" << declared;
      }
      std::cerr << "\n";
      std::exit(2);
    }
  }

  /// True when `--<name>=...` appeared at all (even with an empty value),
  /// so numeric() can distinguish "absent" from "present but empty" — the
  /// latter is a user error that must not silently become the fallback.
  [[nodiscard]] bool flag_with_value_present(std::string_view name) const {
    for (const std::string& arg : args_) {
      if (arg.compare(0, 2, "--") == 0 &&
          arg.compare(2, name.size(), name) == 0 &&
          arg.size() > name.size() + 2 && arg[name.size() + 2] == '=') {
        return true;
      }
    }
    return false;
  }

  std::vector<std::string> args_;
  ObsArgs obs_;
  unsigned jobs_;
};

/// A bench's observability outputs. Experiments trace through ShardObs
/// bundles, never through the session: one primary ShardObs carries the
/// session's stream sinks (JSONL trace, summary), and every ShardObs folds
/// its metrics, ledger and profiles in through merge_into(). finish() then
/// writes the files. With no flags given every ShardObs tracer is nullptr
/// and the run is unobserved (no cost).
class ObsSession {
 public:
  explicit ObsSession(ObsArgs args) : args_(std::move(args)) {
    if (!args_.trace_out.empty()) {
      jsonl_ = std::make_shared<obs::JsonlFileSink>(args_.trace_out);
    }
    if (args_.summary) summary_ = std::make_shared<obs::SummarySink>();
    ledger_requested_ = !args_.ledger_out.empty();
  }

  /// Turns the leak ledger on even without --ledger-out (the cache/serve
  /// benches always account causes so their JSON can carry the breakdown).
  /// Each ShardObs made afterwards carries a ledger for merge_into().
  void enable_ledger() { ledger_requested_ = true; }

  /// Attaches the session's stream sinks (JSONL, summary) to a
  /// shard-private tracer. Exactly one shard per sweep may call this — the
  /// stream sinks are single-writer.
  void attach_stream_sinks(obs::Tracer& tracer) {
    if (jsonl_ != nullptr) tracer.add_sink(jsonl_);
    if (summary_ != nullptr) tracer.add_sink(summary_);
  }

  [[nodiscard]] obs::MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] bool metrics_enabled() const {
    return !args_.metrics_out.empty();
  }
  [[nodiscard]] bool ledger_enabled() const { return ledger_requested_; }
  [[nodiscard]] bool profiles_enabled() const {
    return !args_.profile_out.empty();
  }

  /// The merged cross-shard ledger, populated through
  /// ShardObs::merge_into() in shard order.
  [[nodiscard]] obs::LeakLedger& merged_ledger() { return merged_ledger_; }

  /// Appends one shard/timeline's query profiles (serialized, in query
  /// order) to the session profile stream.
  void append_profiles(const obs::SpanTimeline& timeline) {
    for (const obs::QueryProfile& profile : timeline.query_profiles()) {
      profile_lines_.push_back(obs::profile_jsonl(profile));
    }
  }

  /// Writes the metrics, ledger and profile files and reports what was
  /// produced. Call after every ShardObs::merge_into().
  void finish(std::ostream& out) {
    if (jsonl_ == nullptr && !metrics_enabled() && summary_ == nullptr &&
        !ledger_enabled() && !profiles_enabled()) {
      return;
    }
    out << "\n";
    if (jsonl_ != nullptr) {
      jsonl_->flush();
      out << "[obs] trace: " << args_.trace_out << " ("
          << jsonl_->events_written() << " events"
          << (jsonl_->ok() ? "" : "; WRITE FAILED") << ")\n";
    }
    if (metrics_enabled()) {
      // Lost-event accounting rides in the same export: a nonzero
      // obs_trace_dropped means the trace under-reports and every derived
      // artifact (ledger, profiles) inherits that caveat.
      if (jsonl_ != nullptr && jsonl_->dropped() > 0) {
        registry_.add("obs_trace_dropped", {{"sink", "jsonl"}},
                      jsonl_->dropped());
      }
      if (ledger_enabled()) merged_ledger_.export_to(registry_);
      out << "[obs] metrics: " << args_.metrics_out
          << (registry_.write_file(args_.metrics_out) ? "" : " (WRITE FAILED)")
          << "\n";
    }
    if (!args_.ledger_out.empty()) {
      out << "[obs] ledger: " << args_.ledger_out << " ("
          << merged_ledger_.case2_total() << " case-2 records"
          << (merged_ledger_.write_file(args_.ledger_out) ? ""
                                                          : "; WRITE FAILED")
          << ")\n";
    }
    if (profiles_enabled()) {
      out << "[obs] profiles: " << args_.profile_out << " ("
          << profile_lines_.size() << " queries"
          << (write_profiles(args_.profile_out) ? "" : "; WRITE FAILED")
          << ")\n";
    }
    if (summary_ != nullptr) summary_->print(out);
  }

 private:
  [[nodiscard]] bool write_profiles(const std::string& path) const {
    std::ofstream file(path, std::ios::trunc);
    if (!file) return false;
    for (const std::string& line : profile_lines_) file << line << "\n";
    return file.good();
  }

  ObsArgs args_;
  obs::MetricsRegistry registry_;
  std::shared_ptr<obs::JsonlFileSink> jsonl_;
  std::shared_ptr<obs::SummarySink> summary_;
  obs::LeakLedger merged_ledger_;
  std::vector<std::string> profile_lines_;
  bool ledger_requested_ = false;
};

/// Per-shard observability bundle, the one way a bench traces an
/// experiment (a driver that runs no sweep has one shard). Every shard
/// that wants tracing owns one: a private Tracer plus a private
/// MetricsRegistry (when the session exports metrics), so worker threads
/// never share a mutable sink. The designated primary shard additionally
/// carries the session's stream sinks (JSONL trace, summary),
/// which therefore stay single-writer. After the engine's deterministic
/// merge, call merge_into() in shard order so the exported metrics are
/// byte-identical for any --jobs value.
class ShardObs {
 public:
  ShardObs(ObsSession& session, bool primary) {
    if (session.metrics_enabled()) {
      metrics_sink_ = std::make_shared<obs::MetricsSink>(registry_);
      tracer_.add_sink(metrics_sink_);
    }
    if (session.ledger_enabled()) {
      ledger_ = std::make_shared<obs::LeakLedger>();
      tracer_.add_sink(ledger_);
    }
    if (session.ledger_enabled() || session.profiles_enabled()) {
      timeline_ = std::make_shared<obs::TimelineSink>();
      tracer_.add_sink(timeline_);
    }
    if (primary) session.attach_stream_sinks(tracer_);
  }

  /// Tracer for this shard's experiment; nullptr when nothing listens.
  [[nodiscard]] obs::Tracer* tracer() {
    return tracer_.has_sinks() ? &tracer_ : nullptr;
  }

  /// This shard's private registry when the session exports metrics, else
  /// nullptr. Hand it to components that emit series directly (e.g. the
  /// serving frontend's shard-labeled counters); merge_into() folds it in.
  [[nodiscard]] obs::MetricsRegistry* metrics() {
    return metrics_sink_ == nullptr ? nullptr : &registry_;
  }

  /// This shard's ledger / timeline, for per-cell acceptance checks before
  /// the merge. Null unless the session enabled the corresponding feature.
  [[nodiscard]] const obs::LeakLedger* ledger() const { return ledger_.get(); }
  [[nodiscard]] const obs::SpanTimeline* timeline() const {
    return timeline_ == nullptr ? nullptr : &timeline_->timeline();
  }

  /// Folds this shard's metrics, ledger and profiles into the session
  /// (main thread; call in shard order for byte-identical output).
  void merge_into(ObsSession& session) {
    tracer_.flush();
    session.registry().merge_from(registry_);
    if (ledger_ != nullptr) session.merged_ledger().merge_from(*ledger_);
    if (timeline_ != nullptr && session.profiles_enabled()) {
      session.append_profiles(timeline_->timeline());
    }
  }

 private:
  obs::Tracer tracer_;
  obs::MetricsRegistry registry_;
  std::shared_ptr<obs::MetricsSink> metrics_sink_;
  std::shared_ptr<obs::LeakLedger> ledger_;
  std::shared_ptr<obs::TimelineSink> timeline_;
};

}  // namespace lookaside::bench
