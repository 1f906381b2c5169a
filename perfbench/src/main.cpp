// perfbench: times one workload of the look-aside simulator and prints one
// JSON report line (run.py turns it into the benchmark result).
//
//   perfbench --workload <cold-topn|warm-zipf|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-dir <dir>]
//
// A run is a sequence of rounds, each a freshly built stack replaying the
// same seeded op sequence, repeated until --seconds of timed ops (and at
// least kMinRounds rounds) have run. Every round must reproduce the same
// virtual outputs.
//
// --trace 0 reports the end-to-end metrics: set-up time, ops/s and the
// nearest-rank op p50/p99 of each round (medians over rounds), and peak RSS.
// A round keeps only its summary, so peak RSS does not grow with the number
// of rounds a fast host fits in.
// --trace 1 alternates untraced and traced rounds. Traced rounds route every
// authority and registry call through timing decorators and give the
// per-layer metrics (means over traced rounds); the untraced ones give the
// reference for trace.overhead_ratio and for the digest check.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dns/codec.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kMinRounds = 3;
constexpr std::uint64_t kReplayMinNs = 20'000'000;

/// Receives replay results so the compiler cannot discard the calls.
volatile std::size_t g_replay_sink = 0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--spans-dir <dir>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--spans-dir") {
        args.spans_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

// -- Host record ---------------------------------------------------------------

struct HostRecord {
  long nproc = 0;
  int affinity_cpus = 0;
  double cgroup_cpus = 0;  // quota / period; 0 when unlimited or unknown
  std::string cgroup_source = "none";
  bool optimised = false;
  bool sanitized = false;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string flags = PERFBENCH_FLAGS;
};

/// cgroup v2 cpu.max ("max 100000" or "<quota> <period>"), else the v1
/// cfs_quota_us / cfs_period_us pair.
void read_cgroup_quota(HostRecord& host) {
  std::ifstream v2("/sys/fs/cgroup/cpu.max");
  std::string quota;
  double period = 0;
  if (v2 >> quota >> period) {
    host.cgroup_source = "v2";
    if (quota != "max" && period > 0) host.cgroup_cpus = std::stod(quota) / period;
    return;
  }
  std::ifstream v1_quota("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream v1_period("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  double q = 0;
  if (v1_quota >> q && v1_period >> period) {
    host.cgroup_source = "v1";
    if (q > 0 && period > 0) host.cgroup_cpus = q / period;
  }
}

HostRecord host_record() {
  HostRecord host;
  host.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    host.affinity_cpus = CPU_COUNT(&set);
  }
  read_cgroup_quota(host);
#ifdef __OPTIMIZE__
  host.optimised = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  host.sanitized = true;
#endif
  if (host.flags.find("-fsanitize") != std::string::npos) host.sanitized = true;
  return host;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -- Rounds --------------------------------------------------------------------

/// One per-layer metric of one traced round.
struct LayerRow {
  const char* name;
  const char* unit;
  double value;
  std::size_t samples;  // evidence count (spans, ops, messages); 0 = none
};

/// One round: a fresh stack, its set-up time, and its timed ops.
struct Round {
  bool traced = false;
  double setup_s = 0;
  std::size_t ops = 0;
  Percentile p50;
  Percentile p99;
  std::size_t failed = 0;
  std::uint64_t wall_ns = 0;
  Observables observed;
  InvariantReport invariants;
  std::vector<LayerRow> layers;  // traced rounds only
  std::string problem;           // traced rounds: tracing failure
};

/// Mean ns of `fn` over `items`, cycling until kReplayMinNs has passed.
template <typename Item, typename Fn>
double replay_ns(const std::vector<Item>& items, Fn fn) {
  if (items.empty()) return 0.0;
  std::uint64_t calls = 0;
  std::size_t sink = 0;
  const std::uint64_t start = now_ns();
  std::uint64_t elapsed = 0;
  do {
    for (const Item& item : items) sink += fn(item);
    calls += items.size();
    elapsed = now_ns() - start;
  } while (elapsed < kReplayMinNs);
  g_replay_sink = sink;
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

/// Per-layer metrics of a traced round, on the stack the round left.
/// Returns an empty list (with `problem` set) when the spans do not add up.
std::vector<LayerRow> layer_rows(const std::vector<std::uint64_t>& op_start,
                                 const std::vector<std::uint64_t>& op_ns,
                                 const SpanLog& log, const LayerCounters& d,
                                 Workload& workload, const RsaUnitCost& rsa,
                                 std::string& problem) {
  const LayerTimes times = attribute(op_start, op_ns, log.spans());
  const std::uint64_t server_ns = times.busy_ns[0];
  const std::uint64_t dlv_ns = times.busy_ns[1];
  if (!times.nested) {
    problem = "a child span lies outside its op";
    return {};
  }
  if (server_ns + dlv_ns + times.self_ns != times.op_ns) {
    problem = "server + dlv + resolver.self != op time";
    return {};
  }
  const std::uint64_t ops = times.ops;
  const double us = 1000.0;
  std::vector<LayerRow> rows = {
      {"trace.op_us_per_op", "us", per_op(times.op_ns / us, ops), ops},
      {"server.busy_us_per_op", "us", per_op(server_ns / us, ops),
       times.calls[0]},
      {"server.queries_per_op", "count", per_op(times.calls[0], ops), 0},
      {"dlv.busy_us_per_op", "us", per_op(dlv_ns / us, ops), times.calls[1]},
      {"dlv.queries_per_op", "count", per_op(d.dlv_queries, ops), 0},
      {"dlv.useful_ratio", "ratio", ratio(d.dlv_case1, d.dlv_queries), 0},
      {"resolver.self_us_per_op", "us", per_op(times.self_ns / us, ops), ops},
      {"resolver.retries_per_op", "count", per_op(d.retries, ops), 0},
      {"sim.exchanges_per_op", "count", per_op(d.exchanges, ops), 0},
      {"sim.bytes_per_op", "B", per_op(d.bytes, ops), 0},
      {"cache.hit_ratio", "ratio",
       ratio(d.cache_hits, d.cache_hits + d.cache_misses), 0},
      {"cache.evictions_per_op", "count", per_op(d.cache_evicted, ops), 0},
      {"cache.peak_mb", "MB", workload.cache_peak_mb(), 0},
      {"crypto.rsa_verifies_per_op", "count", per_op(d.rsa_verifies, ops), 0},
      {"crypto.rsa_skipped_per_op", "count", per_op(d.rsa_skipped, ops), 0},
      {"crypto.rsa_verify_us", "us", rsa.verify_us, 0},
      {"crypto.rsa_sign_us", "us", rsa.sign_us, 0},
      {"crypto.nsec3_hash_ops_per_op", "count", per_op(d.nsec3_hash_ops, ops),
       0},
      {"serve.coalesce_ratio", "ratio",
       ratio(d.coalesce_hits, d.coalesce_hits + d.coalesce_misses), 0},
      {"serve.queue_depth_max", "count",
       static_cast<double>(workload.queue_depth_max()), 0},
      {"serve.shed_per_op", "count", per_op(d.shed, ops), 0},
  };
  // The replays below run on the stack the round left, so they come after
  // every counter above has been read.
  rows.push_back({"cache.probe_ns", "ns", workload.cache_probe_ns(), 0});

  // Codec: price one encode per message from sampled upstream and client
  // messages, and one decode from the client wire, then charge each per
  // call the op path makes.
  const auto encode_pair = [](const SpanLog::MessagePair& pair) {
    return lookaside::dns::encode_message(pair.first).size() +
           lookaside::dns::encode_message(pair.second).size();
  };
  const std::vector<SpanLog::MessagePair> upstream = log.samples();
  const double upstream_ns = replay_ns(upstream, encode_pair) / 2.0;
  const std::vector<SpanLog::MessagePair> client = workload.client_samples();
  const double client_ns = replay_ns(client, encode_pair) / 2.0;
  const double decode_ns = replay_ns(
      workload.decode_samples(), [](const std::vector<std::uint8_t>* wire) {
        return lookaside::dns::decode_message(*wire).questions.size();
      });
  rows.push_back({"dns.encode_us_per_op", "us",
                  per_op((upstream_ns * d.upstream_encodes +
                          client_ns * d.client_encodes) / us, ops),
                  upstream.size() + client.size()});
  rows.push_back({"dns.decode_us_per_op", "us",
                  per_op(decode_ns * d.decodes / us, ops), 0});
  return rows;
}

/// Appends a traced round's op and child spans to `path` (TSV).
void write_spans(const std::string& path, std::size_t round,
                 const std::vector<std::uint64_t>& op_start,
                 const std::vector<std::uint64_t>& op_ns, const SpanLog& log) {
  std::ofstream out(path, std::ios::app);
  for (std::size_t i = 0; i < op_ns.size(); ++i) {
    out << round << '\t' << i << "\top\t" << op_start[i] << '\t'
        << op_start[i] + op_ns[i] << '\n';
  }
  for (const Span& span : log.spans()) {
    out << round << '\t' << span.op << '\t' << layer_name(span.layer) << '\t'
        << span.start_ns << '\t' << span.end_ns << '\n';
  }
}

/// Builds a fresh stack (timed as set-up), then runs its op sequence with
/// each op timed on its own. A traced round installs the decorators after
/// set-up, measures the layers and appends its spans to `spans_path`.
Round run_round(const Args& args, bool traced, std::size_t index,
                const std::string& spans_path) {
  Round round;
  round.traced = traced;
  const std::uint64_t setup_start = now_ns();
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed);
  round.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  SpanLog log;
  if (traced && !workload->install_tracing(log)) {
    round.problem = "could not wrap every directory zone";
    return round;
  }
  const std::size_t ops = workload->round_ops();
  round.ops = ops;
  std::vector<std::uint64_t> op_ns;
  op_ns.reserve(ops);
  std::vector<std::uint64_t> op_start;
  if (traced) op_start.reserve(ops);
  const LayerCounters before = workload->counters();
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < ops; ++i) {
    if (traced) log.set_op(static_cast<std::uint32_t>(i));
    const std::uint64_t begin = now_ns();
    round.failed += workload->run_op(i) ? 1 : 0;
    const std::uint64_t end = now_ns();
    op_ns.push_back(end - begin);
    if (traced) op_start.push_back(begin);
  }
  round.wall_ns = now_ns() - start;

  const LayerCounters delta = workload->counters().minus(before);
  round.observed = workload->observe(ops);
  round.invariants = workload->check(ops, round.failed);
  if (traced) {
    // Spans first: the replays in layer_rows may send traffic of their own.
    if (!spans_path.empty()) {
      write_spans(spans_path, index, op_start, op_ns, log);
    }
    const RsaUnitCost rsa = measure_rsa(args.seed, kReplayMinNs);
    round.layers = layer_rows(op_start, op_ns, log, delta, *workload, rsa,
                              round.problem);
  }
  std::sort(op_ns.begin(), op_ns.end());
  round.p50 = percentile_us(op_ns, 0.50);
  round.p99 = percentile_us(op_ns, 0.99);
  return round;
}

// -- Report --------------------------------------------------------------------

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Ordered JSON object builder for the report line.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_quote(key) + ": " + json;
    return *this;
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, json_quote(value));
  }
  JsonObject& num(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.10g", value);
    return raw(key, buffer);
  }
  JsonObject& integer(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct MetricSet {
  JsonObject json;
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    JsonObject metric;
    metric.num("value", value).str("unit", unit);
    if (samples != 0) metric.integer("samples", samples);
    json.raw(name, metric.text());
  }
};

std::string observables_json(const Observables& seen) {
  JsonObject rcodes;
  for (const auto& [rcode, count] : seen.rcodes) rcodes.integer(rcode, count);
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(seen.digest()));
  char leaked[32];
  std::snprintf(leaked, sizeof leaked, "%016llx",
                static_cast<unsigned long long>(seen.leaked_digest));
  JsonObject out;
  out.integer("ops", seen.ops)
      .integer("dlv_queries", seen.dlv_queries)
      .integer("case2", seen.case2)
      .integer("distinct_leaked", seen.distinct_leaked)
      .str("leaked_digest", leaked)
      .integer("bytes_total", seen.bytes_total)
      .integer("cache_evicted", seen.cache_evicted)
      .integer("virtual_us", seen.virtual_us)
      .raw("rcodes", rcodes.text())
      .str("digest", digest);
  return out.text();
}

std::string host_json(const HostRecord& host) {
  JsonObject out;
  out.integer("nproc", static_cast<std::uint64_t>(host.nproc))
      .integer("affinity_cpus", static_cast<std::uint64_t>(host.affinity_cpus))
      .num("cgroup_cpus", host.cgroup_cpus)
      .str("cgroup_source", host.cgroup_source)
      .boolean("optimised", host.optimised)
      .boolean("sanitized", host.sanitized)
      .str("build_type", host.build_type)
      .str("flags", host.flags);
  return out.text();
}

int run(const Args& args) {
  const HostRecord host = host_record();
  if (!host.optimised || host.sanitized) {
    std::cerr << "perfbench: refusing to time an "
              << (host.sanitized ? "sanitized" : "unoptimised")
              << " build (flags: " << host.flags << ")\n";
    return 3;
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown workload " + args.workload);
  }

  std::string spans_path;
  if (args.trace && !args.spans_dir.empty()) {
    spans_path = args.spans_dir + "/" + args.workload + ".spans.tsv";
    std::ofstream(spans_path) << "round\top\tlayer\tstart_ns\tend_ns\n";
  }
  const auto min_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  std::vector<Round> rounds;
  std::uint64_t timed_ns = 0;
  while (rounds.size() < kMinRounds || timed_ns < min_ns) {
    const bool traced = args.trace && rounds.size() % 2 == 1;
    rounds.push_back(run_round(args, traced, rounds.size(), spans_path));
    timed_ns += rounds.back().wall_ns;
    if (!rounds.back().problem.empty()) break;
  }

  bool correct = true;
  std::vector<std::string> problems;
  auto fail = [&](const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  };
  std::vector<double> setup_s;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> p50_by_kind[2];  // [traced] -> per-round p50 (us)
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::size_t min_beyond = SIZE_MAX;
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    const Round& round = rounds[k];
    if (!round.problem.empty()) {
      fail("round " + std::to_string(k) + ": " + round.problem);
    }
    if (!round.invariants.ok) {
      fail("round " + std::to_string(k) + ": " + round.invariants.detail);
    }
    if (round.observed.digest() != rounds[0].observed.digest()) {
      fail("round " + std::to_string(k) + (round.traced ? " (traced)" : "") +
           " digest differs from round 0");
    }
    setup_s.push_back(round.setup_s);
    rates.push_back(static_cast<double>(round.ops) /
                    (static_cast<double>(round.wall_ns) / 1e9));
    p50s.push_back(round.p50.value);
    p99s.push_back(round.p99.value);
    p50_by_kind[round.traced ? 1 : 0].push_back(round.p50.value);
    ops += round.ops;
    failed += round.failed;
    min_beyond = std::min(min_beyond, round.p99.beyond);
  }
  if (min_beyond < kMinSamplesBeyond) {
    fail("a round's p99 has only " + std::to_string(min_beyond) +
         " samples beyond it");
  }

  MetricSet metrics;
  if (!args.trace) {
    metrics.add("setup_s", median(setup_s), "s", setup_s.size());
    metrics.add("ops_per_s", median(rates), "1/s", rates.size());
    metrics.add("op_p50_us", median(p50s), "us", ops);
    metrics.add("op_p99_us", median(p99s), "us", ops);
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else if (correct) {
    // Mean over traced rounds, row by row (every round lists the same rows
    // and runs the same ops). A mean, unlike a median, keeps server + dlv +
    // resolver.self equal to the op time after aggregation.
    std::vector<const Round*> traced;
    for (const Round& round : rounds) {
      if (round.traced) traced.push_back(&round);
    }
    for (std::size_t row = 0; row < traced.front()->layers.size(); ++row) {
      double sum = 0;
      std::size_t samples = 0;
      for (const Round* round : traced) {
        sum += round->layers[row].value;
        samples += round->layers[row].samples;
      }
      const LayerRow& first = traced.front()->layers[row];
      metrics.add(first.name, sum / static_cast<double>(traced.size()),
                  first.unit, samples);
    }
    metrics.add("trace.overhead_ratio",
                median(p50_by_kind[1]) / median(p50_by_kind[0]) - 1.0, "ratio",
                traced.size());
  }

  std::string problem_list;
  for (const std::string& problem : problems) {
    problem_list += (problem_list.empty() ? "" : ", ") + json_quote(problem);
  }
  JsonObject report;
  report.str("workload", args.workload)
      .integer("seed", args.seed)
      .boolean("trace", args.trace)
      .boolean("correct", correct)
      .raw("problems", "[" + problem_list + "]")
      .integer("rounds", rounds.size())
      .integer("attempted", ops)
      .integer("failed", failed)
      .num("error_rate", ratio(static_cast<double>(failed),
                               static_cast<double>(ops)))
      .num("timed_s", static_cast<double>(timed_ns) / 1e9)
      .integer("p99_beyond", min_beyond)
      .raw("observables", observables_json(rounds[0].observed))
      .raw("host", host_json(host))
      .raw("metrics", metrics.json.text());
  std::cout << report.text() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
