// Cache-pressure leakage study: long-horizon TTL churn under a swept cache
// size cap (DESIGN.md §4f).
//
// The paper's suppression result (Figs. 8-9) assumes the aggressive NSEC
// cache keeps every denial proof it ever validated. Production resolvers do
// not: BIND's max-cache-size and Unbound's msg-cache-size/rrset-cache-size
// bound cache memory, and under pressure the eviction clock throws NSEC
// proofs out with everything else. Every evicted proof re-opens the paper's
// Case-2 channel — the next browse of a covered domain sends a fresh DLV
// query instead of being suppressed locally. This driver quantifies that:
// one browsing population revisits the top-N domains for several rounds
// with TTL churn between rounds (entries expire and are re-validated), and
// the cache byte cap sweeps from unbounded down to starvation. Reported per
// cap: Case-2 query volume, distinct leaked domains, the lifecycle counters
// (evicted / evicted.nsec / expired_swept) and the cache's byte telemetry.
//
// Contracts checked before exit (nonzero on violation):
//   - capped cells end the run with cache.bytes <= cap, evictions > 0;
//   - Case-2 leakage is monotone: a smaller cap never leaks less;
//   - the unbounded cell never evicts.
//
// Flags: --smoke (tiny run for CI), --rounds=R / --top=N (strict-numeric
// overrides, bench::parse_u64_flag), --out=PATH (default BENCH_cache.json),
// --jobs N (cap grid shards across workers; output byte-identical for any
// jobs value), plus the shared observability flags from bench_util.h.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "engine/sweep.h"
#include "metrics/csv.h"
#include "metrics/table.h"

namespace {

struct CellResult {
  std::uint64_t cap_bytes = 0;  // 0 = unbounded
  bool synthesis = false;       // RFC 8198 + verdict-cache leg (§4j)
  std::uint64_t case2_queries = 0;
  std::uint64_t distinct_leaked = 0;
  std::uint64_t dlv_queries = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_peak_bytes = 0;
  std::uint64_t evicted = 0;
  std::uint64_t evicted_nsec = 0;
  std::uint64_t expired_swept = 0;
  std::uint64_t nsec_entries = 0;
  std::uint64_t synthesized = 0;      // denials answered from synthesis
  std::uint64_t negative_elided = 0;  // exact negatives skipped (covered)
  std::uint64_t rsa_skipped = 0;      // verdict-cache RSA verifies saved
  double virtual_seconds = 0;
};

CellResult run_cell(std::uint64_t cap_bytes, bool synthesis,
                    std::uint64_t top_n, std::uint64_t rounds,
                    std::uint64_t universe, lookaside::obs::Tracer* tracer) {
  using namespace lookaside;

  core::UniverseExperiment::Options options;
  options.universe_size = universe;
  options.resolver_config = resolver::ResolverConfig::bind_yum();
  options.resolver_config.max_cache_bytes = cap_bytes;
  if (synthesis) {
    options.resolver_config.aggressive_synthesis = true;
    options.resolver_config.verdict_cache_entries =
        resolver::ResolverConfig::kDefaultVerdictCacheEntries;
  }
  options.tracer = tracer;
  core::UniverseExperiment experiment(options);

  // One round browses the top-N in rank order; the inter-round gap is
  // tuned against the registry's 3600 s TTLs so each generation of cached
  // proofs expires about two rounds after it was stored — the sweep and
  // the eviction clock both stay busy for the whole horizon.
  constexpr double kInterRoundGapSeconds = 2'100.0;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (std::uint64_t rank = 1; rank <= top_n; ++rank) {
      (void)experiment.stub().visit(
          experiment.world().universe().domain_at(rank));
    }
    if (round + 1 < rounds) {
      experiment.clock().advance_seconds(kInterRoundGapSeconds);
    }
  }

  const core::LeakageReport report = experiment.analyzer().report();
  const resolver::ResolverCache& cache = experiment.resolver().cache();
  CellResult cell;
  cell.cap_bytes = cap_bytes;
  cell.synthesis = synthesis;
  cell.case2_queries = report.case2_queries;
  cell.distinct_leaked = report.distinct_leaked_domains;
  cell.dlv_queries = report.dlv_queries;
  cell.cache_bytes = cache.bytes();
  cell.cache_peak_bytes = cache.peak_bytes();
  cell.evicted = cache.counters().value("cache.evicted");
  cell.evicted_nsec = cache.counters().value("cache.evicted.nsec");
  cell.expired_swept = cache.counters().value("cache.expired_swept");
  cell.nsec_entries =
      cache.nsec_count(options.resolver_config.dlv_domain);
  cell.synthesized =
      experiment.resolver().stats().value("dlv.suppressed.synthesized") +
      experiment.resolver().stats().value("cache.synth_answer");
  cell.negative_elided =
      experiment.resolver().stats().value("cache.negative_elided");
  cell.rsa_skipped =
      experiment.resolver().validator().counters().value(
          "verdict.rsa_skipped");
  cell.virtual_seconds = experiment.clock().now_seconds();
  return cell;
}

std::string cap_label(std::uint64_t cap_bytes) {
  if (cap_bytes == 0) return "unbounded";
  if (cap_bytes % (1024 * 1024) == 0) {
    return std::to_string(cap_bytes / (1024 * 1024)) + " MiB";
  }
  if (cap_bytes % 1024 == 0) return std::to_string(cap_bytes / 1024) + " KiB";
  return std::to_string(cap_bytes) + " B";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lookaside;

  const bench::ArgParser args(argc, argv, {"top", "rounds"});
  const bool smoke = args.smoke();
  const std::string out_path = args.out("BENCH_cache.json");

  bench::banner("Cache-pressure leakage study: byte cap x TTL churn");
  std::cout << "Workload: " << (smoke ? "smoke" : "full")
            << " TTL-churn browse (rounds of top-N revisits with a 2100 s\n"
               "gap against 3600 s registry TTLs), BIND yum defaults (DLV +\n"
               "aggressive NSEC caching), cache byte cap sweeping down from\n"
               "unbounded. Set LOOKASIDE_SCALE to cap N.\n";

  bench::ObsSession obs_session(args.obs());
  // The leak ledger is not optional here: the cap -> Case-2 curve is only
  // interpretable with the per-cause breakdown (cold-miss vs ttl-expiry vs
  // eviction vs nsec-gap), so every cell carries a ledger and the JSON
  // gains a "causes" object whose counts must sum to case2_queries.
  obs_session.enable_ledger();

  // Grid tuning: the unbounded footprint at the default scale is a few
  // hundred KiB; the capped rungs sit at roughly 1/2, 1/8 and 1/32 of it
  // so the smallest rung is genuinely starved. --top/--rounds override the
  // workload (strict numeric parses).
  const std::uint64_t top_n =
      args.numeric("top", smoke ? 250 : bench::max_scale(2'000));
  const std::uint64_t rounds = args.numeric("rounds", smoke ? 3 : 4);
  const std::uint64_t universe = std::max<std::uint64_t>(top_n * 5, 10'000);
  const std::vector<std::uint64_t> caps =
      smoke ? std::vector<std::uint64_t>{0, 48 * 1024, 16 * 1024, 6 * 1024}
            : std::vector<std::uint64_t>{0, 256 * 1024, 64 * 1024, 16 * 1024};

  metrics::Table table({"Synthesis", "Cache cap", "DLV queries",
                        "Case-2 queries", "Distinct leaked", "Evicted",
                        "Evicted NSEC", "Swept", "Synthesized",
                        "RSA skipped", "End bytes"});
  metrics::CsvWriter csv({"synthesis", "cap_bytes", "dlv_queries",
                          "case2_queries", "distinct_leaked", "evicted",
                          "evicted_nsec", "expired_swept", "cache_peak_bytes",
                          "cache_bytes", "nsec_entries", "synthesized",
                          "negative_elided", "rsa_skipped"});

  // Two legs over the same cap sweep: the paper-era configuration (leg 0,
  // byte-identical to the v2 study) and the §4j production configuration
  // with RFC 8198 synthesis + the verdict cache on (leg 1). Cells are
  // leg-major, caps descending within each leg.
  struct GridCell {
    CellResult result;
    std::unique_ptr<bench::ShardObs> obs;
  };
  const unsigned jobs = args.jobs();
  std::vector<GridCell> grid =
      engine::run_sharded(caps.size() * 2, jobs, [&](std::size_t index) {
        GridCell cell;
        cell.obs = std::make_unique<bench::ShardObs>(obs_session,
                                                     /*primary=*/index == 0);
        cell.result = run_cell(caps[index % caps.size()],
                               /*synthesis=*/index >= caps.size(), top_n,
                               rounds, universe, cell.obs->tracer());
        return cell;
      });

  bool ok = true;
  const auto fail = [&ok](const std::string& what) {
    std::cout << "  [FAIL] " << what << "\n";
    ok = false;
  };

  std::string cells_json;
  for (std::size_t index = 0; index < grid.size(); ++index) {
    const CellResult& cell = grid[index].result;

    // Ledger acceptance per cell: the trace-derived ledger must agree with
    // the registry-side analyzer exactly, every record must carry a cause
    // tag, and every record's query_id must resolve to a complete span
    // chain that reached the DLV registry.
    const obs::LeakLedger* ledger = grid[index].obs->ledger();
    const obs::SpanTimeline* timeline = grid[index].obs->timeline();
    std::string causes_json = "{";
    if (ledger != nullptr) {
      if (ledger->case2_total() != cell.case2_queries) {
        fail("cap " + cap_label(cell.cap_bytes) + ": ledger counted " +
             std::to_string(ledger->case2_total()) +
             " Case-2 records but the registry saw " +
             std::to_string(cell.case2_queries));
      }
      const std::size_t broken =
          timeline == nullptr
              ? ledger->records().size()
              : obs::broken_leak_chains(*timeline, ledger->records());
      if (broken != 0) {
        fail("cap " + cap_label(cell.cap_bytes) + ": " +
             std::to_string(broken) +
             " ledger records lack a complete query->resolver->DLV chain");
      }
      bool first_cause = true;
      for (const auto& [cause, count] : ledger->cause_totals()) {
        if (!first_cause) causes_json += ",";
        first_cause = false;
        causes_json += "\"" + cause + "\":" + std::to_string(count);
      }
    }
    causes_json += "}";
    const std::uint64_t ledger_case2 =
        ledger == nullptr ? 0 : ledger->case2_total();

    grid[index].obs->merge_into(obs_session);
    table.row()
        .cell(cell.synthesis ? "on" : "off")
        .cell(cap_label(cell.cap_bytes))
        .cell(cell.dlv_queries)
        .cell(cell.case2_queries)
        .cell(cell.distinct_leaked)
        .cell(cell.evicted)
        .cell(cell.evicted_nsec)
        .cell(cell.expired_swept)
        .cell(cell.synthesized)
        .cell(cell.rsa_skipped)
        .cell(cell.cache_bytes);
    csv.add_row({cell.synthesis ? "1" : "0",
                 std::to_string(cell.cap_bytes),
                 std::to_string(cell.dlv_queries),
                 std::to_string(cell.case2_queries),
                 std::to_string(cell.distinct_leaked),
                 std::to_string(cell.evicted),
                 std::to_string(cell.evicted_nsec),
                 std::to_string(cell.expired_swept),
                 std::to_string(cell.cache_peak_bytes),
                 std::to_string(cell.cache_bytes),
                 std::to_string(cell.nsec_entries),
                 std::to_string(cell.synthesized),
                 std::to_string(cell.negative_elided),
                 std::to_string(cell.rsa_skipped)});
    if (!cells_json.empty()) cells_json += ",";
    cells_json += std::string("{\"synthesis\":") +
                  (cell.synthesis ? "true" : "false") +
                  ",\"cap_bytes\":" + std::to_string(cell.cap_bytes) +
                  ",\"dlv_queries\":" + std::to_string(cell.dlv_queries) +
                  ",\"case2_queries\":" + std::to_string(cell.case2_queries) +
                  ",\"distinct_leaked\":" + std::to_string(cell.distinct_leaked) +
                  ",\"evicted\":" + std::to_string(cell.evicted) +
                  ",\"evicted_nsec\":" + std::to_string(cell.evicted_nsec) +
                  ",\"expired_swept\":" + std::to_string(cell.expired_swept) +
                  ",\"cache_peak_bytes\":" +
                  std::to_string(cell.cache_peak_bytes) +
                  ",\"cache_bytes\":" + std::to_string(cell.cache_bytes) +
                  ",\"nsec_entries\":" + std::to_string(cell.nsec_entries) +
                  ",\"synthesized\":" + std::to_string(cell.synthesized) +
                  ",\"negative_elided\":" +
                  std::to_string(cell.negative_elided) +
                  ",\"rsa_skipped\":" + std::to_string(cell.rsa_skipped) +
                  ",\"ledger_case2\":" + std::to_string(ledger_case2) +
                  ",\"causes\":" + causes_json +
                  ",\"virtual_seconds\":" +
                  metrics::Table::fixed(cell.virtual_seconds, 3) + "}";
    std::cout << "  [done] synthesis=" << (cell.synthesis ? "on" : "off")
              << " cap=" << cap_label(cell.cap_bytes)
              << " case2=" << cell.case2_queries
              << " evicted=" << cell.evicted << "\n";
    std::cout.flush();
  }

  bench::banner("Cap sweep (final table)");
  table.print(std::cout);

  bench::banner("Cap series (CSV)");
  csv.write(std::cout);

  // -- Contract checks -------------------------------------------------------
  // Within each leg the grid is descending capacity (unbounded first), so
  // Case-2 leakage must be non-decreasing along it: evicting more proofs
  // can only send more queries to the registry, never fewer.
  const std::size_t leg_size = caps.size();
  for (std::size_t leg = 0; leg < 2; ++leg) {
    const char* leg_name = leg == 0 ? "off" : "on";
    const CellResult& unbounded = grid[leg * leg_size].result;
    if (unbounded.evicted != 0) {
      fail(std::string("synthesis=") + leg_name + " unbounded cell evicted " +
           std::to_string(unbounded.evicted) +
           " entries; cap 0 must never evict");
    }
    for (std::size_t index = 1; index < leg_size; ++index) {
      const CellResult& wider = grid[leg * leg_size + index - 1].result;
      const CellResult& tighter = grid[leg * leg_size + index].result;
      if (tighter.case2_queries < wider.case2_queries) {
        fail(std::string("synthesis=") + leg_name +
             " leakage not monotone: cap " + cap_label(tighter.cap_bytes) +
             " leaked " + std::to_string(tighter.case2_queries) +
             " Case-2 queries < " + std::to_string(wider.case2_queries) +
             " at cap " + cap_label(wider.cap_bytes));
      }
      if (tighter.cap_bytes > 0 && tighter.cache_bytes > tighter.cap_bytes) {
        fail(std::string("synthesis=") + leg_name + " cap " +
             cap_label(tighter.cap_bytes) + " ended the run at " +
             std::to_string(tighter.cache_bytes) + " bytes, over its cap");
      }
      if (tighter.cap_bytes > 0 && tighter.evicted == 0) {
        fail(std::string("synthesis=") + leg_name + " cap " +
             cap_label(tighter.cap_bytes) +
             " never evicted; the rung is not exerting pressure");
      }
    }
  }
  // Cross-leg (§4j acceptance): synthesis must bend the capped curve down —
  // never above the paper-era leg at any cap, strictly below at two or
  // more rungs — and the repeat-heavy workload must actually exercise the
  // verdict cache.
  std::size_t strict_wins = 0;
  for (std::size_t index = 0; index < leg_size; ++index) {
    const CellResult& off = grid[index].result;
    const CellResult& on = grid[leg_size + index].result;
    if (on.case2_queries > off.case2_queries) {
      fail("synthesis leaked MORE at cap " + cap_label(off.cap_bytes) + ": " +
           std::to_string(on.case2_queries) + " > " +
           std::to_string(off.case2_queries));
    }
    if (on.case2_queries < off.case2_queries) ++strict_wins;
    if (on.rsa_skipped == 0) {
      fail("synthesis leg at cap " + cap_label(off.cap_bytes) +
           " never hit the verdict cache on a repeat-heavy workload");
    }
    if (off.rsa_skipped != 0 || off.synthesized != 0 ||
        off.negative_elided != 0) {
      fail("paper-era leg at cap " + cap_label(off.cap_bytes) +
           " shows §4j activity; the off leg must be byte-identical to v2");
    }
  }
  if (strict_wins < 2) {
    fail("synthesis won strictly at only " + std::to_string(strict_wins) +
         " caps; the curve must bend down at >= 2 rungs");
  }

  std::ofstream out(out_path);
  out << "{\"schema\":\"bench_cache_churn/v3\",\"workload\":{\"top_n\":"
      << top_n << ",\"rounds\":" << rounds << ",\"universe\":" << universe
      << ",\"inter_round_gap_s\":2100,\"smoke\":" << (smoke ? "true" : "false")
      << "},\"checks_ok\":" << (ok ? "true" : "false") << ",\"cells\":["
      << cells_json << "]}\n";
  const bool wrote = out.good();
  out.close();
  std::cout << "\n[out] " << out_path << (wrote ? "" : " (WRITE FAILED)")
            << "\n";

  std::cout << "\nReading: the unbounded column reproduces the paper's\n"
               "suppression effect — after the first round nearly every\n"
               "denial is answered from the NSEC cache. Each tighter cap\n"
               "evicts more proofs (evicted.nsec), and every evicted proof\n"
               "converts a would-be suppressed denial into a fresh Case-2\n"
               "query at the registry: the suppression the paper relies on\n"
               "degrades in direct proportion to cache pressure.\n";

  obs_session.finish(std::cout);
  if (!ok) {
    std::cout << "\nFAILED: cache-pressure contract violated (see [FAIL]).\n";
    return 1;
  }
  return wrote ? 0 : 1;
}
