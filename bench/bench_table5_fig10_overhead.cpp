// Reproduces Table 5 and Fig. 10: the overhead of the TXT-record remedy in
// response time (s), traffic volume (MB) and issued queries, as a function
// of workload size.
//
// Paper reference (baseline / overhead / ratio):
//   time:   100: 38.16/7.13/18.68%   1k: 270.3/63.3/23.4%
//           10k: 2,324/572/24.6%     100k: 24,119/7,043/29.2%
//   traffic:100: 0.60/0.04/6.67%     ... 100k: 324.9/32.0/9.83%
//   queries:100: 1,001/108/10.79%    ... 100k: 580,127/114,043/19.66%
//
// Shape to match: latency overhead ~19-29% (largest), traffic ~7-10%,
// queries ~11-20%, all growing with N (cache dynamics).
#include <iostream>

#include "bench_util.h"
#include "core/overhead.h"
#include "metrics/csv.h"
#include "metrics/table.h"

int main(int argc, char** argv) {
  using namespace lookaside;

  bench::banner("Table 5 / Fig. 10: overhead of the TXT remedy");
  std::cout << "Remedy methodology per the paper: the resolver issues a TXT\n"
               "lookup per original query, but domains do not serve the\n"
               "record yet (no suppression benefit). Set LOOKASIDE_SCALE to\n"
               "cap N.\n\n";

  bench::ObsSession obs_session(bench::ArgParser(argc, argv).obs());
  bench::ShardObs shard_obs(obs_session, /*primary=*/true);

  const std::uint64_t max_n =
      std::min<std::uint64_t>(bench::max_scale(100'000), 100'000);
  const std::vector<std::uint64_t> ladder = bench::n_ladder(max_n);

  metrics::Table table({"#Domains", "Time base (s)", "Time ovh (s)", "Time %",
                        "MB base", "MB ovh", "MB %", "Queries base",
                        "Queries ovh", "Queries %"});
  metrics::CsvWriter csv({"n", "time_base_s", "time_overhead_s", "mb_base",
                          "mb_overhead", "queries_base", "queries_overhead"});

  for (const std::uint64_t n : ladder) {
    core::UniverseExperiment::Options options;
    // Trace only the largest size; the stream then covers the baseline run
    // followed by the remedy run of that row.
    if (n == ladder.back()) options.tracer = shard_obs.tracer();
    const core::OverheadRow row =
        core::measure_overhead(n, core::RemedyMode::kTxt, options);
    table.row()
        .cell(n)
        .cell(row.baseline.response_seconds, 2)
        .cell(row.time_overhead(), 2)
        .percent_cell(row.time_ratio())
        .cell(row.baseline.megabytes, 2)
        .cell(row.traffic_overhead(), 2)
        .percent_cell(row.traffic_ratio())
        .cell(row.baseline.queries)
        .cell(row.query_overhead())
        .percent_cell(row.query_ratio());
    csv.add_row({std::to_string(n),
                 metrics::Table::fixed(row.baseline.response_seconds, 3),
                 metrics::Table::fixed(row.time_overhead(), 3),
                 metrics::Table::fixed(row.baseline.megabytes, 3),
                 metrics::Table::fixed(row.traffic_overhead(), 3),
                 std::to_string(row.baseline.queries),
                 std::to_string(row.query_overhead())});
    std::cout << "  [done] N=" << metrics::Table::with_commas(n) << "\n";
    std::cout.flush();
  }

  bench::banner("Table 5 (measured)");
  table.print(std::cout);

  bench::banner("Fig. 10 series (CSV)");
  csv.write(std::cout);

  std::cout << "\nPaper's Table 5: time ratios 18.68%->29.20%, traffic\n"
               "6.67%->9.83%, queries 10.79%->19.66% from 100 to 100k.\n";

  shard_obs.merge_into(obs_session);
  obs_session.finish(std::cout);
  return 0;
}
