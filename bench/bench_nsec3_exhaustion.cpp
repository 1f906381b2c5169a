// NSEC3 proof-of-nonexistence CPU exhaustion (DESIGN.md §4h): a cache-
// busting client population forces the validator to spend an iterated
// SHA-1 chain on every DLV denial, and the grid measures how the modeled
// validation CPU and the benign clients' latency respond under three
// resolver postures:
//
//   attack     pre-RFC-9276 resolver (no iteration cap) with no admission
//              control — the undefended curve; validation CPU per query
//              must grow with the registry's NSEC3 iteration count.
//   rfc9276    iteration cap 150 with downgrade-to-insecure: over-cap
//              denials are accepted *unhashed*, so the validator never
//              pays the attacker's bill.
//   admission  per-client validator-CPU token buckets at the frontend:
//              clients that burn through their budget are shed with
//              SERVFAIL, so the attackers' cache-busting streams stop
//              renting the hash loop while benign clients stay answered.
//
// Every cell also re-checks the leak contract under the new denial type:
// the trace-derived ledger must equal the registry-side Case-2 count and
// every leak record must have a complete query -> resolver -> DLV span
// chain. All figures are virtual-time quantities, so BENCH_nsec3.json is
// byte-identical for any --jobs value.
//
// Flags: --jobs N (shard the cells), --smoke (smaller grid for CI),
// --out=PATH (default BENCH_nsec3.json).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/sweep.h"
#include "metrics/table.h"
#include "serve/sharded.h"

namespace {

using namespace lookaside;

std::string fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

/// One resolver/frontend posture of the sweep.
struct Mode {
  const char* name;
  std::uint16_t iteration_cap;     // 0 = no cap (pre-RFC-9276)
  std::uint64_t cpu_budget_us_per_s;  // 0 = no admission control
  std::uint64_t cpu_burst_us;
};

constexpr Mode kModes[] = {
    {"attack", 0, 0, 0},
    {"rfc9276", 150, 0, 0},
    // Budget sizing: a benign client's cold misses are bounded by the small
    // Zipf head (a few denials per client per TTL), while an attacker's
    // cache-busting stream pays one full denial per query. 9 ms of validator
    // CPU per virtual second (30 ms burst) sits between the two demand rates
    // at the top iteration rung.
    {"admission", 0, 9'000, 30'000},
};

/// One grid cell: (iterations, attack fraction, mode) served through a
/// fresh world, with per-population (benign vs attacker) accounting.
struct CellResult {
  std::uint16_t iterations = 0;
  double attack_fraction = 0.0;
  std::string mode;
  std::uint64_t queries = 0;
  serve::ScenarioSummary summary;
  std::uint64_t benign_cpu_drops = 0;
  std::uint64_t attacker_cpu_drops = 0;
  std::uint64_t benign_answered = 0;
  std::uint64_t benign_queries = 0;

  [[nodiscard]] double cpu_per_query_us() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(summary.validation_cpu_us) /
                              static_cast<double>(queries);
  }
};

serve::ScenarioOptions cell_options(std::uint16_t iterations, double fraction,
                                    const Mode& mode, bool smoke,
                                    std::size_t index) {
  serve::ScenarioOptions options;
  options.universe_size = smoke ? 2'000 : 6'000;
  options.seed = 11 + index;  // pure function of the cell index
  options.mix.clients = 8;
  options.mix.queries_per_client = smoke ? 25 : 60;
  options.mix.seed = 31 + index;
  // A small popular head keeps the benign population cache-friendly (few
  // distinct names, so few denial validations); the attackers ignore it
  // and draw uniformly over the whole universe.
  options.mix.zipf_support = 12;
  options.mix.mean_gap_us = 25'000ULL * options.mix.clients;
  options.mix.attack_fraction = fraction;

  options.dlv.nsec3_enabled = true;
  options.dlv.nsec3_iterations = iterations;
  options.dlv.nsec3_salt = {0xab, 0xcd, 0xef, 0x01};

  options.resolver_config = resolver::ResolverConfig::bind_yum();
  // 2 µs per SHA-1 invocation: large enough that a 1024-iteration chain
  // (~2 ms per probe) dominates a denial, small enough that one denial
  // stays below a round-trip.
  options.resolver_config.nsec3_hash_cost_ns = 2'000;
  options.resolver_config.nsec3_iteration_cap = mode.iteration_cap;
  options.resolver_config.nsec3_strict = false;
  options.frontend.cpu_budget_us_per_s = mode.cpu_budget_us_per_s;
  options.frontend.cpu_burst_us = mode.cpu_burst_us;
  return options;
}

CellResult run_cell(std::uint16_t iterations, double fraction,
                    const Mode& mode, bool smoke, std::size_t index,
                    obs::Tracer* tracer) {
  CellResult cell;
  cell.iterations = iterations;
  cell.attack_fraction = fraction;
  cell.mode = mode.name;

  serve::ShardedOptions options;
  options.base = cell_options(iterations, fraction, mode, smoke, index);
  options.shard_tracers = {tracer};
  const std::uint32_t attack_start =
      workload::ClientMix(options.base.mix).first_attacker();
  serve::ShardedServeScenario scenario(std::move(options));
  cell.summary = scenario.run().merged;
  cell.queries = cell.summary.served;

  const std::vector<serve::ClientAccount>& accounts =
      scenario.stack(0).frontend->clients();
  for (std::size_t client = 0; client < accounts.size(); ++client) {
    if (client < attack_start) {
      cell.benign_cpu_drops += accounts[client].cpu_drops;
      cell.benign_answered += accounts[client].answered;
      cell.benign_queries += accounts[client].queries;
    } else {
      cell.attacker_cpu_drops += accounts[client].cpu_drops;
    }
  }
  return cell;
}

std::string cell_json(const CellResult& cell, std::uint64_t ledger_case2,
                      const std::string& causes_json, bool ledger_ok) {
  const serve::ScenarioSummary& s = cell.summary;
  std::string out =
      "    {\"mode\": \"" + cell.mode +
      "\", \"iterations\": " + std::to_string(cell.iterations) +
      ", \"attack_fraction\": " + fixed(cell.attack_fraction, 2) +
      ", \"queries\": " + std::to_string(cell.queries) +
      ",\n     \"validation_cpu_us\": " + std::to_string(s.validation_cpu_us) +
      ", \"cpu_per_query_us\": " + fixed(cell.cpu_per_query_us(), 3) +
      ",\n     \"qps\": " + fixed(s.qps, 2) +
      ", \"p50_ms\": " + fixed(s.p50_ms, 3) +
      ", \"p99_ms\": " + fixed(s.p99_ms, 3) +
      ", \"benign_p99_ms\": " + fixed(s.benign_p99_ms, 3) +
      ",\n     \"overload_drops\": " + std::to_string(s.overload_drops) +
      ", \"cpu_drops\": " + std::to_string(s.cpu_drops) +
      ", \"benign_cpu_drops\": " + std::to_string(cell.benign_cpu_drops) +
      ", \"attacker_cpu_drops\": " + std::to_string(cell.attacker_cpu_drops) +
      ",\n     \"benign_answered\": " + std::to_string(cell.benign_answered) +
      ", \"benign_queries\": " + std::to_string(cell.benign_queries) +
      ", \"max_queue_depth\": " + std::to_string(s.max_queue_depth) +
      ",\n     \"case2_total\": " + std::to_string(s.case2_total) +
      ", \"distinct_leaked\": " + std::to_string(s.distinct_leaked) +
      ",\n     \"ledger\": {\"case2\": " + std::to_string(ledger_case2) +
      ", \"causes\": " + causes_json +
      ", \"chains_ok\": " + (ledger_ok ? "true" : "false") + "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lookaside;

  const bench::ArgParser args(argc, argv);
  const bool smoke = args.smoke();
  const std::string out_path = args.out("BENCH_nsec3.json");
  const unsigned jobs = args.jobs();

  bench::banner("NSEC3 CPU exhaustion: undefended vs RFC 9276 vs admission");
  std::cout << "Each cell serves a ClientMix with a cache-busting attacker\n"
               "population against a DLV registry whose zone signs denials\n"
               "with NSEC3 at the given iteration count. Postures: attack\n"
               "(no cap, no admission), rfc9276 (cap 150, downgrade to\n"
               "insecure), admission (per-client validator-CPU buckets).\n"
               "--jobs N shards the cells, --smoke shrinks them for CI.\n";

  const std::vector<std::uint16_t> iteration_grid =
      smoke ? std::vector<std::uint16_t>{32, 512}
            : std::vector<std::uint16_t>{16, 128, 1024};
  const std::vector<double> fraction_grid = {0.5};

  struct CellSpec {
    std::uint16_t iterations;
    double fraction;
    Mode mode;
  };
  std::vector<CellSpec> grid;
  for (const std::uint16_t iterations : iteration_grid) {
    for (const double fraction : fraction_grid) {
      for (const Mode& mode : kModes) {
        grid.push_back({iterations, fraction, mode});
      }
    }
  }

  bench::ObsSession obs_session(args.obs());
  // The ledger stays on: NSEC3 introduces a new denial path into the DLV
  // exchange, and every cell must show the trace-derived ledger agreeing
  // with the registry (the "-nsec3" cause family sums into the same
  // Case-2 total).
  obs_session.enable_ledger();

  struct GridCell {
    CellResult result;
    std::unique_ptr<bench::ShardObs> obs;
  };
  std::vector<GridCell> cells =
      engine::run_sharded(grid.size(), jobs, [&](std::size_t i) {
        GridCell cell;
        cell.obs = std::make_unique<bench::ShardObs>(obs_session,
                                                     /*primary=*/i == 0);
        cell.result = run_cell(grid[i].iterations, grid[i].fraction,
                               grid[i].mode, smoke, i, cell.obs->tracer());
        return cell;
      });

  metrics::Table table({"Mode", "Iter", "CPU us/q", "Benign p99", "CPU drops",
                        "Benign drops", "Case-2", "Ledger"});
  bool ledger_ok = true;
  std::vector<std::string> cell_jsons;
  for (GridCell& grid_cell : cells) {
    const CellResult& cell = grid_cell.result;

    const obs::LeakLedger* ledger = grid_cell.obs->ledger();
    const obs::SpanTimeline* timeline = grid_cell.obs->timeline();
    const std::uint64_t ledger_case2 =
        ledger == nullptr ? 0 : ledger->case2_total();
    bool cell_ledger_ok = true;
    if (ledger_case2 != cell.summary.case2_total) {
      std::cout << "[nsec3] FAIL: mode=" << cell.mode << " iter="
                << cell.iterations << " ledger saw " << ledger_case2
                << " Case-2 records, registry saw " << cell.summary.case2_total
                << "\n";
      cell_ledger_ok = false;
    }
    const std::size_t broken =
        ledger == nullptr ? 0
        : timeline == nullptr
            ? ledger->records().size()
            : obs::broken_leak_chains(*timeline, ledger->records());
    if (broken != 0) {
      std::cout << "[nsec3] FAIL: mode=" << cell.mode << " iter="
                << cell.iterations << " " << broken
                << " ledger records lack a complete chain\n";
      cell_ledger_ok = false;
    }
    std::string causes_json = "{";
    if (ledger != nullptr) {
      bool first = true;
      for (const auto& [cause, count] : ledger->cause_totals()) {
        if (!first) causes_json += ", ";
        first = false;
        causes_json += "\"" + cause + "\": " + std::to_string(count);
      }
    }
    causes_json += "}";
    ledger_ok = ledger_ok && cell_ledger_ok;
    grid_cell.obs->merge_into(obs_session);

    table.row()
        .cell(cell.mode)
        .cell(std::to_string(cell.iterations))
        .cell(fixed(cell.cpu_per_query_us(), 1))
        .cell(fixed(cell.summary.benign_p99_ms, 1))
        .cell(std::to_string(cell.summary.cpu_drops))
        .cell(std::to_string(cell.benign_cpu_drops))
        .cell(std::to_string(cell.summary.case2_total))
        .cell(cell_ledger_ok ? "ok" : "MISMATCH");
    cell_jsons.push_back(
        cell_json(cell, ledger_case2, causes_json, cell_ledger_ok));
  }
  table.print(std::cout);

  // ---- Contract checks: the exhaustion story must actually hold. --------
  const auto find_cell = [&](const char* mode,
                             std::uint16_t iterations) -> const CellResult* {
    for (const GridCell& grid_cell : cells) {
      if (grid_cell.result.mode == mode &&
          grid_cell.result.iterations == iterations) {
        return &grid_cell.result;
      }
    }
    return nullptr;
  };
  const std::uint16_t min_iter = iteration_grid.front();
  const std::uint16_t max_iter = iteration_grid.back();
  bool contract_ok = true;

  // (1) Undefended validation CPU per query grows with the iteration count.
  double prev_cpu = -1.0;
  for (const std::uint16_t iterations : iteration_grid) {
    const CellResult* cell = find_cell("attack", iterations);
    if (cell == nullptr || cell->cpu_per_query_us() <= prev_cpu) {
      std::cout << "[nsec3] FAIL: undefended CPU/query is not increasing in "
                   "iterations (iter=" << iterations << ")\n";
      contract_ok = false;
      break;
    }
    prev_cpu = cell->cpu_per_query_us();
  }

  const CellResult* attack_max = find_cell("attack", max_iter);
  const CellResult* attack_min = find_cell("attack", min_iter);
  const CellResult* rfc_max = find_cell("rfc9276", max_iter);
  const CellResult* adm_max = find_cell("admission", max_iter);
  if (attack_max == nullptr || attack_min == nullptr || rfc_max == nullptr ||
      adm_max == nullptr) {
    std::cout << "[nsec3] FAIL: grid is missing a contract cell\n";
    contract_ok = false;
  } else {
    // (2) RFC 9276 refuses the over-cap bill: the capped resolver spends a
    // fraction of the undefended CPU at the top rung.
    if (rfc_max->summary.validation_cpu_us * 4 >
        attack_max->summary.validation_cpu_us) {
      std::cout << "[nsec3] FAIL: rfc9276 CPU "
                << rfc_max->summary.validation_cpu_us
                << "us is not <= 1/4 of undefended "
                << attack_max->summary.validation_cpu_us << "us\n";
      contract_ok = false;
    }
    // (3) Admission control sheds the attackers, not the benign clients,
    // and cuts the total validator CPU below the undefended run.
    if (adm_max->attacker_cpu_drops == 0 || adm_max->benign_cpu_drops != 0) {
      std::cout << "[nsec3] FAIL: admission shed " << adm_max->benign_cpu_drops
                << " benign / " << adm_max->attacker_cpu_drops
                << " attacker queries (want 0 benign, >0 attacker)\n";
      contract_ok = false;
    }
    if (adm_max->summary.validation_cpu_us >=
        attack_max->summary.validation_cpu_us) {
      std::cout << "[nsec3] FAIL: admission CPU "
                << adm_max->summary.validation_cpu_us
                << "us did not drop below undefended "
                << attack_max->summary.validation_cpu_us << "us\n";
      contract_ok = false;
    }
    // (4) Both defenses hold the benign p99 near the low-iteration
    // undefended reference even at the top rung.
    const double reference_p99 = attack_min->summary.benign_p99_ms;
    for (const CellResult* defended : {rfc_max, adm_max}) {
      if (defended->summary.benign_p99_ms > reference_p99 * 2.0) {
        std::cout << "[nsec3] FAIL: " << defended->mode << " benign p99 "
                  << fixed(defended->summary.benign_p99_ms, 3)
                  << "ms exceeds 2x the low-iteration reference "
                  << fixed(reference_p99, 3) << "ms\n";
        contract_ok = false;
      }
    }
  }

  std::string json = "{\n  \"schema\": \"lookaside.bench_nsec3.v1\",\n";
  json += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  json += "  \"iteration_cap\": 150,\n";
  json += "  \"cells\": [\n";
  for (std::size_t i = 0; i < cell_jsons.size(); ++i) {
    json += cell_jsons[i];
    json += (i + 1 < cell_jsons.size()) ? ",\n" : "\n";
  }
  json += "  ],\n  \"contract\": {\"ledger_ok\": " +
          std::string(ledger_ok ? "true" : "false") +
          ", \"contract_ok\": " + (contract_ok ? "true" : "false") + "}\n}\n";

  std::ofstream out(out_path);
  out << json;
  std::cout << "\n[nsec3] wrote " << out_path
            << (out.good() ? "" : " (WRITE FAILED)") << "\n";

  obs_session.finish(std::cout);

  if (!ledger_ok) {
    std::cout << "[nsec3] FAIL: trace-derived ledger disagrees with the "
                 "registry (see above)\n";
    return 1;
  }
  if (!contract_ok) {
    std::cout << "[nsec3] FAIL: the exhaustion/defense contract does not "
                 "hold (see above)\n";
    return 1;
  }
  std::cout << "[nsec3] contract holds: undefended CPU grows with "
               "iterations; both defenses keep the benign population "
               "served\n";
  return 0;
}
