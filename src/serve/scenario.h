// One-stop wiring for multi-client serving experiments: clock, network,
// UniverseWorld, validating resolver, LeakageAnalyzer, FrontendServer and a
// ClientMix schedule, plus the sequential reference model the frontend's
// leak totals are checked against.
//
// The reference model is the falsifier for coalescing: it replays the exact
// same arrival-ordered schedule through a fresh identical world with one
// resolve() per query and no in-flight sharing. Coalescing must not change
// *what leaks* — a coalesced duplicate would have been a resolver cache hit
// in the sequential world, and neither path reaches the DLV registry — so
// the Case-2 totals and the leaked-domain sets of the two runs must be
// identical. bench_serve_throughput exits nonzero when they are not.
//
// The stack itself (ServeStack) is a standalone building block so the
// sharded runner (serve/sharded.h) can own N of them — one per resolver
// shard — without duplicating the wiring.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/leakage.h"
#include "dlv/registry.h"
#include "resolver/config.h"
#include "serve/frontend.h"
#include "workload/client_mix.h"
#include "workload/universe_world.h"

namespace lookaside::obs {
class Tracer;
class MetricsRegistry;
}
namespace lookaside::resolver {
class SharedProofStore;
}

namespace lookaside::serve {

/// Everything that defines one serving run.
struct ScenarioOptions {
  std::uint64_t universe_size = 100'000;
  std::uint64_t seed = 7;
  workload::ClientMixOptions mix;
  FrontendOptions frontend;
  /// DLV registry options (NSEC3 mode, salt, iteration count) passed
  /// through to the UniverseWorld's registry.
  dlv::DlvRegistry::Options dlv;
  resolver::ResolverConfig resolver_config =
      resolver::ResolverConfig::bind_yum();
  obs::Tracer* tracer = nullptr;  // nullable
};

/// Aggregates one run of a scenario (frontend or sequential reference).
struct ScenarioSummary {
  std::uint64_t served = 0;
  std::uint64_t coalesce_hits = 0;
  std::uint64_t coalesce_misses = 0;
  std::uint64_t overload_drops = 0;
  std::uint64_t cpu_drops = 0;          // shed by the per-client CPU budget
  std::uint64_t max_queue_depth = 0;
  std::uint64_t validation_cpu_us = 0;  // modeled validator CPU billed
  double qps = 0.0;      // served / virtual makespan
  double p50_ms = 0.0;   // client-observed virtual latency
  double p99_ms = 0.0;
  double benign_p99_ms = 0.0;  // p99 over non-attacker clients' answers
  std::uint64_t case2_total = 0;            // registry-side Case-2 queries
  std::uint64_t distinct_leaked = 0;
  std::set<std::string> leaked_domains;     // identity check vs reference
  std::vector<std::uint64_t> case2_per_client;

  [[nodiscard]] double coalesce_rate() const {
    const std::uint64_t resolved = coalesce_hits + coalesce_misses;
    return resolved == 0 ? 0.0
                         : static_cast<double>(coalesce_hits) /
                               static_cast<double>(resolved);
  }
};

/// Deterministic quantile over sorted virtual latencies (nearest-rank;
/// integer inputs, so no float-order sensitivity). Exposed so the sharded
/// runner computes merged percentiles with the same estimator.
[[nodiscard]] double quantile_ms(const std::vector<std::uint64_t>& sorted,
                                 double q);

/// Encodes an arrival schedule to wire queries with the deterministic
/// per-query id contract ((client << 10) ^ seq ^ 0x5117).
[[nodiscard]] std::vector<WireQuery> encode_schedule(
    const std::vector<workload::ClientQuery>& schedule);

/// One full serving stack: private clock, network, world, analyzer,
/// resolver and frontend. ServeScenario owns exactly one; the sharded
/// runner owns one per shard (shared-nothing except the optional
/// SharedProofStore attached to the resolver cache).
struct ServeStack {
  /// `shard_id`/`shard_label` feed the shared store's sibling accounting
  /// and the frontend's per-shard metric labels; `shared_store` (nullable)
  /// attaches the cross-shard proof store to this stack's resolver cache.
  ServeStack(const ScenarioOptions& options, obs::Tracer* tracer,
             obs::MetricsRegistry* metrics,
             resolver::SharedProofStore* shared_store,
             std::uint32_t shard_id, const std::string& shard_label);
  ~ServeStack();

  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  /// Registry-side Case-2 count so far (total minus deposited).
  [[nodiscard]] std::uint64_t case2() const;
  /// Copies the registry-side leak fields into `summary`.
  void fill_registry_side(ScenarioSummary& summary) const;

  sim::SimClock clock;
  sim::Network network;
  std::unique_ptr<workload::UniverseWorld> world;
  std::unique_ptr<core::LeakageAnalyzer> analyzer;
  std::unique_ptr<resolver::RecursiveResolver> resolver;
  std::unique_ptr<FrontendServer> frontend;
};

/// Builds the frontend-side summary fields from one run's Served records.
/// Shed queries (SERVFAIL at arrival, zero latency) are excluded from the
/// latency sample — they would otherwise make an overloaded run look fast.
/// Registry-side fields are NOT filled here.
[[nodiscard]] ScenarioSummary summarize_served(
    const std::vector<Served>& served, const FrontendServer& frontend,
    std::uint32_t clients, std::uint32_t attack_start);

/// Owns one full serving stack for one run (single-shot: build, run, read).
class ServeScenario {
 public:
  explicit ServeScenario(ScenarioOptions options);
  ~ServeScenario();

  /// Generates the ClientMix schedule, encodes it to wire, and serves it
  /// through the coalescing frontend.
  [[nodiscard]] ScenarioSummary run();

  /// Serves the identical schedule with one resolve() per query and no
  /// coalescing, on this scenario's (fresh) stack. Build a separate
  /// ServeScenario from the same options to compare against run().
  [[nodiscard]] ScenarioSummary run_sequential_reference();

  [[nodiscard]] FrontendServer& frontend() { return *stack_.frontend; }
  [[nodiscard]] workload::UniverseWorld& world() { return *stack_.world; }
  [[nodiscard]] sim::Network& network() { return stack_.network; }

 private:
  ScenarioOptions options_;
  ServeStack stack_;
  bool used_ = false;
};

}  // namespace lookaside::serve
