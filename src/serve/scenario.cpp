#include "serve/scenario.h"

#include <algorithm>

#include "crypto/rng.h"
#include "obs/tracer.h"
#include "resolver/shared_store.h"

namespace lookaside::serve {

namespace {

/// Deterministic quantile over sorted virtual latencies (nearest-rank;
/// integer inputs, so no float-order sensitivity).
double quantile_ms(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[index]) / 1000.0;
}

}  // namespace

std::vector<WireQuery> encode_schedule(
    const std::vector<workload::ClientQuery>& schedule) {
  std::vector<WireQuery> wire;
  wire.reserve(schedule.size());
  for (const workload::ClientQuery& query : schedule) {
    // Deterministic per-query id: the stub side of the determinism contract.
    const auto id = static_cast<std::uint16_t>(
        (query.client << 10) ^ query.seq ^ 0x5117);
    wire.push_back({query.time_us, query.client, query.seq,
                    dns::encode_message(dns::Message::make_query(
                        id, query.name, query.type,
                        /*recursion_desired=*/true, /*dnssec_ok=*/true))});
  }
  return wire;
}

// -- ServeStack ---------------------------------------------------------------

ServeStack::ServeStack(const ScenarioOptions& options, obs::Tracer* tracer,
                       obs::MetricsRegistry* metrics,
                       resolver::SharedProofStore* shared_store,
                       std::uint32_t shard_id, const std::string& shard_label)
    : network(clock) {
  workload::WorldOptions world_options;
  world_options.universe.size = options.universe_size;
  world_options.universe.seed = options.seed;
  world_options.seed = crypto::derive_seed(options.seed, 0x0F0F);
  world_options.dlv = options.dlv;

  world = std::make_unique<workload::UniverseWorld>(world_options);
  world->registry().attach_clock(clock);
  world->registry().set_store_observations(false);
  analyzer = std::make_unique<core::LeakageAnalyzer>(world->registry());

  resolver = std::make_unique<resolver::RecursiveResolver>(
      network, world->directory(), options.resolver_config);
  resolver->set_root_trust_anchor(world->root_trust_anchor());
  resolver->set_dlv_trust_anchor(world->registry().trust_anchor());
  if (shared_store != nullptr) {
    resolver->attach_shared(shared_store, shard_id);
  }

  frontend = std::make_unique<FrontendServer>(network, *resolver,
                                              options.frontend);
  frontend->set_registry(&world->registry());
  frontend->set_metrics(metrics);
  frontend->set_shard_label(shard_label);

  if (tracer != nullptr) {
    tracer->attach_clock(clock);
    tracer->attach_network(network);
    world->set_tracer(tracer);
    resolver->set_tracer(tracer);
    frontend->set_tracer(tracer);
  }
}

ServeStack::~ServeStack() = default;

std::uint64_t ServeStack::case2() const {
  return world->registry().total_queries() -
         world->registry().queries_with_record();
}

void ServeStack::fill(ScenarioSummary& summary) const {
  const core::LeakageReport& report = analyzer->report();
  summary.case2_total = report.case2_queries;
  summary.distinct_leaked = report.distinct_leaked_domains;
  summary.leaked_domains = analyzer->leaked_domains();
  summary.validation_cpu_us = frontend->totals().cpu_spent_us;
  summary.max_queue_depth = frontend->max_queue_depth();
}

// -- Summaries ----------------------------------------------------------------

SummaryAccumulator::SummaryAccumulator(std::uint32_t clients,
                                       std::uint32_t attack_start)
    : attack_start_(attack_start) {
  counts_.case2_per_client.assign(clients, 0);
}

void SummaryAccumulator::add(const Served& served) {
  counts_.served += 1;
  if (served.client < counts_.case2_per_client.size()) {
    counts_.case2_per_client[served.client] += served.case2_leaks;
  }
  if (served.overload_drop) counts_.overload_drops += 1;
  if (served.cpu_drop) counts_.cpu_drops += 1;
  if (served.overload_drop || served.cpu_drop || served.formerr) return;
  if (served.coalesced) {
    counts_.coalesce_hits += 1;
  } else {
    counts_.coalesce_misses += 1;
  }
  latencies_.push_back(served.latency_us());
  if (served.client < attack_start_) {
    benign_latencies_.push_back(served.latency_us());
  }
  first_arrival_ = std::min(first_arrival_, served.arrival_us);
  last_completion_ = std::max(last_completion_, served.completion_us);
}

ScenarioSummary SummaryAccumulator::summary() const {
  ScenarioSummary summary = counts_;
  std::vector<std::uint64_t> latencies = latencies_;
  std::vector<std::uint64_t> benign_latencies = benign_latencies_;
  std::sort(latencies.begin(), latencies.end());
  std::sort(benign_latencies.begin(), benign_latencies.end());
  summary.p50_ms = quantile_ms(latencies, 0.50);
  summary.p99_ms = quantile_ms(latencies, 0.99);
  summary.benign_p99_ms = quantile_ms(benign_latencies, 0.99);
  const std::uint64_t makespan_us =
      latencies.empty() ? 0 : last_completion_ - first_arrival_;
  summary.qps = makespan_us == 0
                    ? 0.0
                    : static_cast<double>(summary.served) /
                          (static_cast<double>(makespan_us) / 1e6);
  return summary;
}

// -- Sequential reference -----------------------------------------------------

ScenarioSummary sequential_reference(const ScenarioOptions& options) {
  ServeStack stack(options, /*tracer=*/nullptr, /*metrics=*/nullptr,
                   /*shared_store=*/nullptr, /*shard_id=*/0,
                   /*shard_label=*/{});
  // attack_start 0: the reference has no benign/attacker split.
  SummaryAccumulator accumulator(options.mix.clients, /*attack_start=*/0);
  for (const workload::ClientQuery& query :
       workload::ClientMix(options.mix).generate(stack.world->universe())) {
    const std::uint64_t before = stack.case2();
    const std::uint64_t start_us = stack.clock.now_us();
    (void)stack.resolver->resolve({query.name, query.type});
    Served served;
    served.client = query.client;
    served.arrival_us = query.time_us;
    served.completion_us = query.time_us + (stack.clock.now_us() - start_us);
    served.case2_leaks = stack.case2() - before;
    accumulator.add(served);
  }
  ScenarioSummary summary = accumulator.summary();
  stack.fill(summary);
  return summary;
}

}  // namespace lookaside::serve
