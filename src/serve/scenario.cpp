#include "serve/scenario.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/rng.h"
#include "obs/tracer.h"
#include "resolver/shared_store.h"

namespace lookaside::serve {

double quantile_ms(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[index]) / 1000.0;
}

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

void ServeStack::fill_registry_side(ScenarioSummary& summary) const {
  const core::LeakageReport& report = analyzer->report();
  summary.case2_total = report.case2_queries;
  summary.distinct_leaked = report.distinct_leaked_domains;
  summary.leaked_domains = analyzer->leaked_domains();
}

// -- Summaries ----------------------------------------------------------------

ScenarioSummary summarize_served(const std::vector<Served>& served,
                                 const FrontendServer& frontend,
                                 std::uint32_t clients,
                                 std::uint32_t attack_start) {
  ScenarioSummary summary;
  summary.served = served.size();
  summary.coalesce_hits = frontend.stats().value("serve.coalesce.hits");
  summary.coalesce_misses = frontend.stats().value("serve.coalesce.misses");
  summary.overload_drops = frontend.stats().value("serve.overload.drops");
  summary.cpu_drops = frontend.stats().value("serve.cpu.drops");
  summary.max_queue_depth = frontend.max_queue_depth();

  std::vector<std::uint64_t> latencies;
  std::vector<std::uint64_t> benign_latencies;
  latencies.reserve(served.size());
  std::uint64_t first_arrival = 0;
  std::uint64_t last_completion = 0;
  for (const Served& one : served) {
    if (one.overload_drop || one.cpu_drop || one.formerr) continue;
    latencies.push_back(one.latency_us());
    if (one.client < attack_start) benign_latencies.push_back(one.latency_us());
    if (first_arrival == 0 || one.arrival_us < first_arrival) {
      first_arrival = one.arrival_us;
    }
    last_completion = std::max(last_completion, one.completion_us);
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(benign_latencies.begin(), benign_latencies.end());
  summary.p50_ms = quantile_ms(latencies, 0.50);
  summary.p99_ms = quantile_ms(latencies, 0.99);
  summary.benign_p99_ms = quantile_ms(benign_latencies, 0.99);
  const std::uint64_t makespan_us = last_completion - first_arrival;
  summary.qps = makespan_us == 0
                    ? 0.0
                    : static_cast<double>(summary.served) /
                          (static_cast<double>(makespan_us) / 1e6);

  summary.case2_per_client.assign(clients, 0);
  const std::vector<ClientAccount>& accounts = frontend.clients();
  for (std::size_t i = 0; i < accounts.size(); ++i) {
    if (i < summary.case2_per_client.size()) {
      summary.case2_per_client[i] = accounts[i].case2_leaks;
    }
    summary.validation_cpu_us += accounts[i].cpu_spent_us;
  }
  return summary;
}

// -- ServeScenario ------------------------------------------------------------

ServeScenario::ServeScenario(ScenarioOptions options)
    : options_(std::move(options)),
      stack_(options_, options_.tracer, /*metrics=*/nullptr,
             /*shared_store=*/nullptr, /*shard_id=*/0, /*shard_label=*/{}) {}

ServeScenario::~ServeScenario() = default;

ScenarioSummary ServeScenario::run() {
  if (used_) throw std::logic_error("ServeScenario is single-shot");
  used_ = true;

  const workload::ClientMix mix(options_.mix);
  const std::vector<Served> served =
      stack_.frontend->run(encode_schedule(mix.generate(stack_.world->universe())));

  ScenarioSummary summary = summarize_served(
      served, *stack_.frontend, options_.mix.clients, mix.first_attacker());
  stack_.fill_registry_side(summary);
  return summary;
}

ScenarioSummary ServeScenario::run_sequential_reference() {
  if (used_) throw std::logic_error("ServeScenario is single-shot");
  used_ = true;

  const workload::ClientMix mix(options_.mix);
  const std::vector<workload::ClientQuery> schedule =
      mix.generate(stack_.world->universe());

  ScenarioSummary summary;
  summary.served = schedule.size();
  summary.case2_per_client.assign(options_.mix.clients, 0);

  std::vector<std::uint64_t> latencies;
  latencies.reserve(schedule.size());
  std::uint64_t last_completion = 0;
  for (const workload::ClientQuery& query : schedule) {
    const std::uint64_t before = stack_.case2();
    const std::uint64_t start_us = stack_.clock.now_us();
    const resolver::ResolveResult result =
        stack_.resolver->resolve({query.name, query.type});
    (void)result;
    const std::uint64_t cost_us = stack_.clock.now_us() - start_us;
    latencies.push_back(cost_us);
    last_completion = std::max(last_completion, query.time_us + cost_us);
    if (query.client < summary.case2_per_client.size()) {
      summary.case2_per_client[query.client] += stack_.case2() - before;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  summary.p50_ms = quantile_ms(latencies, 0.50);
  summary.p99_ms = quantile_ms(latencies, 0.99);
  const std::uint64_t first_arrival =
      schedule.empty() ? 0 : schedule.front().time_us;
  const std::uint64_t makespan_us =
      last_completion > first_arrival ? last_completion - first_arrival : 0;
  summary.qps = makespan_us == 0
                    ? 0.0
                    : static_cast<double>(summary.served) /
                          (static_cast<double>(makespan_us) / 1e6);
  stack_.fill_registry_side(summary);
  return summary;
}

}  // namespace lookaside::serve
