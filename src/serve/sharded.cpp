#include "serve/sharded.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "engine/sweep.h"

namespace lookaside::serve {

namespace {

using WallClock = std::chrono::steady_clock;

double ms_since(WallClock::time_point start) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - start)
      .count();
}

// Ring-point / key domains are separated by fixed tags so a client key can
// never collide with a ring point by construction.
constexpr std::uint64_t kRingTag = 0xC0115157ULL;    // ring points
constexpr std::uint64_t kClientTag = 0xC11E57ULL;    // client keys
constexpr std::uint64_t kNameTag = 0x9A3EBA5EULL;    // qname keys
constexpr std::uint32_t kVirtualNodes = 64;          // ring points per shard

}  // namespace

const char* route_name(ShardRoute route) {
  return route == ShardRoute::kClient ? "client" : "qname";
}

std::optional<ShardRoute> parse_route(std::string_view text) {
  if (text == "client") return ShardRoute::kClient;
  if (text == "qname") return ShardRoute::kQname;
  return std::nullopt;
}

// -- ShardRouter --------------------------------------------------------------

ShardRouter::ShardRouter(std::uint32_t shards, ShardRoute route)
    : shards_(std::max<std::uint32_t>(shards, 1)), route_(route) {
  ring_.reserve(static_cast<std::size_t>(shards_) * kVirtualNodes);
  for (std::uint32_t shard = 0; shard < shards_; ++shard) {
    const std::uint64_t shard_base = engine::shard_seed(kRingTag, shard);
    for (std::uint32_t vnode = 0; vnode < kVirtualNodes; ++vnode) {
      ring_.emplace_back(engine::shard_seed(shard_base, vnode), shard);
    }
  }
  // Ties (astronomically unlikely) break by shard id so the ring is a pure
  // function of the shard count regardless of insertion order.
  std::sort(ring_.begin(), ring_.end());
}

std::uint32_t ShardRouter::lookup(std::uint64_t point) const {
  if (shards_ == 1) return 0;
  // First ring point clockwise of the key; wrap past the last point.
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(point, std::uint32_t{0}));
  return it == ring_.end() ? ring_.front().second : it->second;
}

std::uint32_t ShardRouter::shard_for_client(std::uint32_t client) const {
  return lookup(engine::shard_seed(kClientTag, client));
}

std::uint32_t ShardRouter::shard_for_name(const dns::Name& name) const {
  return lookup(engine::shard_seed(kNameTag, name.hash()));
}

std::uint32_t ShardRouter::shard_for(
    const workload::ClientQuery& query) const {
  return route_ == ShardRoute::kClient ? shard_for_client(query.client)
                                       : shard_for_name(query.name);
}

// -- ShardedServeScenario -----------------------------------------------------

ShardedServeScenario::ShardedServeScenario(ShardedOptions options)
    : options_(std::move(options)),
      router_(options_.shards, options_.route) {
  const std::uint32_t shards = router_.shards();
  if (options_.shard_tracers.empty()) options_.shard_tracers.resize(shards);
  if (options_.shard_metrics.empty()) options_.shard_metrics.resize(shards);
  if (options_.shard_tracers.size() != shards) {
    throw std::invalid_argument("shard_tracers must be empty or per-shard");
  }
  if (options_.shard_metrics.size() != shards) {
    throw std::invalid_argument("shard_metrics must be empty or per-shard");
  }
  if (options_.shared_store) {
    store_ = std::make_unique<resolver::SharedProofStore>();
  }
  // World builds dominate setup cost and are shared-nothing, so build the
  // shard stacks on worker threads (write-through into the shared store
  // cannot happen yet — nothing has resolved).
  stacks_.resize(shards);
  const unsigned jobs = options_.jobs == 0 ? shards : options_.jobs;
  engine::for_each_shard(shards, jobs, [&](std::size_t s) {
    stacks_[s] = std::make_unique<ServeStack>(
        options_.base, options_.shard_tracers[s], options_.shard_metrics[s],
        store_.get(), static_cast<std::uint32_t>(s), std::to_string(s));
  });
}

ShardedServeScenario::~ShardedServeScenario() = default;

ShardedSummary ShardedServeScenario::run() {
  if (used_) throw std::logic_error("ShardedServeScenario is single-shot");
  used_ = true;

  const std::uint32_t shards = router_.shards();
  const workload::ClientMix mix(options_.base.mix);
  const std::vector<workload::ClientQuery> schedule =
      mix.generate(stacks_[0]->world->universe());
  const std::uint32_t attack_start = mix.first_attacker();

  // Route every arrival. The global schedule is (time, client, seq)-sorted,
  // so each shard's subsequence is too — submit()'s ordering contract holds
  // in both modes without re-sorting.
  std::vector<std::uint32_t> assignment(schedule.size());
  std::vector<std::vector<workload::ClientQuery>> parts(shards);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::uint32_t shard = router_.shard_for(schedule[i]);
    assignment[i] = shard;
    parts[shard].push_back(schedule[i]);
  }

  ShardedSummary out;
  out.shards.resize(shards);
  std::vector<std::vector<Served>> served(shards);
  const auto serve_start = WallClock::now();
  if (store_ != nullptr) {
    // Deterministic global-arrival-order dispatch: proofs published by an
    // earlier arrival are visible to every later one, independent of which
    // shard serves it (see the header's mode contract).
    const std::vector<WireQuery> wire = encode_schedule(schedule);
    for (std::size_t i = 0; i < wire.size(); ++i) {
      served[assignment[i]].push_back(
          stacks_[assignment[i]]->frontend->submit(wire[i]));
    }
  } else {
    // Shard-private parallel serving: one worker per shard, shared nothing.
    const unsigned jobs = options_.jobs == 0 ? shards : options_.jobs;
    engine::for_each_shard(shards, jobs, [&](std::size_t s) {
      served[s] = stacks_[s]->frontend->run(encode_schedule(parts[s]));
    });
  }
  out.serve_wall_ms = ms_since(serve_start);

  // Per-shard reports and the merged summary, fed in shard-index order.
  const std::uint32_t clients = options_.base.mix.clients;
  SummaryAccumulator pooled(clients, attack_start);
  for (std::uint32_t s = 0; s < shards; ++s) {
    ShardReport& report = out.shards[s];
    report.shard = s;
    report.queries_routed = parts[s].size();
    std::vector<bool> seen(clients, false);
    for (const workload::ClientQuery& query : parts[s]) {
      if (query.client < seen.size() && !seen[query.client]) {
        seen[query.client] = true;
        ++report.clients_routed;
      }
    }
    SummaryAccumulator shard(clients, attack_start);
    for (const Served& one : served[s]) {
      shard.add(one);
      pooled.add(one);
    }
    report.summary = shard.summary();
    stacks_[s]->fill(report.summary);
    if (options_.shard_metrics[s] != nullptr) {
      stacks_[s]->frontend->export_counts(*options_.shard_metrics[s]);
    }
  }
  ScenarioSummary& merged = out.merged;
  merged = pooled.summary();
  for (const ShardReport& report : out.shards) {
    merged.validation_cpu_us += report.summary.validation_cpu_us;
    merged.max_queue_depth =
        std::max(merged.max_queue_depth, report.summary.max_queue_depth);
    merged.case2_total += report.summary.case2_total;
    merged.leaked_domains.insert(report.summary.leaked_domains.begin(),
                                 report.summary.leaked_domains.end());
  }
  merged.distinct_leaked = merged.leaked_domains.size();

  // Structural acceptance: shard accounting must tile the merged totals.
  std::uint64_t served_sum = 0;
  std::uint64_t routed_sum = 0;
  std::uint64_t per_client_sum = 0;
  for (const ShardReport& report : out.shards) {
    served_sum += report.summary.served;
    routed_sum += report.queries_routed;
  }
  for (const std::uint64_t count : merged.case2_per_client) {
    per_client_sum += count;
  }
  out.sums_consistent = served_sum == merged.served &&
                        routed_sum == schedule.size() &&
                        served_sum == schedule.size() &&
                        per_client_sum == merged.case2_total;

  if (store_ != nullptr) out.store = store_->stats();
  return out;
}

}  // namespace lookaside::serve
