#include "workloads.h"

#include <array>
#include <cmath>

#include "core/experiment.h"
#include "crypto/dnssec_algo.h"
#include "crypto/rng.h"
#include "crypto/rsa.h"
#include "dns/codec.h"
#include "serve/scenario.h"
#include "stats.h"
#include "workload/client_mix.h"

namespace perfbench {

namespace {

using namespace lookaside;

constexpr std::uint64_t kUniverseSize = 1'000'000;
constexpr std::size_t kProbeNames = 4096;
constexpr std::uint64_t kProbeMinNs = 20'000'000;

/// Receives results of timed loops so the compiler cannot discard them.
volatile std::uint64_t g_sink = 0;

bool failure_rcode(dns::RCode rcode) {
  return rcode == dns::RCode::kServFail || rcode == dns::RCode::kFormErr ||
         rcode == dns::RCode::kRefused;
}

/// Fills the counters every resolver stack has.
void resolver_counters(LayerCounters& out, const sim::Network& network,
                       resolver::RecursiveResolver& resolver,
                       const dlv::DlvRegistry& registry) {
  const metrics::CounterSet& net = network.counters();
  out.exchanges = net.value("packets.query");
  out.bytes = net.value("bytes.total");
  out.retries = net.value("retries");
  out.dlv_queries = registry.total_queries();
  out.dlv_case1 = registry.queries_with_record();
  const metrics::CounterSet& cache = resolver.cache().counters();
  out.cache_hits = cache.value("cache.hit");
  out.cache_misses = cache.value("cache.miss");
  out.cache_evicted = cache.value("cache.evicted");
  const metrics::CounterSet& validator = resolver.validator().counters();
  out.rsa_verifies = validator.value("verify.batch_unique");
  out.rsa_skipped = validator.value("verdict.rsa_skipped") +
                    validator.value("verify.batch_deduped");
  out.nsec3_hash_ops = resolver.stats().value("nsec3.hash_ops");
}

/// The registry-side and network-side parts of the pinned outputs.
void leak_observables(Observables& out, const core::LeakageAnalyzer& analyzer,
                      sim::Network& network,
                      resolver::RecursiveResolver& resolver) {
  const core::LeakageReport& report = analyzer.report();
  out.dlv_queries = report.dlv_queries;
  out.case2 = report.case2_queries;
  out.distinct_leaked = report.distinct_leaked_domains;
  Fnv64 digest;
  for (const std::string& domain : analyzer.leaked_domains()) {
    digest.add(domain);
    digest.end_record();
  }
  out.leaked_digest = digest.value();
  out.bytes_total = network.counters().value("bytes.total");
  out.cache_evicted = resolver.cache().counters().value("cache.evicted");
  out.virtual_us = network.clock().now_us();
}

/// Op outcomes by response code, kept as a flat array on the op path.
class RcodeHistogram {
 public:
  void add(dns::RCode rcode) { ++counts_[static_cast<std::size_t>(rcode) & 7]; }
  void fill(std::map<std::string, std::uint64_t>& out) const {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] != 0) {
        out[dns::rcode_name(static_cast<dns::RCode>(i))] = counts_[i];
      }
    }
  }

 private:
  std::array<std::uint64_t, 8> counts_{};
};

/// Mean ns per ResolverCache::find(name, A), cycling over `names`.
double probe_cache(resolver::ResolverCache& cache,
                   const std::vector<const dns::Name*>& names) {
  if (names.empty()) return 0.0;
  std::uint64_t probes = 0;
  std::uint64_t found = 0;
  const std::uint64_t start = now_ns();
  std::uint64_t elapsed = 0;
  do {
    for (const dns::Name* name : names) {
      found += cache.find(*name, dns::RRType::kA) != nullptr ? 1 : 0;
    }
    probes += names.size();
    elapsed = now_ns() - start;
  } while (elapsed < kProbeMinNs);
  g_sink = found;
  return static_cast<double>(elapsed) / static_cast<double>(probes);
}

/// Evenly spaced op indices in [0, ops), at most kProbeNames of them.
std::vector<std::size_t> probe_indices(std::size_t ops) {
  std::vector<std::size_t> out;
  const std::size_t count = std::min(ops, kProbeNames);
  for (std::size_t k = 0; k < count; ++k) out.push_back(k * ops / count);
  return out;
}

// -- cold-topn / warm-zipf -----------------------------------------------------

/// A UniverseExperiment driven one StubClient::visit per op. `names_` holds
/// the distinct names and `order_` the name index each op visits.
class StubWorkload : public Workload {
 public:
  StubWorkload(const StubWorkload&) = delete;
  StubWorkload& operator=(const StubWorkload&) = delete;

  [[nodiscard]] std::size_t round_ops() const override {
    return order_.size();
  }

  bool run_op(std::size_t index) override {
    const std::uint64_t failures_before = failures_;
    const workload::VisitOutcome outcome =
        experiment_.stub().visit(names_[order_[index]]);
    rcodes_.add(outcome.rcode);
    return failures_ != failures_before;
  }

  [[nodiscard]] Observables observe(std::size_t ops) override {
    Observables out;
    out.ops = ops;
    leak_observables(out, experiment_.analyzer(), experiment_.network(),
                     experiment_.resolver());
    rcodes_.fill(out.rcodes);
    return out;
  }

  [[nodiscard]] LayerCounters counters() override {
    LayerCounters out;
    resolver_counters(out, experiment_.network(), experiment_.resolver(),
                      experiment_.world().registry());
    const std::uint64_t stub_exchanges = experiment_.stub().queries_sent();
    out.client_encodes = 2 * stub_exchanges;
    out.upstream_encodes = 2 * (out.exchanges - stub_exchanges);
    return out;
  }

  [[nodiscard]] InvariantReport check(std::size_t ops,
                                      std::size_t failed) override {
    InvariantReport report;
    const std::uint64_t sent = experiment_.stub().queries_sent();
    const Observables seen = observe(ops);
    if (stub_answers_ + stub_timeouts_ != sent) {
      report.ok = false;
      report.detail = "stub queries " + std::to_string(sent) +
                      " != answers + timeouts " +
                      std::to_string(stub_answers_ + stub_timeouts_);
    } else if (seen.case2 > seen.dlv_queries) {
      report.ok = false;
      report.detail = "Case-2 exceeds DLV queries";
    } else if (failed > ops) {
      report.ok = false;
      report.detail = "more failures than ops";
    }
    return report;
  }

  [[nodiscard]] bool install_tracing(SpanLog& log) override {
    return install_timed_endpoints(experiment_.world(), log);
  }

  [[nodiscard]] double cache_probe_ns() override {
    std::vector<const dns::Name*> names;
    for (std::size_t index : probe_indices(round_ops())) {
      names.push_back(&names_[order_[index]]);
    }
    return probe_cache(experiment_.resolver().cache(), names);
  }

  [[nodiscard]] std::vector<SpanLog::MessagePair> client_samples() override {
    std::vector<SpanLog::MessagePair> out;
    for (std::size_t index : probe_indices(round_ops())) {
      dns::Message query = dns::Message::make_query(
          1, names_[order_[index]], dns::RRType::kA,
          /*recursion_desired=*/true, /*dnssec_ok=*/false);
      dns::Message response = experiment_.resolver().handle_query(query);
      out.emplace_back(std::move(query), std::move(response));
    }
    return out;
  }

  [[nodiscard]] double cache_peak_mb() override {
    return static_cast<double>(experiment_.resolver().cache().peak_bytes()) /
           (1024.0 * 1024.0);
  }

 protected:
  explicit StubWorkload(std::uint64_t universe_seed)
      : experiment_(experiment_options(universe_seed)) {
    sim::Network& network = experiment_.network();
    network.add_observer([this](const sim::PacketRecord& record) {
      if (record.is_query || record.from != "recursive") return;
      ++stub_answers_;
      if (failure_rcode(record.rcode)) ++failures_;
    });
    network.add_fault_observer([this](const sim::FaultNotice& notice) {
      if (notice.endpoint != "recursive") return;
      ++stub_timeouts_;
      ++failures_;
    });
  }

  static core::UniverseExperiment::Options experiment_options(
      std::uint64_t universe_seed) {
    core::UniverseExperiment::Options options;
    options.universe_size = kUniverseSize;
    options.seed = universe_seed;
    options.resolver_config = resolver::ResolverConfig::bind_yum();
    options.resolver_config.aggressive_negative_caching = true;
    return options;
  }

  core::UniverseExperiment experiment_;
  std::vector<dns::Name> names_;
  std::vector<std::uint32_t> order_;

 private:
  RcodeHistogram rcodes_;
  std::uint64_t failures_ = 0;
  std::uint64_t stub_answers_ = 0;
  std::uint64_t stub_timeouts_ = 0;
};

/// Ranks 1, 2, 3, ... of a seeded universe: every visit is a never-seen SLD.
class ColdTopN final : public StubWorkload {
 public:
  static constexpr std::size_t kInputs = 6'000;

  explicit ColdTopN(std::uint64_t seed)
      : StubWorkload(crypto::derive_seed(seed, 0xC01D)) {
    const workload::Universe& universe = experiment_.world().universe();
    names_.reserve(kInputs);
    order_.reserve(kInputs);
    for (std::uint64_t rank = 1; rank <= kInputs; ++rank) {
      names_.push_back(universe.domain_at(rank));
      order_.push_back(static_cast<std::uint32_t>(rank - 1));
    }
  }
};

/// Zipf(1/rank) visits over ranks the set-up pass has fully cached.
class WarmZipf final : public StubWorkload {
 public:
  static constexpr std::uint64_t kSupport = 2'000;
  static constexpr std::size_t kInputs = 300'000;

  explicit WarmZipf(std::uint64_t seed)
      : StubWorkload(crypto::derive_seed(seed, 0x3A53)) {
    // The stub hop is the only virtual time a cache hit costs. At 1 us
    // instead of 1 ms, a round of warm visits stays far inside the 1 h
    // record TTLs, so no timed visit meets an expired entry.
    experiment_.network().latency().set_latency_us("recursive", 1);
    const workload::Universe& universe = experiment_.world().universe();
    names_.reserve(kSupport);
    for (std::uint64_t rank = 1; rank <= kSupport; ++rank) {
      names_.push_back(universe.domain_at(rank));
    }
    crypto::SplitMix64 rng(crypto::derive_seed(seed, 0x21F));
    order_.reserve(kInputs);
    for (std::size_t i = 0; i < kInputs; ++i) {
      const auto rank = static_cast<std::uint64_t>(
          std::pow(static_cast<double>(kSupport), rng.next_double()));
      order_.push_back(
          static_cast<std::uint32_t>(std::clamp<std::uint64_t>(rank, 1, kSupport) - 1));
    }
    // Set-up pass: visit every supported rank once, so the timed phase
    // starts from a fully cached support.
    for (const dns::Name& name : names_) (void)experiment_.stub().visit(name);
  }
};

// -- serve-mix -----------------------------------------------------------------

/// 64 clients through the coalescing frontend of a capped, NSEC3-DLV stack.
class ServeMix final : public Workload {
 public:
  static constexpr std::uint32_t kClients = 64;
  // 40k visits; AAAA follow-ups make the round ~50k queries.
  static constexpr std::uint32_t kQueriesPerClient = 625;

  explicit ServeMix(std::uint64_t seed)
      : options_(scenario_options(seed)),
        stack_(options_, nullptr, nullptr, nullptr, 0, "") {
    schedule_ =
        workload::ClientMix(options_.mix).generate(stack_.world->universe());
    wire_ = serve::encode_schedule(schedule_);
  }

  ServeMix(const ServeMix&) = delete;
  ServeMix& operator=(const ServeMix&) = delete;

  [[nodiscard]] std::size_t round_ops() const override {
    return wire_.size();
  }

  bool run_op(std::size_t index) override {
    const serve::Served served = stack_.frontend->submit(wire_[index]);
    rcodes_.add(served.rcode);
    return served.overload_drop || served.cpu_drop || served.formerr ||
           failure_rcode(served.rcode);
  }

  [[nodiscard]] Observables observe(std::size_t ops) override {
    Observables out;
    out.ops = ops;
    leak_observables(out, *stack_.analyzer, stack_.network, *stack_.resolver);
    rcodes_.fill(out.rcodes);
    return out;
  }

  [[nodiscard]] LayerCounters counters() override {
    LayerCounters out;
    resolver_counters(out, stack_.network, *stack_.resolver,
                      stack_.world->registry());
    const metrics::CounterSet& stats = stack_.frontend->stats();
    out.coalesce_hits = stats.value("serve.coalesce.hits");
    out.coalesce_misses = stats.value("serve.coalesce.misses");
    out.shed =
        stats.value("serve.overload.drops") + stats.value("serve.cpu.drops");
    out.upstream_encodes = 2 * out.exchanges;
    // One decode at intake and one response encode per submitted query.
    out.decodes = stats.value("serve.queries");
    out.client_encodes = out.decodes;
    return out;
  }

  [[nodiscard]] InvariantReport check(std::size_t ops,
                                      std::size_t failed) override {
    InvariantReport report;
    const metrics::CounterSet& stats = stack_.frontend->stats();
    const std::uint64_t queries = stats.value("serve.queries");
    const std::uint64_t accounted =
        stats.value("serve.answered") + stats.value("serve.overload.drops") +
        stats.value("serve.cpu.drops") + stats.value("serve.formerr");
    const Observables seen = observe(ops);
    if (queries != ops || accounted != queries) {
      report.ok = false;
      report.detail = "frontend saw " + std::to_string(queries) +
                      " queries, accounted " + std::to_string(accounted) +
                      ", submitted " + std::to_string(ops);
    } else if (seen.case2 > seen.dlv_queries) {
      report.ok = false;
      report.detail = "Case-2 exceeds DLV queries";
    } else if (failed > ops) {
      report.ok = false;
      report.detail = "more failures than ops";
    }
    return report;
  }

  [[nodiscard]] bool install_tracing(SpanLog& log) override {
    return install_timed_endpoints(*stack_.world, log);
  }

  [[nodiscard]] double cache_probe_ns() override {
    std::vector<const dns::Name*> names;
    for (std::size_t index : probe_indices(round_ops())) {
      names.push_back(&schedule_[index].name);
    }
    return probe_cache(stack_.resolver->cache(), names);
  }

  [[nodiscard]] std::vector<SpanLog::MessagePair> client_samples() override {
    std::vector<SpanLog::MessagePair> out;
    for (std::size_t index : probe_indices(round_ops())) {
      dns::Message query = dns::decode_message(wire_[index].wire);
      dns::Message response = stack_.resolver->handle_query(query);
      out.emplace_back(std::move(query), std::move(response));
    }
    return out;
  }

  [[nodiscard]] double cache_peak_mb() override {
    return static_cast<double>(stack_.resolver->cache().peak_bytes()) /
           (1024.0 * 1024.0);
  }

  [[nodiscard]] std::size_t queue_depth_max() const override {
    return stack_.frontend->max_queue_depth();
  }

  [[nodiscard]] std::vector<const std::vector<std::uint8_t>*> decode_samples()
      const override {
    std::vector<const std::vector<std::uint8_t>*> out;
    for (std::size_t index : probe_indices(round_ops())) {
      out.push_back(&wire_[index].wire);
    }
    return out;
  }

 private:
  static serve::ScenarioOptions scenario_options(std::uint64_t seed) {
    serve::ScenarioOptions options;
    options.universe_size = kUniverseSize;
    options.seed = crypto::derive_seed(seed, 0x5E7E);
    options.mix.clients = kClients;
    options.mix.queries_per_client = kQueriesPerClient;
    options.mix.seed = crypto::derive_seed(seed, 0x313);
    options.mix.zipf_support = 100'000;
    // Drop-free sizing (Little's law, as in bench_serve_throughput): an
    // uncached resolution holds the frontend ~200 virtual ms, so a 25 ms
    // aggregate gap keeps ~8 queries in flight, far below max_pending.
    options.mix.mean_gap_us = 25'000ULL * kClients;
    options.dlv.nsec3_enabled = true;
    options.dlv.nsec3_iterations = 10;
    options.dlv.nsec3_salt = {0xab, 0xcd, 0xef, 0x01};
    resolver::ResolverConfig config = resolver::ResolverConfig::bind_yum();
    config.aggressive_synthesis = true;
    config.verdict_cache_entries =
        resolver::ResolverConfig::kDefaultVerdictCacheEntries;
    config.max_cache_bytes = resolver::ResolverConfig::kUnboundDefaultCacheBytes;
    options.resolver_config = config;
    return options;
  }

  serve::ScenarioOptions options_;
  serve::ServeStack stack_;
  std::vector<workload::ClientQuery> schedule_;
  std::vector<serve::WireQuery> wire_;
  RcodeHistogram rcodes_;
};

}  // namespace

std::uint64_t Observables::digest() const {
  Fnv64 hash;
  for (const std::uint64_t value : {ops, dlv_queries, case2, distinct_leaked,
                                    leaked_digest, bytes_total, cache_evicted,
                                    virtual_us}) {
    hash.add_u64(value);
  }
  for (const auto& [rcode, count] : rcodes) {
    hash.add(rcode);
    hash.add_u64(count);
    hash.end_record();
  }
  return hash.value();
}

LayerCounters LayerCounters::minus(const LayerCounters& base) const {
  LayerCounters out;
  out.exchanges = exchanges - base.exchanges;
  out.bytes = bytes - base.bytes;
  out.retries = retries - base.retries;
  out.dlv_queries = dlv_queries - base.dlv_queries;
  out.dlv_case1 = dlv_case1 - base.dlv_case1;
  out.cache_hits = cache_hits - base.cache_hits;
  out.cache_misses = cache_misses - base.cache_misses;
  out.cache_evicted = cache_evicted - base.cache_evicted;
  out.rsa_verifies = rsa_verifies - base.rsa_verifies;
  out.rsa_skipped = rsa_skipped - base.rsa_skipped;
  out.nsec3_hash_ops = nsec3_hash_ops - base.nsec3_hash_ops;
  out.coalesce_hits = coalesce_hits - base.coalesce_hits;
  out.coalesce_misses = coalesce_misses - base.coalesce_misses;
  out.shed = shed - base.shed;
  out.upstream_encodes = upstream_encodes - base.upstream_encodes;
  out.client_encodes = client_encodes - base.client_encodes;
  out.decodes = decodes - base.decodes;
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cold-topn", "warm-zipf",
                                                 "serve-mix"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "cold-topn") return std::make_unique<ColdTopN>(seed);
  if (name == "warm-zipf") return std::make_unique<WarmZipf>(seed);
  if (name == "serve-mix") return std::make_unique<ServeMix>(seed);
  return nullptr;
}

RsaUnitCost measure_rsa(std::uint64_t seed, std::uint64_t min_ns) {
  crypto::SplitMix64 rng(crypto::derive_seed(seed, 0x85A));
  const crypto::RsaKeyPair pair = crypto::generate_rsa_keypair(256, rng);
  crypto::Bytes message(160);
  rng.fill(message);
  const crypto::Bytes signature = crypto::sign_message(pair.private_key, message);
  if (!crypto::verify_message(pair.public_key, message, signature)) return {};

  RsaUnitCost cost;
  std::uint64_t count = 0;
  std::uint64_t start = now_ns();
  std::uint64_t elapsed = 0;
  std::size_t sink = 0;
  do {
    sink += crypto::sign_message(pair.private_key, message).size();
    ++count;
    elapsed = now_ns() - start;
  } while (elapsed < min_ns);
  cost.sign_us = static_cast<double>(elapsed) / 1000.0 /
                 static_cast<double>(count);

  count = 0;
  start = now_ns();
  do {
    sink += crypto::verify_message(pair.public_key, message, signature) ? 1 : 0;
    ++count;
    elapsed = now_ns() - start;
  } while (elapsed < min_ns);
  cost.verify_us = static_cast<double>(elapsed) / 1000.0 /
                   static_cast<double>(count);
  g_sink = sink;
  return cost;
}

}  // namespace perfbench
