#include "core/experiment.h"

#include <algorithm>
#include <numeric>

#include "crypto/rng.h"
#include "obs/tracer.h"
#include "workload/secured45.h"

namespace lookaside::core {

const char* remedy_name(RemedyMode mode) {
  switch (mode) {
    case RemedyMode::kNone: return "dlv-baseline";
    case RemedyMode::kTxt: return "txt-signaling";
    case RemedyMode::kZBit: return "z-bit";
    case RemedyMode::kHashed: return "hashed-dlv";
  }
  return "?";
}

UniverseExperiment::UniverseExperiment(Options options)
    : options_(std::move(options)), network_(clock_) {
  workload::WorldOptions world_options;
  world_options.universe.size = options_.universe_size;
  world_options.universe.seed = options_.seed;
  world_options.seed = crypto::derive_seed(options_.seed, 0x0F0F);
  world_options.key_bits = options_.key_bits;
  world_options.dlv.negative_ttl = options_.dlv_negative_ttl;
  world_options.txt_signaling =
      options_.remedy == RemedyMode::kTxt &&
      options_.remedy_deployed_at_authorities;
  world_options.z_bit_signaling =
      options_.remedy == RemedyMode::kZBit &&
      options_.remedy_deployed_at_authorities;
  world_options.dlv.hashed_registration =
      options_.remedy == RemedyMode::kHashed;

  world_ = std::make_unique<workload::UniverseWorld>(world_options);
  world_->registry().attach_clock(clock_);
  world_->registry().set_store_observations(false);
  analyzer_ = std::make_unique<LeakageAnalyzer>(world_->registry());

  resolver::ResolverConfig config = options_.resolver_config;
  config.ns_fetch_probability = options_.ns_fetch_probability;
  switch (options_.remedy) {
    case RemedyMode::kTxt: config.honor_txt_dlv_signal = true; break;
    case RemedyMode::kZBit: config.honor_z_bit_signal = true; break;
    case RemedyMode::kHashed: config.hashed_dlv_queries = true; break;
    case RemedyMode::kNone: break;
  }
  resolver_ = std::make_unique<resolver::RecursiveResolver>(
      network_, world_->directory(), config);
  resolver_->set_root_trust_anchor(world_->root_trust_anchor());
  resolver_->set_dlv_trust_anchor(world_->registry().trust_anchor());
  stub_ = std::make_unique<workload::StubClient>(network_, *resolver_,
                                                 options_.stub);

  if (options_.tracer != nullptr) {
    options_.tracer->attach_clock(clock_);
    options_.tracer->attach_network(network_);
    world_->set_tracer(options_.tracer);
    resolver_->set_tracer(options_.tracer);
  }
}

void UniverseExperiment::visit_ranks(const std::vector<std::uint64_t>& ranks) {
  for (std::uint64_t rank : ranks) {
    (void)stub_->visit(world_->universe().domain_at(rank));
    ++domains_visited_;
  }
  analyzer_->set_domains_visited(domains_visited_);
}

LeakageReport UniverseExperiment::run_topn(std::uint64_t n) {
  std::vector<std::uint64_t> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 1);
  visit_ranks(ranks);
  return analyzer_->report();
}

LeakageReport UniverseExperiment::run_topn_shuffled(
    std::uint64_t n, std::uint64_t shuffle_seed) {
  std::vector<std::uint64_t> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 1);
  crypto::SplitMix64 rng(shuffle_seed);
  for (std::size_t i = ranks.size(); i > 1; --i) {
    std::swap(ranks[i - 1], ranks[rng.next_below(i)]);
  }
  visit_ranks(ranks);
  return analyzer_->report();
}

PhaseMetrics UniverseExperiment::metrics() const {
  PhaseMetrics out;
  const metrics::CounterSet counters = network_.counters();
  out.response_seconds = clock_.now_seconds();
  out.megabytes = static_cast<double>(counters.value("bytes.total")) /
                  (1024.0 * 1024.0);
  out.queries = counters.value("packets.query");
  return out;
}

SecuredRunResult run_secured_45(const resolver::ResolverConfig& config,
                                const std::string& config_name) {
  SecuredRunResult result;
  result.config_name = config_name;
  result.dlv_enabled = config.dlv_enabled();

  sim::SimClock clock;
  sim::Network network(clock);
  server::Testbed testbed(server::TestbedOptions{},
                          workload::secured_45_specs());
  dlv::DlvRegistry registry(dlv::DlvRegistry::Options{});
  registry.attach_clock(clock);
  for (const std::string& island : workload::secured_45_island_names()) {
    registry.deposit(dns::Name::parse(island),
                     testbed.signed_sld(island)->signer().ds_for_parent());
  }
  // ISC's real registry held thousands of unrelated deposits, so NSEC
  // ranges were narrow and each of the 45 domains produced its own DLV
  // query. Model that zone density with filler deposits interleaving the
  // dataset (their DS content is never validated — only the NSEC chain
  // geometry matters).
  for (const server::SldSpec& spec : workload::secured_45_specs()) {
    const dns::Name name = dns::Name::parse(spec.name);
    const dns::Name filler = dns::Name::parse(
        std::string(name.label(0)) + "-x." +
        std::string(name.label(1)));
    registry.deposit(filler, dns::DsRdata{0, 8, 2, dns::Bytes(32, 0x77)});
  }
  testbed.directory().register_zone(
      registry.apex(),
      std::shared_ptr<sim::Endpoint>(&registry, [](sim::Endpoint*) {}));
  LeakageAnalyzer analyzer(registry);

  resolver::RecursiveResolver resolver(network, testbed.directory(), config);
  resolver.set_root_trust_anchor(testbed.root_trust_anchor());
  resolver.set_dlv_trust_anchor(registry.trust_anchor());

  for (const server::SldSpec& spec : workload::secured_45_specs()) {
    const auto outcome =
        resolver.resolve({dns::Name::parse(spec.name), dns::RRType::kA});
    ++result.domains;
    if (outcome.status == resolver::ValidationStatus::kSecure) {
      ++result.validated_secure;
      if (outcome.dlv.secured) ++result.validated_via_dlv;
    }
  }
  analyzer.set_domains_visited(result.domains);
  result.sent_to_dlv = analyzer.report().distinct_case1_domains +
                       analyzer.report().distinct_leaked_domains;
  return result;
}

}  // namespace lookaside::core
