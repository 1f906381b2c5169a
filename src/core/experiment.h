// Experiment harnesses wiring worlds, resolvers, stubs and analyzers —
// one per experiment family in the paper's evaluation.
#pragma once

#include <memory>
#include <vector>

#include "core/leakage.h"
#include "resolver/resolver.h"
#include "server/testbed.h"
#include "sim/clock.h"
#include "workload/stub.h"
#include "workload/universe_world.h"

namespace lookaside::obs {
class Tracer;
}

namespace lookaside::core {

/// The remedy under test (paper §6.2).
enum class RemedyMode {
  kNone,     // plain DLV (the baseline everything is compared against)
  kTxt,      // TXT dlv=0/1 signaling
  kZBit,     // spare header bit signaling
  kHashed,   // privacy-preserving hashed DLV queries
};

[[nodiscard]] const char* remedy_name(RemedyMode mode);

/// Phase metrics in the paper's Table 5 units.
struct PhaseMetrics {
  double response_seconds = 0;
  double megabytes = 0;
  std::uint64_t queries = 0;
};

/// Everything a universe experiment needs, assembled consistently.
class UniverseExperiment {
 public:
  struct Options {
    std::uint64_t universe_size = 1'000'000;
    std::uint64_t seed = 7;
    std::size_t key_bits = 256;
    RemedyMode remedy = RemedyMode::kNone;
    /// When measuring remedy *overhead* (Table 5), the TXT remedy runs
    /// against a world whose domains do NOT serve the TXT record — the
    /// paper measured exactly that ("not all domains are configured with
    /// the TXT record"), so the resolver pays the lookup without reaping
    /// suppression. Leave true for leakage-prevention runs.
    bool remedy_deployed_at_authorities = true;
    resolver::ResolverConfig resolver_config =
        resolver::ResolverConfig::bind_yum();
    workload::StubOptions stub;
    /// Share of zones whose NS RRset the resolver also fetches (Table 4's
    /// NS query band). Overrides resolver_config.ns_fetch_probability,
    /// whatever that was set to.
    double ns_fetch_probability = 0.30;
    std::uint32_t dlv_negative_ttl = 3600;
    /// Optional structured tracer; when set it is attached to the clock,
    /// the network, the world's servers and the resolver.
    obs::Tracer* tracer = nullptr;
  };

  explicit UniverseExperiment(Options options);

  /// Visits universe ranks [1, n] in rank order; returns the leakage view.
  LeakageReport run_topn(std::uint64_t n);

  /// Visits a shuffled permutation of [1, n] (§5.1 "Order Matters").
  LeakageReport run_topn_shuffled(std::uint64_t n, std::uint64_t shuffle_seed);

  /// Stub-observed metrics accumulated since construction (or last
  /// snapshot) — Table 5's three columns.
  [[nodiscard]] PhaseMetrics metrics() const;

  [[nodiscard]] workload::UniverseWorld& world() { return *world_; }
  [[nodiscard]] sim::Network& network() { return network_; }
  [[nodiscard]] resolver::RecursiveResolver& resolver() { return *resolver_; }
  [[nodiscard]] LeakageAnalyzer& analyzer() { return *analyzer_; }
  [[nodiscard]] workload::StubClient& stub() { return *stub_; }
  [[nodiscard]] sim::SimClock& clock() { return clock_; }

 private:
  void visit_ranks(const std::vector<std::uint64_t>& ranks);

  Options options_;
  sim::SimClock clock_;
  sim::Network network_;
  std::unique_ptr<workload::UniverseWorld> world_;
  std::unique_ptr<resolver::RecursiveResolver> resolver_;
  std::unique_ptr<workload::StubClient> stub_;
  std::unique_ptr<LeakageAnalyzer> analyzer_;
  std::uint64_t domains_visited_ = 0;
};

/// Secured-domain experiment (§5.2 / Table 3): the 45-domain dataset on a
/// real testbed under one resolver configuration.
struct SecuredRunResult {
  std::string config_name;
  bool dlv_enabled = false;
  std::uint64_t domains = 0;
  std::uint64_t sent_to_dlv = 0;           // distinct domains observed at DLV
  std::uint64_t validated_secure = 0;
  std::uint64_t validated_via_dlv = 0;
};

/// Runs the 45 secured domains under `config`; islands are deposited in the
/// DLV registry (they are the domains DLV exists for).
[[nodiscard]] SecuredRunResult run_secured_45(
    const resolver::ResolverConfig& config, const std::string& config_name);

}  // namespace lookaside::core
