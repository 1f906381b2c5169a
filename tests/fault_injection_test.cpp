// Resolver-level fault injection and resilience tests (§8.4): retry and
// backoff against lossy servers, DLV-registry outage semantics, dead-server
// holddown on the virtual clock, SERVFAIL caching, the closed-form outage
// latency bound and end-to-end trace determinism.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dlv/registry.h"
#include "obs/tracer.h"
#include "resolver/resolver.h"
#include "server/testbed.h"
#include "sim/clock.h"
#include "sim/fault.h"

namespace lookaside {
namespace {

using resolver::RecursiveResolver;
using resolver::ResolveResult;
using resolver::ResolverConfig;
using resolver::RetryPolicy;
using resolver::ValidationStatus;

/// Full-stack fixture: testbed hierarchy + DLV registry + resolver, with
/// the network's fault injector reachable for chaos setup.
class FaultFixture {
 public:
  explicit FaultFixture(ResolverConfig config)
      : network_(clock_),
        testbed_(server::TestbedOptions{},
                 {
                     {"unsigned.com", false, false, false, {}},
                     {"plain.org", false, false, false, {}},
                     {"third.net", false, false, false, {}},
                     {"island.com", true, false, false, {}},
                 }),
        registry_(dlv::DlvRegistry::Options{}) {
    registry_.attach_clock(clock_);
    registry_.deposit(dns::Name::parse("island.com"),
                      testbed_.signed_sld("island.com")->signer().ds_for_parent());
    testbed_.directory().register_zone(
        registry_.apex(),
        std::shared_ptr<sim::Endpoint>(&registry_, [](sim::Endpoint*) {}));
    resolver_ = std::make_unique<RecursiveResolver>(
        network_, testbed_.directory(), std::move(config));
    resolver_->set_root_trust_anchor(testbed_.root_trust_anchor());
    resolver_->set_dlv_trust_anchor(registry_.trust_anchor());
  }

  ResolveResult resolve(const std::string& name) {
    return resolver_->resolve({dns::Name::parse(name), dns::RRType::kA});
  }

  sim::SimClock clock_;
  sim::Network network_;
  server::Testbed testbed_;
  dlv::DlvRegistry registry_;
  std::unique_ptr<RecursiveResolver> resolver_;
};

TEST(RetryPolicyTest, ClosedFormMatchesPerAttemptSchedule) {
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.initial_rto_us = 1'000'000;
  policy.backoff_factor = 2.0;
  policy.max_rto_us = 3'000'000;
  EXPECT_EQ(policy.rto_for_attempt(0), 1'000'000u);
  EXPECT_EQ(policy.rto_for_attempt(1), 2'000'000u);
  EXPECT_EQ(policy.rto_for_attempt(2), 3'000'000u);  // capped
  EXPECT_EQ(policy.rto_for_attempt(3), 3'000'000u);  // still capped
  EXPECT_EQ(policy.total_wait_us(), 9'000'000u);

  const RetryPolicy once = RetryPolicy::none();
  EXPECT_EQ(once.max_retries, 0);
  EXPECT_EQ(once.total_wait_us(), once.initial_rto_us);
}

TEST(FaultSpecTest, ParsesTheDocumentedGrammar) {
  const auto spec = sim::FaultSpec::parse(
      "dlv:dlv.isc.org loss=0.1 rloss=0.05 spike=0.2:150ms "
      "outage=1s..2s truncate=0.15 rcode=REFUSED:0.3 corrupt=0.25");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->endpoint, "dlv:dlv.isc.org");
  EXPECT_DOUBLE_EQ(spec->loss, 0.1);
  EXPECT_DOUBLE_EQ(spec->response_loss, 0.05);
  EXPECT_DOUBLE_EQ(spec->spike_probability, 0.2);
  EXPECT_EQ(spec->spike_us, 150'000u);
  EXPECT_EQ(spec->outage_start_us, 1'000'000u);
  EXPECT_EQ(spec->outage_end_us, 2'000'000u);
  EXPECT_DOUBLE_EQ(spec->truncate, 0.15);
  EXPECT_DOUBLE_EQ(spec->mangle, 0.3);
  EXPECT_EQ(spec->mangle_rcode, dns::RCode::kRefused);
  EXPECT_DOUBLE_EQ(spec->rrsig_corrupt, 0.25);
  EXPECT_FALSE(spec->all_zero());

  const auto wildcard = sim::FaultSpec::parse("* loss=1");
  ASSERT_TRUE(wildcard.has_value());
  EXPECT_EQ(wildcard->endpoint, "*");
  EXPECT_DOUBLE_EQ(wildcard->loss, 1.0);

  const auto bare = sim::FaultSpec::parse("root");
  ASSERT_TRUE(bare.has_value());
  EXPECT_TRUE(bare->all_zero());

  EXPECT_FALSE(sim::FaultSpec::parse("").has_value());
  EXPECT_FALSE(sim::FaultSpec::parse("root loss=1.5").has_value());
  EXPECT_FALSE(sim::FaultSpec::parse("root loss=x").has_value());
  EXPECT_FALSE(sim::FaultSpec::parse("root bogus=1").has_value());
  EXPECT_FALSE(sim::FaultSpec::parse("root rcode=NOPE:0.5").has_value());
  EXPECT_FALSE(sim::FaultSpec::parse("root outage=2s..1s").has_value());
  // Non-finite numbers and durations past 2^64 µs: the conversion to
  // microseconds would be undefined, and a NaN probability never fires.
  EXPECT_FALSE(sim::FaultSpec::parse("* spike=0.5:1e300s").has_value());
  EXPECT_FALSE(sim::FaultSpec::parse("* spike=0.5:infs").has_value());
  EXPECT_FALSE(sim::FaultSpec::parse("* spike=0.5:nanms").has_value());
  EXPECT_FALSE(sim::FaultSpec::parse("* outage=0s..1e30s").has_value());
  EXPECT_FALSE(sim::FaultSpec::parse("* loss=nan").has_value());
}

TEST(ResolverRetryTest, RetryRecoversWhenOutageEndsMidSchedule) {
  ResolverConfig config = ResolverConfig::bind_manual_correct();
  config.retry.max_retries = 2;
  config.retry.initial_rto_us = 800'000;
  FaultFixture fixture(config);
  // The root drops everything for the first 500 ms of virtual time. The
  // first attempt (t=0) is swallowed; its 800 ms RTO carries the clock past
  // the window, so the first retry succeeds — recovery is deterministic, no
  // randomness involved.
  sim::FaultPlan plan;
  sim::FaultSpec spec;
  spec.endpoint = "root";
  spec.outage_end_us = 500'000;
  plan.add(spec);
  fixture.network_.set_fault_plan(plan);

  const ResolveResult result = fixture.resolve("unsigned.com");
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kNoError);
  EXPECT_EQ(fixture.network_.counters().value("retries"), 1u);
  EXPECT_EQ(fixture.network_.counters().value("faults.dropped"), 1u);
  EXPECT_EQ(fixture.resolver_->stats().value("servers.marked_dead"), 0u);
}

TEST(ResolverRetryTest, DeadServerHolddownExpiresOnVirtualClock) {
  ResolverConfig config = ResolverConfig::bind_manual_correct();
  config.server_holddown_us = 60'000'000;  // 1 min
  FaultFixture fixture(config);
  fixture.network_.set_unreachable(fixture.registry_.endpoint_id(), true);

  // First resolution exhausts the DLV retry budget and marks the registry
  // dead.
  (void)fixture.resolve("unsigned.com");
  EXPECT_EQ(fixture.resolver_->stats().value("servers.marked_dead"), 1u);

  // The registry comes back, but the holddown still stands: the next
  // resolution skips it without a single packet.
  fixture.network_.set_unreachable(fixture.registry_.endpoint_id(), false);
  const std::uint64_t queries_before = fixture.registry_.total_queries();
  (void)fixture.resolve("plain.org");
  EXPECT_EQ(fixture.registry_.total_queries(), queries_before);
  EXPECT_GE(fixture.resolver_->stats().value("servers.skipped_dead"), 1u);

  // Advance the virtual clock past the holddown: the server is probed
  // again and the look-aside query flows.
  fixture.clock_.advance_us(config.server_holddown_us);
  (void)fixture.resolve("third.net");
  EXPECT_GT(fixture.registry_.total_queries(), queries_before);
}

TEST(ResolverRetryTest, ServfailCacheShortCircuitsRepeatedFailures) {
  ResolverConfig config = ResolverConfig::bind_manual_correct();
  config.retry = RetryPolicy::none();
  config.server_holddown_us = 0;  // isolate the SERVFAIL cache
  config.servfail_ttl = 1;
  FaultFixture fixture(config);
  fixture.network_.set_unreachable("root", true);

  const ResolveResult first = fixture.resolve("unsigned.com");
  EXPECT_EQ(first.response.header.rcode, dns::RCode::kServFail);
  EXPECT_EQ(fixture.resolver_->stats().value("servfail.cached"), 1u);

  // Within the TTL: answered from the SERVFAIL cache, zero network work.
  const std::uint64_t packets =
      fixture.network_.counters().value("packets.query");
  const ResolveResult second = fixture.resolve("unsigned.com");
  EXPECT_EQ(second.response.header.rcode, dns::RCode::kServFail);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(fixture.resolver_->stats().value("servfail.cache_hit"), 1u);
  EXPECT_EQ(fixture.network_.counters().value("packets.query"), packets);

  // Past the TTL the entry lapses and the resolver tries the network again.
  fixture.clock_.advance_us(2'000'000);
  (void)fixture.resolve("unsigned.com");
  EXPECT_GT(fixture.network_.counters().value("packets.query"), packets);
}

TEST(ResolverRetryTest, DlvOutageLatencyMatchesClosedForm) {
  // §8.4 acceptance bound: the first resolution against a dead registry
  // costs exactly the DLV retry schedule's closed-form total, no more.
  ResolverConfig config = ResolverConfig::bind_manual_correct();
  config.dlv_retry.max_retries = 2;
  config.dlv_retry.initial_rto_us = 500'000;
  config.dlv_retry.backoff_factor = 2.0;  // 0.5 + 1.0 + 2.0 = 3.5 s

  ResolverConfig baseline_config = config;
  baseline_config.dnssec_lookaside = false;
  baseline_config.dlv_trust_anchor_included = false;
  ASSERT_FALSE(baseline_config.dlv_enabled());

  FaultFixture outage(config);
  outage.network_.set_unreachable(outage.registry_.endpoint_id(), true);
  const ResolveResult result = outage.resolve("unsigned.com");
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kNoError);
  EXPECT_EQ(result.status, ValidationStatus::kInsecure);
  EXPECT_TRUE(result.dlv.timed_out);

  FaultFixture baseline(baseline_config);
  (void)baseline.resolve("unsigned.com");

  // Identical query paths except the look-aside leg; the candidate DLV
  // queries after the registry is marked dead are skipped for free.
  EXPECT_EQ(outage.clock_.now_us() - baseline.clock_.now_us(),
            config.dlv_retry.total_wait_us());
  EXPECT_GE(outage.resolver_->stats().value("dlv.timeout"), 1u);
}

TEST(ResolverRetryTest, MustBeSecureFailsClosedOnRegistryOutage) {
  ResolverConfig config = ResolverConfig::bind_manual_correct();
  config.dlv_must_be_secure = true;
  FaultFixture fixture(config);
  fixture.network_.set_unreachable(fixture.registry_.endpoint_id(), true);
  const ResolveResult result = fixture.resolve("unsigned.com");
  EXPECT_TRUE(result.dlv.timed_out);
  EXPECT_EQ(result.status, ValidationStatus::kBogus);
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kServFail);

  // The permissive default on the same outage: insecure but answered
  // (IntegrationTest.DlvOutageIsToleratedAsInsecure covers it end to end).
  FaultFixture permissive(ResolverConfig::bind_manual_correct());
  permissive.network_.set_unreachable(permissive.registry_.endpoint_id(),
                                      true);
  EXPECT_EQ(permissive.resolve("unsigned.com").status,
            ValidationStatus::kInsecure);
}

TEST(ResolverRetryTest, DlvTimeoutCounterAndTraceDetailDistinguishOutcomes) {
  FaultFixture fixture(ResolverConfig::bind_manual_correct());
  auto ring = std::make_shared<obs::RingBufferSink>();
  obs::Tracer tracer;
  tracer.add_sink(ring);
  tracer.attach_clock(fixture.clock_);
  fixture.resolver_->set_tracer(&tracer);

  // Healthy registry, undeposited domain: the DLV answer is a definitive
  // NXDOMAIN, not a timeout.
  (void)fixture.resolve("unsigned.com");
  EXPECT_EQ(fixture.resolver_->stats().value("dlv.timeout"), 0u);
  bool saw_nxdomain = false;
  for (const obs::Event& event : ring->events()) {
    if (event.kind == obs::EventKind::kDlvLookup &&
        event.detail == "nxdomain") {
      saw_nxdomain = true;
    }
    EXPECT_NE(event.detail, "timeout");
  }
  EXPECT_TRUE(saw_nxdomain);

  // Dead registry on a fresh fixture (a warm cache would suppress the
  // candidate queries via validated NSECs before they reach the network):
  // the same lookup is reported as a timeout, not a definitive answer.
  FaultFixture dead(ResolverConfig::bind_manual_correct());
  auto dead_ring = std::make_shared<obs::RingBufferSink>();
  obs::Tracer dead_tracer;
  dead_tracer.add_sink(dead_ring);
  dead_tracer.attach_clock(dead.clock_);
  dead.resolver_->set_tracer(&dead_tracer);
  dead.network_.set_unreachable(dead.registry_.endpoint_id(), true);
  (void)dead.resolve("plain.org");
  EXPECT_GE(dead.resolver_->stats().value("dlv.timeout"), 1u);
  bool saw_timeout = false;
  for (const obs::Event& event : dead_ring->events()) {
    if (event.kind == obs::EventKind::kDlvLookup &&
        event.detail == "timeout") {
      saw_timeout = true;
    }
  }
  EXPECT_TRUE(saw_timeout);
}

TEST(ResolverRetryTest, ZeroFaultsWithRetriesEnabledIsByteIdenticalToNone) {
  // Acceptance criterion: an all-zero FaultPlan plus retry/holddown/
  // SERVFAIL-cache machinery must not change a single counter, packet or
  // microsecond on a healthy network.
  const auto run = [](bool resilience) {
    ResolverConfig config = ResolverConfig::bind_manual_correct();
    if (resilience) {
      config.retry.max_retries = 5;
      config.dlv_retry.max_retries = 3;
    } else {
      config.retry = RetryPolicy::none();
      config.dlv_retry = RetryPolicy::none();
      config.server_holddown_us = 0;
      config.servfail_ttl = 0;
    }
    FaultFixture fixture(config);
    if (resilience) {
      sim::FaultPlan plan;  // all-zero: can never fire, never draws RNG
      sim::FaultSpec spec;
      plan.add(spec);
      fixture.network_.set_fault_plan(plan);
    }
    for (const char* name :
         {"unsigned.com", "island.com", "plain.org", "unsigned.com"}) {
      (void)fixture.resolve(name);
    }
    return std::make_pair(fixture.clock_.now_us(),
                          fixture.network_.counters().entries());
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ResolverRetryTest, IdenticalChaosRunsProduceIdenticalJsonlTraces) {
  // Full determinism: (seed, plan, workload) fixes the entire event
  // stream, byte for byte, fault events included.
  const auto run = [] {
    ResolverConfig config = ResolverConfig::bind_manual_correct();
    FaultFixture fixture(config);
    sim::FaultPlan plan;
    plan.seed = 1234;
    sim::FaultSpec spec;
    spec.endpoint = fixture.registry_.endpoint_id();
    spec.loss = 0.4;
    spec.spike_probability = 0.3;
    spec.spike_us = 20'000;
    plan.add(spec);
    fixture.network_.set_fault_plan(plan);

    auto ring = std::make_shared<obs::RingBufferSink>();
    obs::Tracer tracer;
    tracer.add_sink(ring);
    tracer.attach_clock(fixture.clock_);
    tracer.attach_network(fixture.network_);
    fixture.resolver_->set_tracer(&tracer);

    for (const char* name :
         {"unsigned.com", "island.com", "plain.org", "third.net"}) {
      (void)fixture.resolve(name);
    }
    std::string jsonl;
    for (const obs::Event& event : ring->events()) {
      jsonl += obs::to_jsonl(event);
      jsonl += '\n';
    }
    return jsonl;
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace lookaside
