// Unit tests for the simulation fabric: clock, latency model, network
// accounting, packet capture, failure injection and latency overrides.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "dns/codec.h"
#include "sim/network.h"

namespace lookaside::sim {
namespace {

/// Echo endpoint answering every query with an empty NOERROR response.
class EchoServer : public Endpoint {
 public:
  explicit EchoServer(std::string id, std::uint64_t latency_override = 0)
      : id_(std::move(id)), latency_override_(latency_override) {}

  [[nodiscard]] std::string endpoint_id() const override { return id_; }

  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override {
    ++handled_;
    return dns::Message::make_response(query);
  }

  [[nodiscard]] std::uint64_t latency_override_us(
      const dns::Message&) const override {
    return latency_override_;
  }

  int handled_ = 0;

 private:
  std::string id_;
  std::uint64_t latency_override_;
};

dns::Message sample_query(const std::string& name = "example.com",
                          dns::RRType type = dns::RRType::kA) {
  return dns::Message::make_query(1, dns::Name::parse(name), type, false,
                                  false);
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now_us(), 0u);
  clock.advance_us(1500);
  EXPECT_EQ(clock.now_us(), 1500u);
  clock.advance_seconds(2.5);
  EXPECT_EQ(clock.now_us(), 1500u + 2'500'000u);
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 2.5015);
}

TEST(LatencyModelTest, WellKnownEndpoints) {
  LatencyModel model;
  EXPECT_EQ(model.one_way_us("root"), 30'000u);
  EXPECT_EQ(model.one_way_us("tld:com"), 25'000u);
  EXPECT_EQ(model.one_way_us("dlv:dlv.isc.org"), 40'000u);
  EXPECT_EQ(model.one_way_us("recursive"), 1'000u);
}

TEST(LatencyModelTest, HashedDefaultsInBand) {
  LatencyModel model;
  for (const char* id : {"auth:a.com", "auth:b.net", "auth:zzz.org"}) {
    const std::uint64_t latency = model.one_way_us(id);
    EXPECT_GE(latency, 10'000u);
    EXPECT_LE(latency, 80'000u);
    EXPECT_EQ(latency, model.one_way_us(id));  // deterministic
  }
}

TEST(LatencyModelTest, OverrideWins) {
  LatencyModel model;
  model.set_latency_us("root", 5'000);
  EXPECT_EQ(model.one_way_us("root"), 5'000u);
}

TEST(NetworkTest, ExchangeAdvancesClockByRoundTrip) {
  SimClock clock;
  Network network(clock);
  EchoServer server("root");
  const auto response = network.exchange("stub", server, sample_query());
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(clock.now_us(), 60'000u);  // 2 x 30 ms
  EXPECT_EQ(server.handled_, 1);
}

TEST(NetworkTest, LatencyOverrideUsedWhenNonZero) {
  SimClock clock;
  Network network(clock);
  EchoServer server("anything", 7'000);
  (void)network.exchange("stub", server, sample_query());
  EXPECT_EQ(clock.now_us(), 14'000u);
}

TEST(NetworkTest, CountsQueriesBytesAndTypes) {
  SimClock clock;
  Network network(clock);
  EchoServer server("root");
  (void)network.exchange("stub", server, sample_query("a.com", dns::RRType::kA));
  (void)network.exchange("stub", server,
                         sample_query("b.com", dns::RRType::kDlv));
  const auto& counters = network.counters();
  EXPECT_EQ(counters.value("packets.query"), 2u);
  EXPECT_EQ(counters.value("packets.response"), 2u);
  EXPECT_EQ(counters.value("query.A"), 1u);
  EXPECT_EQ(counters.value("query.DLV"), 1u);
  EXPECT_GT(counters.value("bytes.query"), 0u);
  EXPECT_EQ(counters.value("bytes.total"),
            counters.value("bytes.query") + counters.value("bytes.response"));
}

TEST(NetworkTest, ByteAccountingMatchesWireSize) {
  SimClock clock;
  Network network(clock);
  EchoServer server("root");
  const dns::Message query = sample_query();
  (void)network.exchange("stub", server, query);
  EXPECT_EQ(network.counters().value("bytes.query"), dns::wire_size(query));
}

TEST(NetworkTest, CaptureRecordsBothDirections) {
  SimClock clock;
  Network network(clock);
  network.set_capture_enabled(true);
  EchoServer server("root");
  (void)network.exchange("stub", server, sample_query("x.org"));
  ASSERT_EQ(network.capture().size(), 2u);
  EXPECT_TRUE(network.capture()[0].is_query);
  EXPECT_EQ(network.capture()[0].from, "stub");
  EXPECT_EQ(network.capture()[0].to, "root");
  EXPECT_EQ(network.capture()[0].qname, dns::Name::parse("x.org"));
  EXPECT_FALSE(network.capture()[1].is_query);
  EXPECT_EQ(network.capture()[1].from, "root");
  network.clear_capture();
  EXPECT_TRUE(network.capture().empty());
}

TEST(NetworkTest, ObserverFiresWithoutCapture) {
  SimClock clock;
  Network network(clock);
  int observed = 0;
  network.set_observer([&observed](const PacketRecord&) { ++observed; });
  EchoServer server("root");
  (void)network.exchange("stub", server, sample_query());
  EXPECT_EQ(observed, 2);
  EXPECT_TRUE(network.capture().empty());  // storage stayed off
}

TEST(NetworkTest, UnreachableServerTimesOut) {
  SimClock clock;
  Network network(clock);
  network.set_timeout_us(2'000'000);
  EchoServer server("dead");
  network.set_unreachable("dead", true);
  const auto response = network.exchange("stub", server, sample_query());
  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(clock.now_us(), 2'000'000u);
  EXPECT_EQ(network.counters().value("timeouts"), 1u);
  EXPECT_EQ(server.handled_, 0);

  network.set_unreachable("dead", false);
  EXPECT_TRUE(network.exchange("stub", server, sample_query()).has_value());
}

// ---------------------------------------------------------------------------
// Fault injection (§8.4 chaos layer)
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, UnreachableIsDegenerateFaultPlanEntry) {
  SimClock clock;
  Network network(clock);
  EchoServer server("dead");
  network.set_unreachable("dead", true);
  std::vector<std::string> causes;
  network.add_fault_observer(
      [&causes](const FaultNotice& notice) { causes.push_back(notice.cause); });
  EXPECT_FALSE(network.exchange("stub", server, sample_query()).has_value());
  // One failure path: the unreachable set feeds the same accounting as a
  // 100%-loss fault spec.
  EXPECT_EQ(network.counters().value("faults.dropped"), 1u);
  EXPECT_EQ(network.counters().value("timeouts"), 1u);
  EXPECT_EQ(network.counters().value("timeouts.partial"), 0u);
  ASSERT_EQ(causes.size(), 1u);
  EXPECT_EQ(causes[0], "unreachable");
  EXPECT_TRUE(network.fault_injector().is_unreachable("dead"));
}

TEST(FaultInjectionTest, PerCallTimeoutOverridesNetworkDefault) {
  SimClock clock;
  Network network(clock);
  EchoServer server("dead");
  network.set_unreachable("dead", true);
  const auto response =
      network.exchange("stub", server, sample_query(), 300'000);
  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(clock.now_us(), 300'000u);  // caller's RTO, not the 5 s default
}

TEST(FaultInjectionTest, QueryLegLossNeverReachesServer) {
  SimClock clock;
  Network network(clock);
  EchoServer server("flaky");
  FaultPlan plan;
  FaultSpec spec;
  spec.endpoint = "flaky";
  spec.loss = 1.0;
  plan.add(spec);
  network.set_fault_plan(plan);
  EXPECT_FALSE(network.exchange("stub", server, sample_query()).has_value());
  EXPECT_EQ(server.handled_, 0);
  EXPECT_EQ(network.counters().value("faults.dropped"), 1u);
  EXPECT_EQ(network.counters().value("timeouts.partial"), 0u);
}

TEST(FaultInjectionTest, ResponseLegLossIsPartialTimeout) {
  SimClock clock;
  Network network(clock);
  EchoServer server("flaky");
  FaultPlan plan;
  FaultSpec spec;
  spec.endpoint = "flaky";
  spec.response_loss = 1.0;
  plan.add(spec);
  network.set_fault_plan(plan);
  EXPECT_FALSE(network.exchange("stub", server, sample_query()).has_value());
  // The server observed the query — the privacy leak still happened — but
  // the resolver sees only a timeout.
  EXPECT_EQ(server.handled_, 1);
  EXPECT_EQ(network.counters().value("timeouts"), 1u);
  EXPECT_EQ(network.counters().value("timeouts.partial"), 1u);
}

TEST(FaultInjectionTest, OutageWindowIsKeyedOnVirtualTime) {
  SimClock clock;
  Network network(clock);
  EchoServer server("windowed");
  network.latency().set_latency_us("windowed", 5'000);  // 10 ms round trip
  FaultPlan plan;
  FaultSpec spec;
  spec.endpoint = "windowed";
  spec.outage_start_us = 100'000;
  spec.outage_end_us = 200'000;
  plan.add(spec);
  network.set_fault_plan(plan);

  // Before the window: fine (no randomness involved at all).
  EXPECT_TRUE(network.exchange("stub", server, sample_query()).has_value());
  clock.advance_us(150'000 - clock.now_us());
  // Inside [start, end): dropped deterministically.
  EXPECT_FALSE(
      network.exchange("stub", server, sample_query(), 10'000).has_value());
  clock.advance_us(200'000 - clock.now_us());
  // At end: the window is half-open, so the exchange goes through.
  EXPECT_TRUE(network.exchange("stub", server, sample_query()).has_value());
}

TEST(FaultInjectionTest, MangleRewritesRcodeAndEmptiesSections) {
  SimClock clock;
  Network network(clock);
  EchoServer server("evil");
  FaultPlan plan;
  FaultSpec spec;
  spec.endpoint = "evil";
  spec.mangle = 1.0;
  spec.mangle_rcode = dns::RCode::kRefused;
  plan.add(spec);
  network.set_fault_plan(plan);
  network.set_capture_enabled(true);
  const auto response = network.exchange("stub", server, sample_query());
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, dns::RCode::kRefused);
  EXPECT_TRUE(response->answers.empty());
  EXPECT_EQ(network.counters().value("faults.mangled"), 1u);
  // The captured response packet carries the rewritten rcode.
  ASSERT_EQ(network.capture().size(), 2u);
  EXPECT_FALSE(network.capture()[1].is_query);
  EXPECT_EQ(network.capture()[1].rcode, dns::RCode::kRefused);
}

TEST(FaultInjectionTest, TruncationSetsTcAndEmptiesSections) {
  SimClock clock;
  Network network(clock);
  EchoServer server("small");
  FaultPlan plan;
  FaultSpec spec;
  spec.endpoint = "small";
  spec.truncate = 1.0;
  plan.add(spec);
  network.set_fault_plan(plan);
  const auto response = network.exchange("stub", server, sample_query());
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->header.tc);
  EXPECT_TRUE(response->answers.empty());
  EXPECT_EQ(network.counters().value("faults.truncated"), 1u);
}

TEST(FaultInjectionTest, LatencySpikeAddsToRoundTrip) {
  SimClock clock;
  Network network(clock);
  EchoServer server("root");  // 2 x 30 ms base round trip
  FaultPlan plan;
  FaultSpec spec;
  spec.endpoint = "root";
  spec.spike_probability = 1.0;
  spec.spike_us = 10'000;
  plan.add(spec);
  network.set_fault_plan(plan);
  const auto response = network.exchange("stub", server, sample_query());
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(clock.now_us(), 70'000u);
  EXPECT_EQ(network.counters().value("faults.latency_spikes"), 1u);
}

TEST(FaultInjectionTest, SpikePastTimeoutBecomesPartialTimeout) {
  SimClock clock;
  Network network(clock);
  EchoServer server("root");
  FaultPlan plan;
  FaultSpec spec;
  spec.endpoint = "root";
  spec.spike_probability = 1.0;
  spec.spike_us = 10'000'000;  // way past the 5 s default timeout
  plan.add(spec);
  network.set_fault_plan(plan);
  EXPECT_FALSE(network.exchange("stub", server, sample_query()).has_value());
  EXPECT_EQ(server.handled_, 1);  // the server answered; the answer was late
  EXPECT_EQ(network.counters().value("timeouts.partial"), 1u);
}

/// Runs one exchange with "root" (2 x 30 ms base round trip) under `plan`
/// and an 800 ms timeout, and expects the spike to time it out.
void expect_spike_timeout(const FaultPlan& plan) {
  SimClock clock;
  Network network(clock);
  EchoServer server("root");
  network.set_fault_plan(plan);
  EXPECT_FALSE(
      network.exchange("stub", server, sample_query(), 800'000).has_value());
  EXPECT_EQ(server.handled_, 1);
  EXPECT_EQ(network.counters().value("timeouts"), 1u);
  EXPECT_EQ(network.counters().value("timeouts.partial"), 1u);
  EXPECT_EQ(network.counters().value("faults.latency_spikes"), 1u);
  EXPECT_EQ(clock.now_us(), 800'000u);
}

TEST(FaultInjectionTest, SpikeNearTwoToThe64TimesOutInsteadOfWrapping) {
  // 2^64 - 2048 µs: the round trip would wrap to a few milliseconds.
  const auto spec =
      FaultSpec::parse("* spike=1:18446744073709549568us");
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->spike_us, 18446744073709549568u);
  FaultPlan plan;
  plan.add(*spec);
  expect_spike_timeout(plan);
}

TEST(FaultInjectionTest, SpikesSummingPast2To64TimeOut) {
  // Two spikes of 2^63 µs would sum to 0, which reads as no spike at all.
  FaultPlan plan;
  FaultSpec spec;
  spec.spike_probability = 1.0;
  spec.spike_us = std::uint64_t{1} << 63;
  plan.add(spec);
  plan.add(spec);
  expect_spike_timeout(plan);
}

TEST(FaultInjectionTest, RrsigCorruptionFlipsSignatureBytes) {
  class SignedServer : public Endpoint {
   public:
    [[nodiscard]] std::string endpoint_id() const override { return "signed"; }
    [[nodiscard]] dns::Message handle_query(
        const dns::Message& query) override {
      dns::Message response = dns::Message::make_response(query);
      dns::ResourceRecord sig;
      sig.name = query.question().name;
      sig.type = dns::RRType::kRrsig;
      dns::RrsigRdata rdata;
      rdata.signature = {0xAA, 0xBB};
      sig.rdata = rdata;
      response.answers.push_back(std::move(sig));
      return response;
    }
  };
  SimClock clock;
  Network network(clock);
  SignedServer server;
  FaultPlan plan;
  FaultSpec spec;
  spec.endpoint = "signed";
  spec.rrsig_corrupt = 1.0;
  plan.add(spec);
  network.set_fault_plan(plan);
  const auto response = network.exchange("stub", server, sample_query());
  ASSERT_TRUE(response.has_value());
  const auto* rrsig =
      std::get_if<dns::RrsigRdata>(&response->answers.front().rdata);
  ASSERT_NE(rrsig, nullptr);
  EXPECT_EQ(rrsig->signature[0], 0xAA ^ 0xFF);  // first byte flipped
  EXPECT_EQ(network.counters().value("faults.rrsig_corrupted"), 1u);
}

TEST(FaultInjectionTest, SeededLossIsDeterministic) {
  const auto run = [](std::uint64_t seed) {
    SimClock clock;
    Network network(clock);
    EchoServer server("flaky");
    FaultPlan plan;
    plan.seed = seed;
    FaultSpec spec;
    spec.endpoint = "flaky";
    spec.loss = 0.5;
    plan.add(spec);
    network.set_fault_plan(plan);
    std::vector<bool> fates;
    for (int i = 0; i < 64; ++i) {
      fates.push_back(
          network.exchange("stub", server, sample_query(), 100'000)
              .has_value());
    }
    return std::make_tuple(fates, clock.now_us(),
                           network.counters().entries());
  };
  const auto a = run(42);
  const auto b = run(42);
  EXPECT_EQ(a, b);  // identical fates, virtual time and counters
  const auto c = run(43);
  EXPECT_NE(std::get<0>(a), std::get<0>(c));  // the seed matters
}

TEST(FaultInjectionTest, AllZeroPlanIsIdenticalToNoInjector) {
  const auto run = [](bool install_plan) {
    SimClock clock;
    Network network(clock);
    network.set_capture_enabled(true);
    if (install_plan) {
      FaultPlan plan;  // specs with every probability zero
      FaultSpec spec;
      plan.add(spec);
      FaultSpec targeted;
      targeted.endpoint = "root";
      plan.add(targeted);
      EXPECT_TRUE(plan.inert());
      network.set_fault_plan(plan);
    }
    EchoServer server("root");
    for (int i = 0; i < 16; ++i) {
      (void)network.exchange("stub", server, sample_query());
    }
    return std::make_tuple(clock.now_us(), network.counters().entries(),
                           network.capture().size());
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace lookaside::sim
