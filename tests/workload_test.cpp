// Tests for the synthetic universe model, the universe world authorities,
// the stub driver, the 45-domain dataset and the DITL trace generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "dns/codec.h"
#include "resolver/resolver.h"
#include "workload/ditl.h"
#include "workload/secured45.h"
#include "workload/stub.h"
#include "workload/universe_world.h"

namespace lookaside::workload {
namespace {

UniverseOptions small_universe(std::uint64_t size = 10'000) {
  UniverseOptions options;
  options.size = size;
  return options;
}

TEST(UniverseTest, DeterministicNames) {
  const Universe a(small_universe());
  const Universe b(small_universe());
  for (std::uint64_t rank : {1ull, 5ull, 99ull, 9999ull}) {
    EXPECT_EQ(a.domain_at(rank), b.domain_at(rank));
  }
}

TEST(UniverseTest, RankRoundTrip) {
  const Universe universe(small_universe());
  for (std::uint64_t rank = 1; rank <= 2000; ++rank) {
    const dns::Name name = universe.domain_at(rank);
    const auto recovered = universe.rank_of(name);
    ASSERT_TRUE(recovered.has_value()) << name.to_text();
    EXPECT_EQ(*recovered, rank);
    // Subdomains also resolve to the owning rank.
    EXPECT_EQ(universe.rank_of(name.with_prefix_label("www")), rank);
  }
}

TEST(UniverseTest, ForeignNamesRejected) {
  const Universe universe(small_universe());
  EXPECT_FALSE(universe.rank_of(dns::Name::parse("example.com")).has_value());
  EXPECT_FALSE(universe.rank_of(dns::Name::parse("com")).has_value());
  EXPECT_FALSE(
      universe.rank_of(dns::Name::parse("site-zzzzzzz-xx.com")).has_value());
}

TEST(UniverseTest, RankBoundsEnforced) {
  const Universe universe(small_universe(100));
  EXPECT_THROW((void)universe.domain_at(0), std::invalid_argument);
  EXPECT_THROW((void)universe.domain_at(101), std::invalid_argument);
}

TEST(UniverseTest, DeploymentRatesInCalibratedBands) {
  const Universe universe(small_universe(50'000));
  std::uint64_t signed_count = 0, chained = 0, deposited = 0, glue = 0;
  for (std::uint64_t rank = 1; rank <= universe.size(); ++rank) {
    const DomainInfo info = universe.info(rank);
    signed_count += info.dnssec_signed;
    chained += info.ds_in_parent;
    deposited += info.dlv_deposited;
    glue += info.glue;
    if (info.ds_in_parent) {
      EXPECT_TRUE(info.dnssec_signed);
    }
    if (info.dlv_deposited) {
      EXPECT_TRUE(info.dnssec_signed);
      EXPECT_FALSE(info.ds_in_parent);  // deposits are islands
    }
  }
  const double n = static_cast<double>(universe.size());
  EXPECT_NEAR(static_cast<double>(chained) / n, 0.02, 0.005);
  // Deposits sit between the bottom and (multiplier-inflated) top rates.
  EXPECT_GT(static_cast<double>(deposited) / n, 0.03);
  EXPECT_LT(static_cast<double>(deposited) / n, 0.25);
  EXPECT_NEAR(static_cast<double>(glue) / n, 0.40, 0.02);
}

TEST(UniverseTest, DepositRateDecreasesWithRank) {
  const Universe universe(small_universe(1'000'000));
  auto deposit_rate = [&](std::uint64_t from, std::uint64_t to) {
    std::uint64_t count = 0;
    for (std::uint64_t rank = from; rank < to; ++rank) {
      count += universe.info(rank).dlv_deposited;
    }
    return static_cast<double>(count) / static_cast<double>(to - from);
  };
  const double top = deposit_rate(1, 5'000);
  const double bottom = deposit_rate(900'000, 905'000);
  EXPECT_GT(top, bottom);
}

TEST(UniverseTest, RankProfileMatchesInfo) {
  // 150k ranks span all three deposit bands: the top rate up to 10k, the
  // log interpolation up to 100k and the tail rate beyond.
  const Universe universe(small_universe(150'000));
  const auto fields = [](const DomainInfo& d) {
    return std::tie(d.rank, d.name, d.tld, d.dnssec_signed, d.ds_in_parent,
                    d.dlv_deposited, d.glue, d.provider);
  };
  for (std::uint64_t rank = 1; rank <= universe.size(); ++rank) {
    const DomainInfo info = universe.info(rank);
    ASSERT_EQ(universe.deposited(rank), info.dlv_deposited) << rank;
    const std::optional<DomainInfo> by_name = universe.info_by_name(info.name);
    ASSERT_TRUE(by_name.has_value()) << rank;
    ASSERT_TRUE(fields(*by_name) == fields(info)) << rank;
  }
}

TEST(UniverseTest, DepositsComeInCanonicalNameOrder) {
  // Sizes at and around powers of 36 take every turn of the walk over
  // ranks in base-36 digit-text order.
  for (const std::uint64_t size :
       {1ull, 35ull, 36ull, 37ull, 1'296ull, 1'297ull, 150'000ull}) {
    const Universe universe(small_universe(size));
    const std::vector<std::uint64_t> deposits = universe.deposits();
    std::vector<std::uint64_t> expected;
    for (std::uint64_t rank = 1; rank <= size; ++rank) {
      if (universe.deposited(rank)) expected.push_back(rank);
    }
    std::vector<std::uint64_t> sorted = deposits;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, expected) << size;
    for (std::size_t i = 1; i < deposits.size(); ++i) {
      ASSERT_LT(universe.domain_at(deposits[i - 1]),
                universe.domain_at(deposits[i]))
          << size;
    }
  }
}

TEST(UniverseTest, ProviderHostsRoundTrip) {
  const Universe universe(small_universe());
  const dns::Name host = universe.provider_ns_host(123);
  const auto provider = universe.provider_of(host);
  ASSERT_TRUE(provider.has_value());
  EXPECT_EQ(*provider, 123u);
  EXPECT_FALSE(universe.provider_of(dns::Name::parse("ns1.other.net")));
}

TEST(Secured45Test, StructureMatchesPaper) {
  const auto specs = secured_45_specs();
  ASSERT_EQ(specs.size(), kSecuredDomainCount);
  std::size_t islands = 0;
  std::set<std::string> names;
  for (const auto& spec : specs) {
    EXPECT_TRUE(spec.dnssec_signed);
    if (!spec.ds_in_parent) ++islands;
    names.insert(spec.name);
  }
  EXPECT_EQ(islands, kSecuredIslandCount);
  EXPECT_EQ(names.size(), kSecuredDomainCount);  // all distinct
  EXPECT_EQ(secured_45_island_names().size(), kSecuredIslandCount);
}

TEST(DitlTest, RatesWithinEnvelopeAndTotalExact) {
  DitlOptions options;
  const auto rates = ditl_per_minute_rates(options);
  ASSERT_EQ(rates.size(), options.minutes);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    total += rates[i];
    if (i + 1 < rates.size()) {  // last minute absorbs rounding
      EXPECT_GE(rates[i], options.min_rate * 95 / 100);
      EXPECT_LE(rates[i], options.max_rate * 105 / 100);
    }
  }
  EXPECT_EQ(total, options.total_queries);
}

TEST(DitlTest, Deterministic) {
  DitlOptions options;
  EXPECT_EQ(ditl_per_minute_rates(options), ditl_per_minute_rates(options));
}

// --- Universe world end-to-end -------------------------------------------

class WorldFixture {
 public:
  explicit WorldFixture(std::uint64_t universe_size = 5'000,
                        resolver::ResolverConfig config =
                            resolver::ResolverConfig::bind_manual_correct())
      : network_(clock_) {
    WorldOptions options;
    options.universe.size = universe_size;
    world_ = std::make_unique<UniverseWorld>(options);
    world_->registry().attach_clock(clock_);
    resolver_ = std::make_unique<resolver::RecursiveResolver>(
        network_, world_->directory(), std::move(config));
    resolver_->set_root_trust_anchor(world_->root_trust_anchor());
    resolver_->set_dlv_trust_anchor(world_->registry().trust_anchor());
    stub_ = std::make_unique<StubClient>(network_, *resolver_);
  }

  sim::SimClock clock_;
  sim::Network network_;
  std::unique_ptr<UniverseWorld> world_;
  std::unique_ptr<resolver::RecursiveResolver> resolver_;
  std::unique_ptr<StubClient> stub_;
};

TEST(UniverseWorldTest, ResolvesEveryDeploymentFlavor) {
  WorldFixture fixture;
  const Universe& universe = fixture.world_->universe();

  std::uint64_t chained_rank = 0, deposited_rank = 0, unsigned_rank = 0;
  for (std::uint64_t rank = 1; rank <= universe.size(); ++rank) {
    const DomainInfo info = universe.info(rank);
    if (chained_rank == 0 && info.ds_in_parent) chained_rank = rank;
    if (deposited_rank == 0 && info.dlv_deposited) deposited_rank = rank;
    if (unsigned_rank == 0 && !info.dnssec_signed && info.glue) {
      unsigned_rank = rank;
    }
    if (chained_rank && deposited_rank && unsigned_rank) break;
  }
  ASSERT_NE(chained_rank, 0u);
  ASSERT_NE(deposited_rank, 0u);
  ASSERT_NE(unsigned_rank, 0u);

  // Chained: secure without DLV.
  auto chained = fixture.resolver_->resolve({universe.domain_at(chained_rank), dns::RRType::kA});
  EXPECT_EQ(chained.status, resolver::ValidationStatus::kSecure);
  EXPECT_FALSE(chained.dlv.used);

  // Deposited island: secure via DLV.
  auto deposited = fixture.resolver_->resolve({universe.domain_at(deposited_rank), dns::RRType::kA});
  EXPECT_EQ(deposited.status, resolver::ValidationStatus::kSecure);
  EXPECT_TRUE(deposited.dlv.secured);

  // Unsigned: insecure, leaks to DLV (Case-2).
  auto plain = fixture.resolver_->resolve({universe.domain_at(unsigned_rank), dns::RRType::kA});
  EXPECT_EQ(plain.status, resolver::ValidationStatus::kInsecure);
  EXPECT_TRUE(plain.dlv.used || plain.dlv.suppressed_by_nsec);
}

TEST(UniverseWorldTest, OutOfBailiwickNsForcesExtraALookups) {
  WorldFixture fixture;
  const Universe& universe = fixture.world_->universe();
  std::uint64_t no_glue_rank = 0;
  for (std::uint64_t rank = 1; rank <= universe.size(); ++rank) {
    const DomainInfo info = universe.info(rank);
    if (!info.glue && !info.dnssec_signed) {
      no_glue_rank = rank;
      break;
    }
  }
  ASSERT_NE(no_glue_rank, 0u);
  const std::uint64_t a_before = fixture.network_.counters().value("query.A");
  (void)fixture.resolver_->resolve({universe.domain_at(no_glue_rank), dns::RRType::kA});
  // Resolving the provider NS host costs extra A queries beyond the chain.
  EXPECT_GE(fixture.network_.counters().value("query.A") - a_before, 3u);
}

TEST(UniverseWorldTest, StubVisitIssuesAAndAaaa) {
  WorldFixture fixture;
  const metrics::CounterSet before = fixture.network_.counters();
  const std::uint64_t a_before = before.value("query.A");
  const std::uint64_t aaaa_before = before.value("query.AAAA");
  const VisitOutcome outcome =
      fixture.stub_->visit(fixture.world_->universe().domain_at(42));
  EXPECT_TRUE(outcome.got_address);
  // counters() is a snapshot: read it again after the visit.
  const metrics::CounterSet after = fixture.network_.counters();
  EXPECT_GE(after.value("query.A") - a_before, 2u);  // stub + iterative legs
  EXPECT_GE(after.value("query.AAAA") - aaaa_before, 1u);
}

TEST(UniverseWorldTest, LeakRateIsHighForSmallSamples) {
  // The paper's headline: ~84% of the top-100 domains leak to the DLV
  // server. Calibration lives in the bench; here we assert the mechanism:
  // a large majority of fresh domains produce DLV queries.
  WorldFixture fixture(20'000);
  std::set<std::string> leaked;
  fixture.world_->registry().set_store_observations(false);
  fixture.world_->registry().set_observer([&](const dlv::Observation& obs) {
    if (!obs.had_record && !obs.domain.is_root()) {
      leaked.insert(obs.domain.internal_text());
    }
  });
  for (std::uint64_t rank = 1; rank <= 100; ++rank) {
    (void)fixture.stub_->visit(fixture.world_->universe().domain_at(rank));
  }
  EXPECT_GT(leaked.size(), 60u);
  EXPECT_LE(leaked.size(), 100u);
}

TEST(UniverseWorldTest, TxtSignalingWorldSuppressesLeaks) {
  WorldOptions options;
  options.universe.size = 5'000;
  options.txt_signaling = true;
  sim::SimClock clock;
  sim::Network network(clock);
  UniverseWorld world(options);
  resolver::ResolverConfig config =
      resolver::ResolverConfig::bind_manual_correct();
  config.honor_txt_dlv_signal = true;
  resolver::RecursiveResolver resolver(network, world.directory(), config);
  resolver.set_root_trust_anchor(world.root_trust_anchor());
  resolver.set_dlv_trust_anchor(world.registry().trust_anchor());

  std::uint64_t unsigned_rank = 0;
  for (std::uint64_t rank = 1; rank <= 5'000; ++rank) {
    if (!world.universe().info(rank).dnssec_signed) {
      unsigned_rank = rank;
      break;
    }
  }
  const auto result = resolver.resolve({world.universe().domain_at(unsigned_rank), dns::RRType::kA});
  EXPECT_FALSE(result.dlv.used);
  EXPECT_TRUE(result.dlv.suppressed_by_signal);
  EXPECT_EQ(world.registry().total_queries(), 0u);
}

TEST(UniverseWorldTest, ZBitSignalingWorldSuppressesLeaks) {
  WorldOptions options;
  options.universe.size = 5'000;
  options.z_bit_signaling = true;
  sim::SimClock clock;
  sim::Network network(clock);
  UniverseWorld world(options);
  resolver::ResolverConfig config =
      resolver::ResolverConfig::bind_manual_correct();
  config.honor_z_bit_signal = true;
  resolver::RecursiveResolver resolver(network, world.directory(), config);
  resolver.set_root_trust_anchor(world.root_trust_anchor());
  resolver.set_dlv_trust_anchor(world.registry().trust_anchor());

  std::uint64_t unsigned_rank = 0, deposited_rank = 0;
  for (std::uint64_t rank = 1; rank <= 5'000; ++rank) {
    const DomainInfo info = world.universe().info(rank);
    if (unsigned_rank == 0 && !info.dnssec_signed) unsigned_rank = rank;
    if (deposited_rank == 0 && info.dlv_deposited) deposited_rank = rank;
    if (unsigned_rank && deposited_rank) break;
  }
  const auto blocked = resolver.resolve({world.universe().domain_at(unsigned_rank), dns::RRType::kA});
  EXPECT_FALSE(blocked.dlv.used);
  EXPECT_TRUE(blocked.dlv.suppressed_by_signal);

  const auto allowed = resolver.resolve({world.universe().domain_at(deposited_rank), dns::RRType::kA});
  EXPECT_TRUE(allowed.dlv.secured);
}

// The registry zone a world builds, pinned to the byte: which ranks hold a
// DLV record, and the registry's signed DO-bit answer (records, NSEC
// denials and RRSIGs) to the DLV query of every 101st rank, folded into
// one FNV-1a 64. Denials name the canonical neighbours of the query, so
// the digest also pins the zone's canonical order.
struct RegistryDigest {
  std::size_t records = 0;
  std::uint64_t fnv = 0;
};

RegistryDigest registry_digest(std::uint64_t universe_size, bool hashed) {
  WorldOptions options;
  options.universe.size = universe_size;
  options.dlv.hashed_registration = hashed;
  UniverseWorld world(options);
  dlv::DlvRegistry& registry = world.registry();
  registry.set_store_observations(false);

  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  const auto fold = [&fnv](std::uint8_t byte) {
    fnv ^= byte;
    fnv *= 0x100000001b3ULL;
  };
  for (std::uint64_t rank = 1; rank <= universe_size; ++rank) {
    const dns::Name domain = world.universe().domain_at(rank);
    fold(registry.has_record(domain) ? 1 : 0);
    if (rank % 101 != 0) continue;
    const dns::Message query = dns::Message::make_query(
        static_cast<std::uint16_t>(rank), registry.dlv_name_for(domain),
        dns::RRType::kDlv, /*recursion_desired=*/false, /*dnssec_ok=*/true);
    for (const std::uint8_t byte :
         dns::encode_message(registry.handle_query(query))) {
      fold(byte);
    }
  }
  return {registry.record_count(), fnv};
}

TEST(UniverseWorldTest, RegistryKnownAnswer) {
  // 150k ranks reach past the tail band that starts at rank 100k.
  const RegistryDigest clear = registry_digest(150'000, /*hashed=*/false);
  EXPECT_EQ(clear.records, 9835u);
  EXPECT_EQ(clear.fnv, 15675172981805434272ULL);
  const RegistryDigest hashed = registry_digest(20'000, /*hashed=*/true);
  EXPECT_EQ(hashed.records, 1908u);
  EXPECT_EQ(hashed.fnv, 6015721227775695897ULL);
}

TEST(UniverseWorldTest, PtrLookupsAnswered) {
  WorldFixture fixture;
  const auto result = fixture.resolver_->resolve({dns::Name::parse("34.113.0.203.in-addr.arpa"), dns::RRType::kPtr});
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kNoError);
  EXPECT_NE(result.response.first_answer(dns::RRType::kPtr), nullptr);
}

}  // namespace
}  // namespace lookaside::workload
