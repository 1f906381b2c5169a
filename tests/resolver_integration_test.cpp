// End-to-end integration tests: testbed hierarchy + DLV registry + recursive
// resolver, exercising the paper's core scenarios (secure chain, island of
// security rescued by DLV, Case-2 leakage, aggressive negative caching,
// misconfiguration leakage, bogus data and spliced denials, remedies).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "dlv/registry.h"
#include "resolver/resolver.h"
#include "server/testbed.h"
#include "server/zone_authority.h"
#include "sim/clock.h"
#include "zone/signed_zone.h"

namespace lookaside {
namespace {

using resolver::RecursiveResolver;
using resolver::ResolveResult;
using resolver::ResolverConfig;
using resolver::ValidationStatus;

/// Shared fixture wiring the full stack.
class IntegrationFixture {
 public:
  explicit IntegrationFixture(ResolverConfig config,
                              bool deposit_island = true)
      : network_(clock_),
        testbed_(server::TestbedOptions{},
                 {
                     {"unsigned.com", false, false, false, {"www"}},
                     {"another.com", false, false, false, {}},
                     {"zebra.com", false, false, false, {}},
                     {"chained.com", true, true, false, {}},
                     {"island.com", true, false, false, {}},
                     {"island2.org", true, false, false, {}},
                     {"corrupt.com", true, true, true, {}},
                 }),
        registry_(dlv::DlvRegistry::Options{}) {
    registry_.attach_clock(clock_);
    if (deposit_island) {
      registry_.deposit(dns::Name::parse("island.com"),
                        testbed_.signed_sld("island.com")->signer().ds_for_parent());
    }
    // The registry is reachable through the directory like any authority.
    testbed_.directory().register_zone(
        registry_.apex(),
        std::shared_ptr<sim::Endpoint>(&registry_, [](sim::Endpoint*) {}));

    resolver_ = std::make_unique<RecursiveResolver>(
        network_, testbed_.directory(), std::move(config));
    resolver_->set_root_trust_anchor(testbed_.root_trust_anchor());
    resolver_->set_dlv_trust_anchor(registry_.trust_anchor());
  }

  ResolveResult resolve(const std::string& name,
                        dns::RRType type = dns::RRType::kA) {
    return resolver_->resolve({dns::Name::parse(name), type});
  }

  sim::SimClock clock_;
  sim::Network network_;
  server::Testbed testbed_;
  dlv::DlvRegistry registry_;
  std::unique_ptr<RecursiveResolver> resolver_;
};

TEST(IntegrationTest, ChainedDomainValidatesSecurelyWithoutDlv) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  const ResolveResult result = fixture.resolve("chained.com");
  EXPECT_EQ(result.status, ValidationStatus::kSecure);
  EXPECT_FALSE(result.dlv.secured);
  EXPECT_FALSE(result.dlv.used);
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kNoError);
  EXPECT_TRUE(result.response.header.ad);
  ASSERT_NE(result.response.first_answer(dns::RRType::kA), nullptr);
}

TEST(IntegrationTest, IslandOfSecurityValidatesViaDlv) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  const ResolveResult result = fixture.resolve("island.com");
  EXPECT_EQ(result.status, ValidationStatus::kSecure);
  EXPECT_TRUE(result.dlv.secured);
  EXPECT_TRUE(result.dlv.used);
  EXPECT_TRUE(result.dlv.record_found);
  ASSERT_FALSE(result.dlv.query_names.empty());
  EXPECT_EQ(result.dlv.query_names.front().to_text(),
            "island.com.dlv.isc.org.");
  // The registry observed a Case-1 query (record deposited).
  ASSERT_FALSE(fixture.registry_.observations().empty());
  EXPECT_TRUE(fixture.registry_.observations().back().had_record);
}

TEST(IntegrationTest, UnsignedDomainLeaksToDlvAsCase2) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  const ResolveResult result = fixture.resolve("unsigned.com");
  EXPECT_EQ(result.status, ValidationStatus::kInsecure);
  EXPECT_TRUE(result.dlv.used);           // the paper's privacy leak
  EXPECT_FALSE(result.dlv.record_found);
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kNoError);
  // The DLV operator observed the domain without providing any utility.
  bool saw_domain = false;
  for (const auto& observation : fixture.registry_.observations()) {
    if (observation.domain == dns::Name::parse("unsigned.com")) {
      saw_domain = true;
      EXPECT_FALSE(observation.had_record);
    }
  }
  EXPECT_TRUE(saw_domain);
}

TEST(IntegrationTest, UndepositedIslandStaysInsecure) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  const ResolveResult result = fixture.resolve("island2.org");
  EXPECT_EQ(result.status, ValidationStatus::kInsecure);
  EXPECT_TRUE(result.dlv.used);
  EXPECT_FALSE(result.dlv.record_found);
  EXPECT_FALSE(result.response.header.ad);
}

TEST(IntegrationTest, CorruptedSignaturesAreBogusServfail) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  const ResolveResult result = fixture.resolve("corrupt.com");
  EXPECT_EQ(result.status, ValidationStatus::kBogus);
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kServFail);
  EXPECT_TRUE(result.response.answers.empty());
}

TEST(IntegrationTest, BogusAnswerIsNotServedFromCache) {
  // The forged A record and its RRSIG reach the cache before validation;
  // a cached copy would read insecure, so the bogus verdict drops it.
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  for (int attempt = 0; attempt < 2; ++attempt) {
    const ResolveResult result = fixture.resolve("corrupt.com");
    EXPECT_EQ(result.status, ValidationStatus::kBogus) << attempt;
    EXPECT_EQ(result.response.header.rcode, dns::RCode::kServFail) << attempt;
    EXPECT_TRUE(result.response.answers.empty()) << attempt;
  }
  EXPECT_EQ(fixture.registry_.total_queries(), 0u);
}

/// Answers as `inner` does, except that its DS answers arrive with the
/// answer section cleared: an on-path NODATA that proves no DS absence.
class DsStripper : public sim::Endpoint {
 public:
  explicit DsStripper(std::shared_ptr<server::ZoneAuthority> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string endpoint_id() const override {
    return inner_->endpoint_id();
  }

  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override {
    dns::Message response = inner_->handle_query(query);
    if (query.question().type == dns::RRType::kDs) response.answers.clear();
    return response;
  }

 private:
  std::shared_ptr<server::ZoneAuthority> inner_;
};

TEST(IntegrationTest, StrippedDsAnswerReadsBogusWithoutLeaking) {
  // chained.com is signed and its DS sits in com. A DS denial must prove
  // DS absence: read as an insecure delegation, the stripped answer would
  // downgrade chained.com and send it to the registry (a Case-2 leak).
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  fixture.testbed_.directory().register_zone(
      dns::Name::parse("com"),
      std::make_shared<DsStripper>(fixture.testbed_.authority("com")));
  for (int attempt = 0; attempt < 2; ++attempt) {
    const ResolveResult result = fixture.resolve("chained.com");
    EXPECT_EQ(result.status, ValidationStatus::kBogus) << attempt;
    EXPECT_EQ(result.response.header.rcode, dns::RCode::kServFail) << attempt;
    EXPECT_FALSE(result.dlv.used) << attempt;
  }
  EXPECT_EQ(fixture.registry_.total_queries(), 0u);
}

TEST(IntegrationTest, SecondResolutionServedFromCacheWithoutLeak) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  (void)fixture.resolve("unsigned.com");
  const std::uint64_t dlv_queries_before = fixture.registry_.total_queries();
  const ResolveResult result = fixture.resolve("unsigned.com");
  EXPECT_TRUE(result.from_cache);
  EXPECT_FALSE(result.dlv.used);
  EXPECT_EQ(fixture.registry_.total_queries(), dlv_queries_before);
}

TEST(IntegrationTest, AggressiveNegativeCachingSuppressesSecondLeak) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  (void)fixture.resolve("unsigned.com");
  // unsigned.com's DLV NXDOMAIN cached the NSEC "island.com... -> apex
  // (wrap)", which also covers zebra.com's DLV name (canonically after
  // island.com). another.com sorts *before* island.com, so it is NOT
  // covered — exactly the order-dependence of §5.1 "Order Matters".
  const ResolveResult covered = fixture.resolve("zebra.com");
  EXPECT_EQ(covered.status, ValidationStatus::kInsecure);
  EXPECT_FALSE(covered.dlv.used);
  EXPECT_TRUE(covered.dlv.suppressed_by_nsec);
  const ResolveResult result = fixture.resolve("another.com");
  EXPECT_EQ(result.status, ValidationStatus::kInsecure);
  EXPECT_TRUE(result.dlv.used);  // not covered: a fresh NSEC range
  EXPECT_FALSE(result.dlv.suppressed_by_nsec);
}

TEST(IntegrationTest, NsecCachingOffSendsEveryQuery) {
  ResolverConfig config = ResolverConfig::bind_manual_correct();
  config.aggressive_negative_caching = false;  // NSEC3/NSEC5 world (§7.3)
  IntegrationFixture fixture(config);
  (void)fixture.resolve("unsigned.com");
  const ResolveResult result = fixture.resolve("zebra.com");
  EXPECT_TRUE(result.dlv.used);
  EXPECT_FALSE(result.dlv.suppressed_by_nsec);
}

TEST(IntegrationTest, NxDomainProvenAndCached) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  const ResolveResult first = fixture.resolve("nosuchname.com");
  EXPECT_EQ(first.response.header.rcode, dns::RCode::kNxDomain);
  EXPECT_EQ(first.status, ValidationStatus::kSecure);  // signed denial
  EXPECT_FALSE(first.dlv.used);  // negative answers are never sent to DLV
  const ResolveResult second = fixture.resolve("nosuchname.com");
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.response.header.rcode, dns::RCode::kNxDomain);
}

/// Answers as `inner` does, except that its denial for (`qname`, `qtype`)
/// carries `decoy` in place of the NSEC and the NSEC's RRSIG: a validly
/// signed span of the same zone that does not prove that denial.
class NsecSplicer : public sim::Endpoint {
 public:
  NsecSplicer(std::shared_ptr<server::ZoneAuthority> inner, dns::Name qname,
              dns::RRType qtype, zone::NsecProof decoy)
      : inner_(std::move(inner)),
        qname_(std::move(qname)),
        qtype_(qtype),
        decoy_(std::move(decoy)) {}

  [[nodiscard]] std::string endpoint_id() const override {
    return inner_->endpoint_id();
  }

  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override {
    dns::Message response = inner_->handle_query(query);
    if (query.question().name != qname_ || query.question().type != qtype_) {
      return response;
    }
    std::erase_if(response.authorities, [](const dns::ResourceRecord& record) {
      const auto* sig = std::get_if<dns::RrsigRdata>(&record.rdata);
      return record.type == dns::RRType::kNsec ||
             (sig != nullptr && sig->type_covered == dns::RRType::kNsec);
    });
    response.authorities.push_back(decoy_.nsec);
    response.authorities.push_back(decoy_.rrsig);
    return response;
  }

 private:
  std::shared_ptr<server::ZoneAuthority> inner_;
  dns::Name qname_;
  dns::RRType qtype_;
  zone::NsecProof decoy_;
};

/// Resolves (qname, qtype) under chained.com, whose authority splices the
/// proof `decoy` takes from the zone into that denial. chained.com's NSEC
/// chain is the apex -> ns1 span and the wrapping ns1 -> apex span.
template <typename Decoy>
ResolveResult resolve_spliced(const std::string& qname, dns::RRType qtype,
                              Decoy decoy) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  server::Testbed& testbed = fixture.testbed_;
  testbed.directory().register_zone(
      dns::Name::parse("chained.com"),
      std::make_shared<NsecSplicer>(testbed.authority("chained.com"),
                                    dns::Name::parse(qname), qtype,
                                    decoy(*testbed.signed_sld("chained.com"))));
  return fixture.resolve(qname, qtype);
}

TEST(IntegrationTest, SplicedNsecDoesNotProveNxDomain) {
  // alpha sorts between the apex and ns1. The wrapping span covers only
  // names after ns1, though its next name is the apex.
  const ResolveResult result = resolve_spliced(
      "alpha.chained.com", dns::RRType::kA, [](zone::SignedZone& zone) {
        return zone.nxdomain_proof(dns::Name::parse("zzz.chained.com"));
      });
  EXPECT_EQ(result.status, ValidationStatus::kBogus);
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kServFail);
}

TEST(IntegrationTest, SplicedNsecDoesNotProveNoData) {
  // ns1 exists without a TXT record; the apex NSEC's span ends at ns1.
  const ResolveResult result = resolve_spliced(
      "ns1.chained.com", dns::RRType::kTxt, [](zone::SignedZone& zone) {
        return zone.nodata_proof(dns::Name::parse("chained.com"));
      });
  EXPECT_EQ(result.status, ValidationStatus::kBogus);
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kServFail);
}

TEST(IntegrationTest, MissingTrustAnchorSendsEvenSecureDomainsToDlv) {
  // The paper's Table 3 "apt-get†"/"manual" case: validation yes, anchor
  // missing, DLV enabled -> every domain (even chained.com) leaks.
  IntegrationFixture fixture(ResolverConfig::bind_apt_get_dagger());
  const ResolveResult result = fixture.resolve("chained.com");
  EXPECT_TRUE(result.dlv.used);
  EXPECT_NE(result.status, ValidationStatus::kSecure);
}

TEST(IntegrationTest, AptGetDefaultNeverTouchesDlv) {
  IntegrationFixture fixture(ResolverConfig::bind_apt_get());
  (void)fixture.resolve("unsigned.com");
  (void)fixture.resolve("chained.com");
  (void)fixture.resolve("island.com");
  EXPECT_EQ(fixture.registry_.total_queries(), 0u);
}

TEST(IntegrationTest, YumDefaultValidatesAndOnlyIslandsTouchDlv) {
  IntegrationFixture fixture(ResolverConfig::bind_yum());
  const ResolveResult chained = fixture.resolve("chained.com");
  EXPECT_EQ(chained.status, ValidationStatus::kSecure);
  EXPECT_FALSE(chained.dlv.used);
  const ResolveResult island = fixture.resolve("island.com");
  EXPECT_TRUE(island.dlv.used);
  EXPECT_TRUE(island.dlv.secured);
}

TEST(IntegrationTest, UnboundCorrectMatchesBindCorrect) {
  IntegrationFixture fixture(ResolverConfig::unbound_correct());
  EXPECT_EQ(fixture.resolve("chained.com").status, ValidationStatus::kSecure);
  EXPECT_TRUE(fixture.resolve("island.com").dlv.secured);
  EXPECT_TRUE(fixture.resolve("unsigned.com").dlv.used);
}

TEST(IntegrationTest, UnboundManualDoesNothingDnssec) {
  IntegrationFixture fixture(ResolverConfig::unbound_manual());
  const ResolveResult result = fixture.resolve("chained.com");
  EXPECT_EQ(result.status, ValidationStatus::kIndeterminate);
  EXPECT_FALSE(result.dlv.used);
  EXPECT_EQ(fixture.registry_.total_queries(), 0u);
}

TEST(IntegrationTest, TxtRemedySuppressesCase2Leak) {
  ResolverConfig config = ResolverConfig::bind_manual_correct();
  config.honor_txt_dlv_signal = true;
  IntegrationFixture fixture(config);
  fixture.testbed_.set_txt_dlv_signal("unsigned.com", false);
  fixture.testbed_.set_txt_dlv_signal("island.com", true);

  const ResolveResult blocked = fixture.resolve("unsigned.com");
  EXPECT_FALSE(blocked.dlv.used);
  EXPECT_TRUE(blocked.dlv.suppressed_by_signal);

  const ResolveResult allowed = fixture.resolve("island.com");
  EXPECT_TRUE(allowed.dlv.used);
  EXPECT_TRUE(allowed.dlv.secured);
}

TEST(IntegrationTest, ZBitRemedySuppressesCase2Leak) {
  ResolverConfig config = ResolverConfig::bind_manual_correct();
  config.honor_z_bit_signal = true;
  IntegrationFixture fixture(config);
  fixture.testbed_.authority("island.com")->set_z_bit_signal(true);

  const ResolveResult blocked = fixture.resolve("unsigned.com");
  EXPECT_FALSE(blocked.dlv.used);
  EXPECT_TRUE(blocked.dlv.suppressed_by_signal);

  const ResolveResult allowed = fixture.resolve("island.com");
  EXPECT_TRUE(allowed.dlv.used);
  EXPECT_TRUE(allowed.dlv.secured);
}

TEST(IntegrationTest, HashedDlvHidesDomainFromRegistry) {
  ResolverConfig config = ResolverConfig::bind_manual_correct();
  config.hashed_dlv_queries = true;
  dlv::DlvRegistry::Options registry_options;
  registry_options.hashed_registration = true;

  sim::SimClock clock;
  sim::Network network(clock);
  server::Testbed testbed(server::TestbedOptions{},
                          {{"island.com", true, false, false, {}},
                           {"unsigned.com", false, false, false, {}}});
  dlv::DlvRegistry registry(registry_options);
  registry.deposit(dns::Name::parse("island.com"),
                   testbed.signed_sld("island.com")->signer().ds_for_parent());
  testbed.directory().register_zone(
      registry.apex(),
      std::shared_ptr<sim::Endpoint>(&registry, [](sim::Endpoint*) {}));
  RecursiveResolver resolver(network, testbed.directory(), config);
  resolver.set_root_trust_anchor(testbed.root_trust_anchor());
  resolver.set_dlv_trust_anchor(registry.trust_anchor());

  // Deposited domain still validates through the hash.
  const ResolveResult island = resolver.resolve({dns::Name::parse("island.com"), dns::RRType::kA});
  EXPECT_TRUE(island.dlv.secured);

  // Leaked domain: the registry sees only a hash, not the name.
  (void)resolver.resolve({dns::Name::parse("unsigned.com"), dns::RRType::kA});
  for (const auto& observation : registry.observations()) {
    EXPECT_TRUE(observation.domain.is_root())
        << "registry recovered a domain name in hashed mode: "
        << observation.domain.to_text();
  }
}

TEST(IntegrationTest, DlvOutageIsToleratedAsInsecure) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  fixture.network_.set_unreachable(fixture.registry_.endpoint_id(), true);
  const ResolveResult result = fixture.resolve("unsigned.com");
  // Lookup fails but resolution proceeds unvalidated.
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kNoError);
  EXPECT_EQ(result.status, ValidationStatus::kInsecure);
}

TEST(IntegrationTest, PhaseOutEmptyZoneStillObservesQueries) {
  // §7.3.2: ISC removed all zones but kept the service running — every
  // query is now Case-2 by construction.
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  fixture.registry_.remove_all_records();
  (void)fixture.resolve("island.com");
  EXPECT_GT(fixture.registry_.total_queries(), 0u);
  EXPECT_EQ(fixture.registry_.queries_with_record(), 0u);
}

TEST(IntegrationTest, ResponseTimeAdvancesVirtualClock) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  const std::uint64_t before = fixture.clock_.now_us();
  (void)fixture.resolve("unsigned.com");
  const std::uint64_t elapsed = fixture.clock_.now_us() - before;
  // At least root + TLD + auth round trips: 2*(30+25+10)ms = 130 ms.
  EXPECT_GT(elapsed, 100'000u);
  EXPECT_LT(elapsed, 5'000'000u);
}

TEST(IntegrationTest, QueryTypeCountersAccumulate) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  (void)fixture.resolve("unsigned.com");
  const auto& counters = fixture.network_.counters();
  EXPECT_GT(counters.value("query.A"), 0u);
  EXPECT_GT(counters.value("query.DLV"), 0u);
  EXPECT_GT(counters.value("query.DNSKEY"), 0u);
  EXPECT_GT(counters.value("query.DS"), 0u);
  EXPECT_GT(counters.value("bytes.total"), 0u);
}

TEST(IntegrationTest, StubFacingHandleQueryStripsDnssecForPlainStub) {
  IntegrationFixture fixture(ResolverConfig::bind_manual_correct());
  const dns::Message stub_query = dns::Message::make_query(
      7, dns::Name::parse("chained.com"), dns::RRType::kA,
      /*recursion_desired=*/true, /*dnssec_ok=*/false);
  const dns::Message response = fixture.resolver_->handle_query(stub_query);
  EXPECT_EQ(response.header.id, 7);
  EXPECT_FALSE(response.header.ad);
  for (const auto& record : response.answers) {
    EXPECT_NE(record.type, dns::RRType::kRrsig);
  }

  const dns::Message do_query = dns::Message::make_query(
      8, dns::Name::parse("chained.com"), dns::RRType::kA, true, true);
  const dns::Message do_response = fixture.resolver_->handle_query(do_query);
  EXPECT_TRUE(do_response.header.ad);
}

}  // namespace
}  // namespace lookaside
