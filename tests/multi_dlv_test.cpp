// Tests for multiple DLV registries (paper §2.3 lists several public DLV
// servers; §7.3.2: "ISC is only one of many used in the wild"). Each
// registry consulted is an additional third party observing the query.
#include <gtest/gtest.h>

#include <memory>

#include "dlv/registry.h"
#include "resolver/resolver.h"
#include "server/testbed.h"
#include "sim/clock.h"

namespace lookaside::resolver {
namespace {

class MultiDlvFixture {
 public:
  MultiDlvFixture()
      : network_(clock_),
        testbed_(server::TestbedOptions{},
                 {{"unsigned.com", false, false, false, {}},
                  {"island1.com", true, false, false, {}},
                  {"island2.com", true, false, false, {}}}),
        isc_(make_registry("dlv.isc.org", 1)),
        cert_ru_(make_registry("dlv.cert.ru", 2)) {
    // island1 deposits at ISC, island2 only at the second registry.
    isc_->deposit(dns::Name::parse("island1.com"),
                  testbed_.signed_sld("island1.com")->signer().ds_for_parent());
    cert_ru_->deposit(dns::Name::parse("island2.com"),
                      testbed_.signed_sld("island2.com")->signer().ds_for_parent());
    register_endpoint(*isc_);
    register_endpoint(*cert_ru_);

    ResolverConfig config = ResolverConfig::bind_manual_correct();
    config.additional_dlv_domains.push_back(dns::Name::parse("dlv.cert.ru"));
    resolver_ = std::make_unique<RecursiveResolver>(
        network_, testbed_.directory(), config);
    resolver_->set_root_trust_anchor(testbed_.root_trust_anchor());
    resolver_->set_dlv_trust_anchor(isc_->trust_anchor());
    resolver_->set_dlv_trust_anchor(dns::Name::parse("dlv.cert.ru"),
                                    cert_ru_->trust_anchor());
  }

  static std::unique_ptr<dlv::DlvRegistry> make_registry(
      const std::string& apex, std::uint64_t seed) {
    dlv::DlvRegistry::Options options;
    options.apex = dns::Name::parse(apex);
    options.seed = seed;
    return std::make_unique<dlv::DlvRegistry>(options);
  }

  void register_endpoint(dlv::DlvRegistry& registry) {
    testbed_.directory().register_zone(
        registry.apex(),
        std::shared_ptr<sim::Endpoint>(&registry, [](sim::Endpoint*) {}));
  }

  sim::SimClock clock_;
  sim::Network network_;
  server::Testbed testbed_;
  std::unique_ptr<dlv::DlvRegistry> isc_;
  std::unique_ptr<dlv::DlvRegistry> cert_ru_;
  std::unique_ptr<RecursiveResolver> resolver_;
};

TEST(MultiDlvTest, PrimaryRegistryHitStopsTheSearch) {
  MultiDlvFixture fixture;
  const auto result = fixture.resolver_->resolve({dns::Name::parse("island1.com"), dns::RRType::kA});
  EXPECT_TRUE(result.dlv.secured);
  EXPECT_EQ(fixture.isc_->total_queries(), 1u);
  EXPECT_EQ(fixture.cert_ru_->total_queries(), 0u);  // never consulted
}

TEST(MultiDlvTest, FallThroughFindsSecondRegistryButLeaksToFirst) {
  MultiDlvFixture fixture;
  const auto result = fixture.resolver_->resolve({dns::Name::parse("island2.com"), dns::RRType::kA});
  EXPECT_TRUE(result.dlv.secured);
  // The first registry observed the domain without having any record for
  // it — the search itself leaks to every earlier third party.
  EXPECT_GE(fixture.isc_->total_queries(), 1u);
  EXPECT_EQ(fixture.isc_->queries_with_record(), 0u);
  EXPECT_EQ(fixture.cert_ru_->queries_with_record(), 1u);
}

TEST(MultiDlvTest, UnsignedDomainLeaksToEveryRegistry) {
  MultiDlvFixture fixture;
  const auto result = fixture.resolver_->resolve({dns::Name::parse("unsigned.com"), dns::RRType::kA});
  EXPECT_EQ(result.status, ValidationStatus::kInsecure);
  // With N registries configured, the Case-2 leak is N-fold.
  EXPECT_GE(fixture.isc_->total_queries(), 1u);
  EXPECT_GE(fixture.cert_ru_->total_queries(), 1u);
  EXPECT_EQ(fixture.isc_->queries_with_record(), 0u);
  EXPECT_EQ(fixture.cert_ru_->queries_with_record(), 0u);
}

TEST(MultiDlvTest, DlvQueryNamesRecordBothApexes) {
  MultiDlvFixture fixture;
  const auto result = fixture.resolver_->resolve({dns::Name::parse("unsigned.com"), dns::RRType::kA});
  bool saw_isc = false, saw_ru = false;
  for (const dns::Name& name : result.dlv.query_names) {
    saw_isc |= name.is_subdomain_of(dns::Name::parse("dlv.isc.org"));
    saw_ru |= name.is_subdomain_of(dns::Name::parse("dlv.cert.ru"));
  }
  EXPECT_TRUE(saw_isc);
  EXPECT_TRUE(saw_ru);
}

TEST(MultiDlvTest, AggressiveCachingWorksPerRegistry) {
  MultiDlvFixture fixture;
  (void)fixture.resolver_->resolve({dns::Name::parse("unsigned.com"), dns::RRType::kA});
  const auto isc_before = fixture.isc_->total_queries();
  const auto ru_before = fixture.cert_ru_->total_queries();
  // "zebra.com" sorts after both deposits' regions... it is covered by the
  // wrap NSEC cached from the unsigned.com denial at each registry.
  (void)fixture.resolver_->resolve({dns::Name::parse("unsigned.com"), dns::RRType::kA});  // cache hit, no queries
  EXPECT_EQ(fixture.isc_->total_queries(), isc_before);
  EXPECT_EQ(fixture.cert_ru_->total_queries(), ru_before);
}

}  // namespace
}  // namespace lookaside::resolver
