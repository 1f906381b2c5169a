// The resolver's answer path: the bytes a stub receives, and the lifetime
// of answers the cache lends to a resolution (DESIGN.md §4o).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "crypto/sha256.h"
#include "dlv/registry.h"
#include "dns/codec.h"
#include "resolver/resolver.h"
#include "server/testbed.h"
#include "server/zone_authority.h"
#include "sim/clock.h"
#include "workload/universe_world.h"
#include "universe_slds.h"

namespace lookaside::resolver {
namespace {

/// The three stub flavours every query is asked under.
constexpr QueryOptions kPlainStub{.dnssec_ok = false};
constexpr QueryOptions kDnssecStub{.dnssec_ok = true};
constexpr QueryOptions kCheckingDisabled{.dnssec_ok = true,
                                         .checking_disabled = true};

/// Folds the encoded stub-facing response to each query into one SHA-256.
/// Every query is asked twice in a row: cold, then warm.
class AnswerDigest {
 public:
  void ask(RecursiveResolver& resolver, const dns::Name& name,
           dns::RRType type, QueryOptions options) {
    for (int pass = 0; pass < 2; ++pass) {
      dns::Message query = dns::Message::make_query(
          ++id_, name, type, /*recursion_desired=*/true, options.dnssec_ok);
      query.header.cd = options.checking_disabled;
      sha_.update(dns::encode_message(resolver.handle_query(query)));
    }
  }

  std::string finish() { return crypto::to_hex(sha_.finish()); }

 private:
  crypto::Sha256 sha_;
  std::uint16_t id_ = 0;
};

/// A bind_yum resolver over a fresh 1,000-domain universe world whose SLDs
/// serve the TXT signal: the A, AAAA, DNSKEY, DS and TXT answers of a
/// chained and an island SLD, A of a plain one, one NXDOMAIN and one NODATA.
void ask_universe(AnswerDigest& digest, QueryOptions options) {
  workload::WorldOptions world_options;
  world_options.universe.size = 1'000;
  world_options.txt_signaling = true;
  workload::UniverseWorld world(world_options);
  sim::SimClock clock;
  sim::Network network(clock);
  RecursiveResolver resolver(network, world.directory(),
                             ResolverConfig::bind_yum());
  resolver.set_root_trust_anchor(world.root_trust_anchor());
  resolver.set_dlv_trust_anchor(world.registry().trust_anchor());

  const universe_slds::FlavouredSlds slds =
      universe_slds::pick_slds(world.universe());
  for (const workload::DomainInfo& info : {slds.chained, slds.island}) {
    for (const dns::RRType type :
         {dns::RRType::kA, dns::RRType::kAaaa, dns::RRType::kDnskey,
          dns::RRType::kDs, dns::RRType::kTxt}) {
      digest.ask(resolver, info.name, type, options);
    }
  }
  digest.ask(resolver, slds.plain.name, dns::RRType::kA, options);
  digest.ask(resolver, slds.chained.name.with_prefix_label("mail"),
             dns::RRType::kA, options);                               // NXDOMAIN
  digest.ask(resolver, slds.chained.name, dns::RRType::kMx, options);  // NODATA
}

/// cname_test's alias (alias.aliases.com, unsigned, to the signed and
/// DS-chained target.com) chased on a Testbed.
void ask_testbed_cname(AnswerDigest& digest, QueryOptions options) {
  sim::SimClock clock;
  sim::Network network(clock);
  server::Testbed testbed(server::TestbedOptions{},
                          {{"target.com", true, true, false, {}},
                           {"aliases.com", false, false, false, {}}});
  dlv::DlvRegistry registry(dlv::DlvRegistry::Options{});
  testbed.directory().register_zone(
      registry.apex(),
      std::shared_ptr<sim::Endpoint>(&registry, [](sim::Endpoint*) {}));
  testbed.authority("aliases.com")
      ->plain_zone()
      ->add(dns::ResourceRecord::make(
          dns::Name::parse("alias.aliases.com"), 3600,
          dns::CnameRdata{dns::Name::parse("target.com")}));
  RecursiveResolver resolver(network, testbed.directory(),
                             ResolverConfig::bind_manual_correct());
  resolver.set_root_trust_anchor(testbed.root_trust_anchor());
  resolver.set_dlv_trust_anchor(registry.trust_anchor());
  digest.ask(resolver, dns::Name::parse("alias.aliases.com"), dns::RRType::kA,
             options);
}

TEST(AnswerKnownAnswer, StubFacingResponsesAreByteStable) {
  // Recorded before cache hits lent their RRsets to the response: how an
  // answer reaches the stub may change, the bytes it carries may not.
  AnswerDigest digest;
  for (const QueryOptions options :
       {kPlainStub, kDnssecStub, kCheckingDisabled}) {
    ask_universe(digest, options);
    ask_testbed_cname(digest, options);
  }
  EXPECT_EQ(digest.finish(),
            "f99c226d0917e2d4237e3c340031a1424cba2c931c77c84d63cba3182b7b58cf");
}

TEST(LentAnswerTest, KeysAndDsCachedUnvalidatedRevalidateSecure) {
  // A CD=1 query caches com's DNSKEY and chained.com's DS unvalidated. The
  // validating query then meets both in the cache, verifies them and
  // stores them again as validated: each store replaces the very entry
  // the cache lent for the check, so the resolver must have taken what it
  // needs first (ASan flags a read after the store).
  sim::SimClock clock;
  sim::Network network(clock);
  server::Testbed testbed(server::TestbedOptions{},
                          {{"chained.com", true, true, false, {}}});
  dlv::DlvRegistry registry(dlv::DlvRegistry::Options{});
  testbed.directory().register_zone(
      registry.apex(),
      std::shared_ptr<sim::Endpoint>(&registry, [](sim::Endpoint*) {}));
  RecursiveResolver resolver(network, testbed.directory(),
                             ResolverConfig::bind_manual_correct());
  resolver.set_root_trust_anchor(testbed.root_trust_anchor());
  resolver.set_dlv_trust_anchor(registry.trust_anchor());

  const dns::Name com = dns::Name::parse("com");
  const dns::Name chained = dns::Name::parse("chained.com");
  ResolverCache& cache = resolver.cache();
  EXPECT_EQ(resolver.resolve({com, dns::RRType::kDnskey, kCheckingDisabled})
                .status,
            ValidationStatus::kIndeterminate);
  EXPECT_EQ(resolver.resolve({chained, dns::RRType::kDs, kCheckingDisabled})
                .status,
            ValidationStatus::kIndeterminate);
  ASSERT_NE(cache.find(com, dns::RRType::kDnskey), nullptr);
  ASSERT_NE(cache.find(chained, dns::RRType::kDs), nullptr);
  ASSERT_EQ(cache.find_validated(com, dns::RRType::kDnskey), nullptr);
  ASSERT_EQ(cache.find_validated(chained, dns::RRType::kDs), nullptr);

  const ResolveResult result =
      resolver.resolve({chained, dns::RRType::kA, kDnssecStub});
  EXPECT_EQ(result.status, ValidationStatus::kSecure);
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kNoError);
  EXPECT_TRUE(result.response.header.ad);
  EXPECT_NE(result.response.first_answer(dns::RRType::kA), nullptr);
  EXPECT_NE(cache.find_validated(com, dns::RRType::kDnskey), nullptr);
  EXPECT_NE(cache.find_validated(chained, dns::RRType::kDs), nullptr);

  // The re-stored entries answer as validated material from now on.
  const ResolveResult keys =
      resolver.resolve({com, dns::RRType::kDnskey, kDnssecStub});
  EXPECT_TRUE(keys.from_cache);
  EXPECT_EQ(keys.status, ValidationStatus::kSecure);
  EXPECT_NE(keys.response.first_answer(dns::RRType::kRrsig), nullptr);
}

}  // namespace
}  // namespace lookaside::resolver
