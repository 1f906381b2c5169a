// Unit tests for authoritative response assembly, the server directory,
// the testbed and the synthetic universe's authorities.
#include <gtest/gtest.h>

#include "crypto/dnssec_algo.h"
#include "crypto/sha256.h"
#include "dns/codec.h"
#include "resolver/resolver.h"
#include "server/directory.h"
#include "server/testbed.h"
#include "server/zone_authority.h"
#include "workload/universe_world.h"
#include "universe_slds.h"

namespace lookaside::server {
namespace {

dns::Message query(const std::string& name, dns::RRType type,
                   bool dnssec_ok = true) {
  return dns::Message::make_query(3, dns::Name::parse(name), type, false,
                                  dnssec_ok);
}

class ZoneAuthorityTest : public ::testing::Test {
 protected:
  ZoneAuthorityTest()
      : testbed_(TestbedOptions{},
                 {{"plain.com", false, false, false, {"www"}},
                  {"secure.com", true, true, false, {}}}) {}
  Testbed testbed_;
};

TEST_F(ZoneAuthorityTest, AuthoritativeAnswerSetsAa) {
  auto authority = testbed_.authority("plain.com");
  const dns::Message response =
      authority->handle_query(query("plain.com", dns::RRType::kA));
  EXPECT_TRUE(response.header.aa);
  EXPECT_EQ(response.header.rcode, dns::RCode::kNoError);
  ASSERT_NE(response.first_answer(dns::RRType::kA), nullptr);
}

TEST_F(ZoneAuthorityTest, UnsignedZoneHasNoDnssecRecords) {
  auto authority = testbed_.authority("plain.com");
  const dns::Message response =
      authority->handle_query(query("plain.com", dns::RRType::kA));
  for (const auto& record : response.answers) {
    EXPECT_NE(record.type, dns::RRType::kRrsig);
  }
  EXPECT_FALSE(authority->is_signed());
}

TEST_F(ZoneAuthorityTest, SignedZoneAttachesRrsigOnlyWhenDoSet) {
  auto authority = testbed_.authority("secure.com");
  EXPECT_TRUE(authority->is_signed());
  const dns::Message with_do =
      authority->handle_query(query("secure.com", dns::RRType::kA, true));
  bool has_rrsig = false;
  for (const auto& record : with_do.answers) {
    has_rrsig |= record.type == dns::RRType::kRrsig;
  }
  EXPECT_TRUE(has_rrsig);

  const dns::Message without_do =
      authority->handle_query(query("secure.com", dns::RRType::kA, false));
  for (const auto& record : without_do.answers) {
    EXPECT_NE(record.type, dns::RRType::kRrsig);
  }
}

TEST_F(ZoneAuthorityTest, TldReferralCarriesGlueAndDsOrDenial) {
  auto tld = testbed_.authority("com");
  const dns::Message secure_referral =
      tld->handle_query(query("secure.com", dns::RRType::kA));
  EXPECT_FALSE(secure_referral.header.aa);
  bool has_ns = false, has_ds = false, has_glue = false;
  for (const auto& record : secure_referral.authorities) {
    has_ns |= record.type == dns::RRType::kNs;
    has_ds |= record.type == dns::RRType::kDs;
  }
  for (const auto& record : secure_referral.additionals) {
    has_glue |= record.type == dns::RRType::kA;
  }
  EXPECT_TRUE(has_ns);
  EXPECT_TRUE(has_ds);
  EXPECT_TRUE(has_glue);

  const dns::Message plain_referral =
      tld->handle_query(query("plain.com", dns::RRType::kA));
  bool has_nsec = false;
  for (const auto& record : plain_referral.authorities) {
    EXPECT_NE(record.type, dns::RRType::kDs);
    has_nsec |= record.type == dns::RRType::kNsec;
  }
  EXPECT_TRUE(has_nsec);  // proof there is no DS
}

TEST_F(ZoneAuthorityTest, NxdomainFromSignedZoneHasSoaAndNsec) {
  auto tld = testbed_.authority("com");
  const dns::Message response =
      tld->handle_query(query("missing.com", dns::RRType::kA));
  EXPECT_EQ(response.header.rcode, dns::RCode::kNxDomain);
  bool has_soa = false, has_nsec = false;
  for (const auto& record : response.authorities) {
    has_soa |= record.type == dns::RRType::kSoa;
    has_nsec |= record.type == dns::RRType::kNsec;
  }
  EXPECT_TRUE(has_soa);
  EXPECT_TRUE(has_nsec);
}

TEST_F(ZoneAuthorityTest, ApexDnskeyServedFromSigningState) {
  auto authority = testbed_.authority("secure.com");
  const dns::Message response =
      authority->handle_query(query("secure.com", dns::RRType::kDnskey));
  int dnskeys = 0;
  for (const auto& record : response.answers) {
    dnskeys += record.type == dns::RRType::kDnskey;
  }
  EXPECT_EQ(dnskeys, 2);  // ZSK + KSK
}

TEST_F(ZoneAuthorityTest, ZBitSignalRidesAnswers) {
  auto authority = testbed_.authority("plain.com");
  EXPECT_FALSE(authority->handle_query(query("plain.com", dns::RRType::kA))
                   .header.z);
  authority->set_z_bit_signal(true);
  EXPECT_TRUE(authority->handle_query(query("plain.com", dns::RRType::kA))
                  .header.z);
}

TEST_F(ZoneAuthorityTest, TxtSignalInjection) {
  testbed_.set_txt_dlv_signal("plain.com", false);
  auto authority = testbed_.authority("plain.com");
  const dns::Message response =
      authority->handle_query(query("plain.com", dns::RRType::kTxt));
  const auto* txt_record = response.first_answer(dns::RRType::kTxt);
  ASSERT_NE(txt_record, nullptr);
  EXPECT_EQ(std::get<dns::TxtRdata>(txt_record->rdata).strings[0], "dlv=0");
  EXPECT_THROW(testbed_.set_txt_dlv_signal("nope.com", true),
               std::invalid_argument);
}

TEST_F(ZoneAuthorityTest, ZoneEditResignsTheChangedApexNsec) {
  // The apex NSEC is signed and cached before the TXT record lands; the
  // record adds TXT to its bitmap, and the denial must be signed anew.
  auto authority = testbed_.authority("secure.com");
  const auto apex_nsec_verifies = [&] {
    const dns::Message response =
        authority->handle_query(query("secure.com", dns::RRType::kMx));
    dns::RRset nsec(dns::Name::parse("secure.com"), dns::RRType::kNsec);
    const dns::RrsigRdata* sig = nullptr;
    for (const auto& record : response.authorities) {
      if (record.type == dns::RRType::kNsec) nsec.add(record);
      const auto* rrsig = std::get_if<dns::RrsigRdata>(&record.rdata);
      if (rrsig != nullptr && rrsig->type_covered == dns::RRType::kNsec) {
        sig = rrsig;
      }
    }
    const auto key = crypto::RsaPublicKey::from_wire(
        authority->signed_zone()->signer().keys().zsk_record().public_key);
    return sig != nullptr &&
           crypto::verify_message(*key, dns::rrsig_signed_data(*sig, nsec),
                                  sig->signature);
  };
  EXPECT_TRUE(apex_nsec_verifies());
  testbed_.set_txt_dlv_signal("secure.com", true);
  EXPECT_TRUE(apex_nsec_verifies());
}

TEST(ServerDirectoryTest, DeepestMatchAndFallback) {
  ServerDirectory directory;

  class Dummy : public sim::Endpoint {
   public:
    explicit Dummy(std::string id) : id_(std::move(id)) {}
    [[nodiscard]] std::string endpoint_id() const override { return id_; }
    [[nodiscard]] dns::Message handle_query(const dns::Message& q) override {
      return dns::Message::make_response(q);
    }
   private:
    std::string id_;
  };

  auto root = std::make_shared<Dummy>("root");
  auto com = std::make_shared<Dummy>("tld:com");
  directory.register_zone(dns::Name::root(), root);
  directory.register_zone(dns::Name::parse("com"), com);

  EXPECT_EQ(directory.authority_for_zone(dns::Name::parse("com")), com.get());
  EXPECT_EQ(directory.authority_for_zone(dns::Name::parse("net")), nullptr);

  auto fallback = std::make_shared<Dummy>("auth:universe");
  directory.set_fallback(
      [&fallback](const dns::Name&) { return fallback.get(); });
  EXPECT_EQ(directory.authority_for_zone(dns::Name::parse("x.org")),
            fallback.get());
  // Registered zones still win over the fallback.
  EXPECT_EQ(directory.authority_for_zone(dns::Name::parse("com")), com.get());
}

TEST(TestbedTest, RejectsBareTldAsSld) {
  EXPECT_THROW(Testbed(TestbedOptions{}, {{"com", false, false, false, {}}}),
               std::invalid_argument);
}

TEST(TestbedTest, SignedSldAccessors) {
  Testbed testbed(TestbedOptions{}, {{"a.com", true, true, false, {}},
                                     {"b.com", false, false, false, {}}});
  EXPECT_NE(testbed.signed_sld("a.com"), nullptr);
  EXPECT_EQ(testbed.signed_sld("b.com"), nullptr);
  EXPECT_EQ(testbed.signed_sld("missing.com"), nullptr);
  EXPECT_NE(testbed.authority(""), nullptr);     // root
  EXPECT_NE(testbed.authority("com"), nullptr);  // TLD
  EXPECT_EQ(testbed.sld_names().size(), 2u);
}

// --- Universe authorities ---------------------------------------------------

using universe_slds::FlavouredSlds;
using universe_slds::pick_slds;

/// SHA-256 over the wire answers of one world's root, TLD, SLD, reverse and
/// registry authorities to a fixed query set, each asked with DO=0 and
/// DO=1. No two NXDOMAIN names share a synthetic NSEC owner.
std::string authority_digest(bool nsec3_registry) {
  workload::WorldOptions options;
  options.universe.size = 5'000;
  options.txt_signaling = true;
  options.dlv.nsec3_enabled = nsec3_registry;
  options.dlv.nsec3_iterations = 3;
  options.dlv.nsec3_salt = {0xAB, 0xCD};
  workload::UniverseWorld world(options);
  const FlavouredSlds slds = pick_slds(world.universe());

  crypto::Sha256 sha;
  std::uint16_t id = 0;
  const auto ask = [&](const dns::Name& zone, const dns::Name& qname,
                       dns::RRType type) {
    sim::Endpoint* authority = world.directory().authority_for_zone(zone);
    ASSERT_NE(authority, nullptr) << zone.to_text();
    for (const bool dnssec_ok : {false, true}) {
      sha.update(dns::encode_message(authority->handle_query(
          dns::Message::make_query(++id, qname, type, false, dnssec_ok))));
    }
  };
  const auto ask_apex = [&](const dns::Name& apex) {
    for (const dns::RRType type :
         {dns::RRType::kA, dns::RRType::kAaaa, dns::RRType::kNs,
          dns::RRType::kSoa, dns::RRType::kDs, dns::RRType::kDnskey,
          dns::RRType::kTxt}) {
      ask(apex, apex, type);
    }
  };
  const dns::Name root = dns::Name::root();
  const dns::Name com = dns::Name::parse("com");

  ask_apex(root);
  ask(root, com, dns::RRType::kDs);
  ask(root, dns::Name::parse("www.example.com"), dns::RRType::kA);
  ask(root, dns::Name::parse("nosuchtld"), dns::RRType::kA);

  ask_apex(com);
  ask(com, dns::Name::parse("zzqqa.com"), dns::RRType::kA);
  ask(com, dns::Name::parse("qqxxb.com"), dns::RRType::kMx);

  dlv::DlvRegistry& registry = world.registry();
  for (const workload::DomainInfo& info :
       {slds.chained, slds.island, slds.plain}) {
    const dns::Name www = info.name.with_prefix_label("www");
    ask(info.name.parent(), info.name, dns::RRType::kDs);
    ask(info.name.parent(), www, dns::RRType::kA);
    ask_apex(info.name);
    ask(info.name, www, dns::RRType::kA);
    ask(info.name, www, dns::RRType::kAaaa);
    ask(info.name, info.name, dns::RRType::kMx);
    ask(info.name, info.name.with_prefix_label("mail"), dns::RRType::kA);
    ask(registry.apex(), registry.dlv_name_for(info.name), dns::RRType::kDlv);
  }
  const dns::Name provider_host =
      world.universe().provider_ns_host(slds.plain.provider);
  ask(provider_host, provider_host, dns::RRType::kA);
  ask(provider_host, provider_host, dns::RRType::kMx);

  ask_apex(registry.apex());
  const dns::Name arpa = dns::Name::parse("in-addr.arpa");
  ask(arpa, dns::Name::parse("34.113.0.203.in-addr.arpa"), dns::RRType::kPtr);
  ask(arpa, arpa, dns::RRType::kSoa);
  return crypto::to_hex(sha.finish());
}

TEST(AuthorityKnownAnswer, UniverseAnswersAreByteStable) {
  EXPECT_EQ(authority_digest(/*nsec3_registry=*/false),
            "0b32dc829fd9c42f7fc8b25ea0f3002e372c7f00d260c947a5583ee827f6eb68");
  EXPECT_EQ(authority_digest(/*nsec3_registry=*/true),
            "6cd4a1fc238a1c28a151b784d61dab179a52857c67deb5cb3d8e47fda2aa1ac7");
}

TEST(UniverseAuthorityTest, WhiteLieNsecsCarryTheirOwnSignatures) {
  workload::WorldOptions options;
  options.universe.size = 5'000;
  workload::UniverseWorld world(options);
  sim::SimClock clock;
  sim::Network network(clock);
  resolver::RecursiveResolver resolver(network, world.directory(),
                                       resolver::ResolverConfig::bind_yum());
  resolver.set_root_trust_anchor(world.root_trust_anchor());
  resolver.set_dlv_trust_anchor(world.registry().trust_anchor());

  // Each name's NXDOMAIN NSEC has the owner of the one before it:
  // mai.<sld> under a signed, DS-registered SLD, then zzqq.com.
  const dns::Name sld = pick_slds(world.universe()).chained.name;
  for (const dns::Name& missing :
       {sld.with_prefix_label("mail"), sld.with_prefix_label("maiz"),
        sld.with_prefix_label("maia"), dns::Name::parse("zzqqa.com"),
        dns::Name::parse("zzqqb.com"), dns::Name::parse("zzqqc.com")}) {
    const resolver::ResolveResult result =
        resolver.resolve({missing, dns::RRType::kA});
    EXPECT_EQ(result.response.header.rcode, dns::RCode::kNxDomain)
        << missing.to_text();
    EXPECT_EQ(result.status, resolver::ValidationStatus::kSecure)
        << missing.to_text();
  }
}

}  // namespace
}  // namespace lookaside::server
