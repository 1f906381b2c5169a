// Unit tests for authoritative response assembly, the server directory and
// the testbed builder.
#include <gtest/gtest.h>

#include "server/directory.h"
#include "server/testbed.h"
#include "server/zone_authority.h"

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

}  // namespace
}  // namespace lookaside::server
