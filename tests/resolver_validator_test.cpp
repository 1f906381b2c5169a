// Unit tests for DNSSEC validation primitives: RRSIG verification outcomes,
// DS/DNSKEY matching and section grouping.
#include <gtest/gtest.h>

#include "crypto/dnssec_algo.h"
#include "resolver/validator.h"
#include "zone/keys.h"

namespace lookaside::resolver {
namespace {

class ValidatorTest : public ::testing::Test {
 protected:
  ValidatorTest() : validator_(clock_) {
    crypto::SplitMix64 rng(9);
    keys_ = zone::ZoneKeys::generate(256, rng);
    dnskeys_ = dns::RRset(owner_, dns::RRType::kDnskey);
    dnskeys_.add(
        dns::ResourceRecord::make(owner_, 3600, dns::Rdata{keys_->zsk_record()}));
    dnskeys_.add(
        dns::ResourceRecord::make(owner_, 3600, dns::Rdata{keys_->ksk_record()}));

    rrset_ = dns::RRset(owner_, dns::RRType::kA);
    rrset_.add(dns::ResourceRecord::make(owner_, 300, dns::ARdata{42}));
  }

  dns::ResourceRecord make_signature(std::uint32_t inception = 0,
                                     std::uint32_t expiration = 0x7FFFFFFF,
                                     std::uint8_t algorithm = 8) {
    dns::RrsigRdata sig;
    sig.type_covered = dns::RRType::kA;
    sig.algorithm = algorithm;
    sig.labels = 2;
    sig.original_ttl = 300;
    sig.inception = inception;
    sig.expiration = expiration;
    sig.key_tag = keys_->zsk_tag();
    sig.signer = owner_;
    sig.signature =
        crypto::sign_message(keys_->zsk_private(),
                             dns::rrsig_signed_data(sig, rrset_));
    return dns::ResourceRecord::make(owner_, 300, dns::Rdata{sig});
  }

  sim::SimClock clock_;
  Validator validator_;
  dns::Name owner_ = dns::Name::parse("example.com");
  std::optional<zone::ZoneKeys> keys_;
  dns::RRset dnskeys_;
  dns::RRset rrset_;
};

TEST_F(ValidatorTest, ValidSignatureAccepted) {
  EXPECT_EQ(validator_.verify_rrset(rrset_, {make_signature()}, dnskeys_),
            SigCheck::kValid);
}

TEST_F(ValidatorTest, MissingSignatureReported) {
  EXPECT_EQ(validator_.verify_rrset(rrset_, {}, dnskeys_),
            SigCheck::kNoSignature);
}

TEST_F(ValidatorTest, TamperedSignatureInvalid) {
  dns::ResourceRecord record = make_signature();
  std::get<dns::RrsigRdata>(record.rdata).signature[5] ^= 0x01;
  EXPECT_EQ(validator_.verify_rrset(rrset_, {record}, dnskeys_),
            SigCheck::kInvalid);
}

TEST_F(ValidatorTest, TamperedDataInvalid) {
  dns::RRset tampered(owner_, dns::RRType::kA);
  tampered.add(dns::ResourceRecord::make(owner_, 300, dns::ARdata{43}));
  EXPECT_EQ(validator_.verify_rrset(tampered, {make_signature()}, dnskeys_),
            SigCheck::kInvalid);
}

TEST_F(ValidatorTest, ExpiredSignatureRejected) {
  clock_.advance_seconds(1000);
  EXPECT_EQ(validator_.verify_rrset(rrset_, {make_signature(0, 500)}, dnskeys_),
            SigCheck::kExpired);
  // Not-yet-valid signatures are "expired" too (outside the window).
  EXPECT_EQ(validator_.verify_rrset(rrset_, {make_signature(5000)}, dnskeys_),
            SigCheck::kExpired);
}

TEST_F(ValidatorTest, UnsupportedAlgorithmReported) {
  dns::ResourceRecord record = make_signature(0, 0x7FFFFFFF, /*algorithm=*/13);
  EXPECT_EQ(validator_.verify_rrset(rrset_, {record}, dnskeys_),
            SigCheck::kUnsupported);
}

TEST_F(ValidatorTest, MissingKeyReported) {
  dns::ResourceRecord record = make_signature();
  std::get<dns::RrsigRdata>(record.rdata).key_tag ^= 0xFFFF;
  EXPECT_EQ(validator_.verify_rrset(rrset_, {record}, dnskeys_),
            SigCheck::kNoMatchingKey);
}

TEST_F(ValidatorTest, SignatureForOtherOwnerIgnored) {
  dns::ResourceRecord record = make_signature();
  record.name = dns::Name::parse("other.com");
  EXPECT_EQ(validator_.verify_rrset(rrset_, {record}, dnskeys_),
            SigCheck::kNoSignature);
}

TEST_F(ValidatorTest, OneValidAmongManyWins) {
  dns::ResourceRecord bad = make_signature();
  std::get<dns::RrsigRdata>(bad.rdata).signature[0] ^= 0xFF;
  EXPECT_EQ(validator_.verify_rrset(rrset_, {bad, make_signature()}, dnskeys_),
            SigCheck::kValid);
}

TEST_F(ValidatorTest, KeyMatchesDs) {
  const dns::DsRdata ds = zone::make_ds(owner_, keys_->ksk_record());
  EXPECT_TRUE(Validator::key_matches_ds(owner_, keys_->ksk_record(), ds));
  EXPECT_FALSE(Validator::key_matches_ds(owner_, keys_->zsk_record(), ds));
  EXPECT_FALSE(Validator::key_matches_ds(dns::Name::parse("evil.com"),
                                         keys_->ksk_record(), ds));
  dns::DsRdata sha1_ds = ds;
  sha1_ds.digest_type = 1;
  EXPECT_FALSE(Validator::key_matches_ds(owner_, keys_->ksk_record(), sha1_ds));
}

TEST_F(ValidatorTest, FindDsEndorsedKey) {
  const dns::DsRdata ds = zone::make_ds(owner_, keys_->ksk_record());
  const dns::DnskeyRdata* key =
      Validator::find_ds_endorsed_key(owner_, dnskeys_, ds);
  ASSERT_NE(key, nullptr);
  EXPECT_TRUE(key->is_ksk());
  dns::DsRdata bogus = ds;
  bogus.digest[0] ^= 0x01;
  EXPECT_EQ(Validator::find_ds_endorsed_key(owner_, dnskeys_, bogus), nullptr);
}

TEST_F(ValidatorTest, ParseKeyCachesAndRejectsGarbage) {
  const crypto::RsaPublicKey* first = validator_.parse_key(keys_->zsk_record());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(validator_.parse_key(keys_->zsk_record()), first);  // same object
  dns::DnskeyRdata garbage{0x0100, 3, 8, {0x00}};
  EXPECT_EQ(validator_.parse_key(garbage), nullptr);
}

TEST_F(ValidatorTest, DegenerateKeyIsInvalidNotAnException) {
  // An RRSIG whose key tag selects a malformed DNSKEY: modulus 1 (with and
  // without leading zeros), an even modulus, one wider than the 1024-bit
  // ceiling, and a zero exponent. The key fails to parse; nothing throws.
  std::vector<dns::Bytes> bad_keys = {
      {0x01, 0x03, 0x01},
      {0x01, 0x03, 0x00, 0x00, 0x01},
      {0x01, 0x03, 0x0A},
      {0x01, 0x00, 0xC5},
  };
  dns::Bytes wide = {0x01, 0x03};
  wide.resize(2 + 300, 0xFF);
  bad_keys.push_back(wide);
  for (const dns::Bytes& public_key : bad_keys) {
    const dns::DnskeyRdata bad{dns::DnskeyRdata::kFlagZoneKey, 3, 8,
                               public_key};
    dns::RRset keys(owner_, dns::RRType::kDnskey);
    keys.add(dns::ResourceRecord::make(owner_, 3600, dns::Rdata{bad}));
    dns::ResourceRecord record = make_signature();
    std::get<dns::RrsigRdata>(record.rdata).key_tag = bad.key_tag();
    SigCheck result = SigCheck::kValid;
    EXPECT_NO_THROW(result = validator_.verify_rrset(rrset_, {record}, keys));
    EXPECT_NE(result, SigCheck::kValid);
  }
}

TEST(GroupSectionTest, GroupsByNameAndType) {
  const dns::Name a = dns::Name::parse("a.com");
  const dns::Name b = dns::Name::parse("b.com");
  std::vector<dns::ResourceRecord> section;
  section.push_back(dns::ResourceRecord::make(a, 60, dns::ARdata{1}));
  section.push_back(dns::ResourceRecord::make(b, 60, dns::ARdata{2}));
  section.push_back(dns::ResourceRecord::make(a, 60, dns::ARdata{3}));
  dns::RrsigRdata sig;
  sig.type_covered = dns::RRType::kA;
  sig.signer = a;
  section.push_back(dns::ResourceRecord::make(a, 60, dns::Rdata{sig}));

  const GroupedSection grouped = group_section(section);
  ASSERT_EQ(grouped.rrsets.size(), 2u);
  EXPECT_EQ(grouped.rrsets[0].size(), 2u);  // both a.com A records
  EXPECT_EQ(grouped.rrsigs.size(), 1u);
  EXPECT_NE(find_rrset(grouped, a, dns::RRType::kA), nullptr);
  EXPECT_NE(find_rrset(grouped, b, dns::RRType::kA), nullptr);
  EXPECT_EQ(find_rrset(grouped, a, dns::RRType::kMx), nullptr);
}

}  // namespace
}  // namespace lookaside::resolver
