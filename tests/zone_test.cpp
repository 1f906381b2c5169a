// Unit tests for zone data, lookup semantics, NSEC chains, signing and key
// material.
#include <gtest/gtest.h>

#include "crypto/dnssec_algo.h"
#include "zone/keys.h"
#include "zone/signed_zone.h"
#include "zone/signer.h"
#include "zone/zone.h"

namespace lookaside::zone {
namespace {

dns::SoaRdata test_soa(const dns::Name& apex) {
  dns::SoaRdata soa;
  soa.primary_ns = apex.with_prefix_label("ns1");
  soa.responsible = apex.with_prefix_label("admin");
  soa.minimum_ttl = 900;
  return soa;
}

Zone make_com_zone() {
  const dns::Name apex = dns::Name::parse("com");
  Zone zone(apex, test_soa(apex));
  // Delegations.
  zone.add(dns::ResourceRecord::make(
      dns::Name::parse("example.com"), 3600,
      dns::NsRdata{dns::Name::parse("ns1.example.com")}));
  zone.add(dns::ResourceRecord::make(dns::Name::parse("ns1.example.com"), 3600,
                                     dns::ARdata{0x01010101}));  // glue
  zone.add(dns::ResourceRecord::make(
      dns::Name::parse("signed.com"), 3600,
      dns::NsRdata{dns::Name::parse("ns1.signed.com")}));
  zone.add(dns::ResourceRecord::make(dns::Name::parse("signed.com"), 3600,
                                     dns::DsRdata{1, 8, 2, dns::Bytes(32, 9)}));
  // In-zone host.
  zone.add(dns::ResourceRecord::make(dns::Name::parse("direct.com"), 3600,
                                     dns::ARdata{0x02020202}));
  return zone;
}

TEST(ZoneTest, RejectsOutOfZoneRecords) {
  Zone zone(dns::Name::parse("com"), test_soa(dns::Name::parse("com")));
  EXPECT_THROW(zone.add(dns::ResourceRecord::make(dns::Name::parse("a.org"),
                                                  60, dns::ARdata{1})),
               std::invalid_argument);
}

TEST(ZoneTest, AnswerLookup) {
  const Zone zone = make_com_zone();
  const LookupResult result =
      zone.lookup(dns::Name::parse("direct.com"), dns::RRType::kA);
  EXPECT_EQ(result.kind, LookupKind::kAnswer);
  ASSERT_NE(result.rrset, nullptr);
  EXPECT_EQ(result.rrset->type(), dns::RRType::kA);
}

TEST(ZoneTest, ReferralAtCut) {
  const Zone zone = make_com_zone();
  const LookupResult result =
      zone.lookup(dns::Name::parse("www.example.com"), dns::RRType::kA);
  EXPECT_EQ(result.kind, LookupKind::kReferral);
  EXPECT_EQ(result.cut, dns::Name::parse("example.com"));
  EXPECT_EQ(result.ds, nullptr);  // unsigned delegation

  const LookupResult signed_result =
      zone.lookup(dns::Name::parse("signed.com"), dns::RRType::kA);
  EXPECT_EQ(signed_result.kind, LookupKind::kReferral);
  ASSERT_NE(signed_result.ds, nullptr);
}

TEST(ZoneTest, DsQueryAtCutAnsweredByParent) {
  const Zone zone = make_com_zone();
  const LookupResult ds =
      zone.lookup(dns::Name::parse("signed.com"), dns::RRType::kDs);
  EXPECT_EQ(ds.kind, LookupKind::kAnswer);
  const LookupResult no_ds =
      zone.lookup(dns::Name::parse("example.com"), dns::RRType::kDs);
  EXPECT_EQ(no_ds.kind, LookupKind::kNoData);
}

TEST(ZoneTest, NoDataAndNxDomain) {
  const Zone zone = make_com_zone();
  EXPECT_EQ(zone.lookup(dns::Name::parse("direct.com"), dns::RRType::kMx).kind,
            LookupKind::kNoData);
  EXPECT_EQ(zone.lookup(dns::Name::parse("missing.com"), dns::RRType::kA).kind,
            LookupKind::kNxDomain);
  EXPECT_EQ(zone.lookup(dns::Name::parse("else.where"), dns::RRType::kA).kind,
            LookupKind::kNxDomain);
}

TEST(ZoneTest, CnameAnswersOtherTypes) {
  Zone zone = make_com_zone();
  zone.add(dns::ResourceRecord::make(
      dns::Name::parse("alias.com"), 3600,
      dns::CnameRdata{dns::Name::parse("direct.com")}));
  const LookupResult result =
      zone.lookup(dns::Name::parse("alias.com"), dns::RRType::kA);
  EXPECT_EQ(result.kind, LookupKind::kAnswer);
  EXPECT_EQ(result.rrset->type(), dns::RRType::kCname);
}

TEST(ZoneTest, CanonicalNeighborsAndWrap) {
  const Zone zone = make_com_zone();
  // Canonical order: com < direct.com < example.com < ns1.example.com <
  // signed.com.
  // "missing" sorts after the whole example.com subtree (including the
  // glue owner ns1.example.com) and before "signed".
  EXPECT_EQ(zone.canonical_predecessor(dns::Name::parse("missing.com")),
            dns::Name::parse("ns1.example.com"));
  EXPECT_EQ(zone.canonical_successor(dns::Name::parse("signed.com")),
            dns::Name::parse("com"));  // wraps to the apex
  EXPECT_EQ(zone.canonical_successor(dns::Name::parse("com")),
            dns::Name::parse("direct.com"));
}

TEST(ZoneTest, TypesAtName) {
  const Zone zone = make_com_zone();
  const auto types = zone.types_at(dns::Name::parse("signed.com"));
  EXPECT_EQ(types.size(), 2u);  // NS + DS
  EXPECT_TRUE(zone.types_at(dns::Name::parse("nothere.com")).empty());
}

TEST(ZoneKeysTest, RecordsAndTags) {
  crypto::SplitMix64 rng(3);
  const ZoneKeys keys = ZoneKeys::generate(256, rng);
  EXPECT_FALSE(keys.zsk_record().is_ksk());
  EXPECT_TRUE(keys.ksk_record().is_ksk());
  EXPECT_NE(keys.zsk_tag(), keys.ksk_tag());
  EXPECT_EQ(keys.zsk_record().algorithm, 8);
}

TEST(ZoneKeysTest, MakeDsBindsOwnerAndKey) {
  crypto::SplitMix64 rng(4);
  const ZoneKeys keys = ZoneKeys::generate(256, rng);
  const dns::DsRdata ds1 = make_ds(dns::Name::parse("a.com"), keys.ksk_record());
  const dns::DsRdata ds2 = make_ds(dns::Name::parse("b.com"), keys.ksk_record());
  EXPECT_EQ(ds1.key_tag, keys.ksk_tag());
  EXPECT_EQ(ds1.digest_type, 2);
  EXPECT_EQ(ds1.digest.size(), 32u);
  EXPECT_NE(ds1.digest, ds2.digest);  // owner name is part of the digest
}

TEST(KeyPoolTest, DeterministicAssignment) {
  const KeyPool pool_a(4, 256, 11);
  const KeyPool pool_b(4, 256, 11);
  EXPECT_EQ(pool_a.keys_for(17).ksk_tag(), pool_b.keys_for(17).ksk_tag());
  EXPECT_EQ(pool_a.keys_for(1).ksk_tag(), pool_a.keys_for(5).ksk_tag());  // mod 4
}

class SignedZoneTest : public ::testing::Test {
 protected:
  SignedZoneTest() {
    crypto::SplitMix64 rng(5);
    zone_ = std::make_unique<SignedZone>(make_com_zone(),
                                         ZoneKeys::generate(256, rng));
  }
  std::unique_ptr<SignedZone> zone_;
};

TEST_F(SignedZoneTest, RrsigVerifiesWithZsk) {
  const dns::RRset* rrset =
      zone_->zone().find(dns::Name::parse("direct.com"), dns::RRType::kA);
  ASSERT_NE(rrset, nullptr);
  const dns::ResourceRecord rrsig = zone_->signer().rrsig_for(*rrset);
  const auto& sig = std::get<dns::RrsigRdata>(rrsig.rdata);
  EXPECT_EQ(sig.key_tag, zone_->signer().keys().zsk_tag());
  EXPECT_EQ(sig.signer, dns::Name::parse("com"));

  const auto key =
      crypto::RsaPublicKey::from_wire(zone_->signer().keys().zsk_record().public_key);
  ASSERT_TRUE(key.has_value());
  EXPECT_TRUE(crypto::verify_message(*key, dns::rrsig_signed_data(sig, *rrset),
                                     sig.signature));
}

TEST_F(SignedZoneTest, DnskeySignedWithKsk) {
  const dns::ResourceRecord rrsig = zone_->signer().rrsig_for(zone_->signer().dnskey_rrset());
  EXPECT_EQ(std::get<dns::RrsigRdata>(rrsig.rdata).key_tag,
            zone_->signer().keys().ksk_tag());
}

TEST_F(SignedZoneTest, SignatureCacheReused) {
  const dns::RRset* rrset =
      zone_->zone().find(dns::Name::parse("direct.com"), dns::RRType::kA);
  (void)zone_->signer().rrsig_for(*rrset);
  const std::size_t after_first = zone_->signer().stats().signatures;
  (void)zone_->signer().rrsig_for(*rrset);
  EXPECT_EQ(zone_->signer().stats().signatures, after_first);
}

TEST_F(SignedZoneTest, NxdomainProofCoversName) {
  const dns::Name missing = dns::Name::parse("missing.com");
  const NsecProof proof = zone_->nxdomain_proof(missing);
  const auto& nsec = std::get<dns::NsecRdata>(proof.nsec.rdata);
  // owner < missing < next (or wrap).
  EXPECT_LT(proof.nsec.name.canonical_compare(missing), 0);
  const bool wraps = nsec.next == dns::Name::parse("com");
  EXPECT_TRUE(wraps || missing.canonical_compare(nsec.next) < 0);
  // Proof signature verifies.
  const auto& sig = std::get<dns::RrsigRdata>(proof.rrsig.rdata);
  dns::RRset nsec_set(proof.nsec.name, dns::RRType::kNsec);
  nsec_set.add(proof.nsec);
  const auto key =
      crypto::RsaPublicKey::from_wire(zone_->signer().keys().zsk_record().public_key);
  EXPECT_TRUE(crypto::verify_message(
      *key, dns::rrsig_signed_data(sig, nsec_set), sig.signature));
}

TEST_F(SignedZoneTest, NodataProofOmitsType) {
  const NsecProof proof = zone_->nodata_proof(dns::Name::parse("direct.com"));
  const auto& nsec = std::get<dns::NsecRdata>(proof.nsec.rdata);
  EXPECT_EQ(proof.nsec.name, dns::Name::parse("direct.com"));
  // A exists at direct.com; MX does not.
  EXPECT_NE(std::find(nsec.types.begin(), nsec.types.end(), dns::RRType::kA),
            nsec.types.end());
  EXPECT_EQ(std::find(nsec.types.begin(), nsec.types.end(), dns::RRType::kMx),
            nsec.types.end());
}

TEST_F(SignedZoneTest, CorruptionBreaksVerification) {
  zone_->signer().set_corrupt_signatures(true);
  const dns::RRset* rrset =
      zone_->zone().find(dns::Name::parse("direct.com"), dns::RRType::kA);
  const dns::ResourceRecord rrsig = zone_->signer().rrsig_for(*rrset);
  const auto& sig = std::get<dns::RrsigRdata>(rrsig.rdata);
  const auto key =
      crypto::RsaPublicKey::from_wire(zone_->signer().keys().zsk_record().public_key);
  EXPECT_FALSE(crypto::verify_message(
      *key, dns::rrsig_signed_data(sig, *rrset), sig.signature));
  // Turning corruption off restores good signatures.
  zone_->signer().set_corrupt_signatures(false);
  const dns::ResourceRecord good = zone_->signer().rrsig_for(*rrset);
  const auto& good_sig = std::get<dns::RrsigRdata>(good.rdata);
  EXPECT_TRUE(crypto::verify_message(
      *key, dns::rrsig_signed_data(good_sig, *rrset), good_sig.signature));
}

TEST_F(SignedZoneTest, AddedRecordResignsItsRrset) {
  const dns::Name direct = dns::Name::parse("direct.com");
  (void)zone_->signer().rrsig_for(*zone_->zone().find(direct, dns::RRType::kA));
  zone_->add(dns::ResourceRecord::make(direct, 3600, dns::ARdata{0x03030303}));
  const dns::RRset* grown = zone_->zone().find(direct, dns::RRType::kA);
  ASSERT_EQ(grown->size(), 2u);
  const dns::ResourceRecord rrsig = zone_->signer().rrsig_for(*grown);
  const auto& sig = std::get<dns::RrsigRdata>(rrsig.rdata);
  const auto key = crypto::RsaPublicKey::from_wire(
      zone_->signer().keys().zsk_record().public_key);
  EXPECT_TRUE(crypto::verify_message(
      *key, dns::rrsig_signed_data(sig, *grown), sig.signature));
  EXPECT_EQ(zone_->signer().stats().resigns, 1u);
}

TEST_F(SignedZoneTest, DsForParentMatchesKsk) {
  const dns::DsRdata ds = zone_->signer().ds_for_parent();
  EXPECT_EQ(ds.key_tag, zone_->signer().keys().ksk_tag());
  EXPECT_EQ(ds, make_ds(dns::Name::parse("com"), zone_->signer().keys().ksk_record()));
}

class SignerTest : public ::testing::Test {
 protected:
  SignerTest() : signer_(dns::Name::parse("com"), make_keys()) {}

  static ZoneKeys make_keys() {
    crypto::SplitMix64 rng(5);
    return ZoneKeys::generate(256, rng);
  }

  /// A synthetic NXDOMAIN's NSEC: every missing name after "zzqq" shares
  /// its owner, and only the next name tells them apart.
  static dns::RRset white_lie(const std::string& next) {
    return nsec_rrset(dns::Name::parse("zzqq.com"), dns::Name::parse(next),
                      {dns::RRType::kNs, dns::RRType::kRrsig,
                       dns::RRType::kNsec},
                      3600);
  }

  [[nodiscard]] bool verifies(const dns::RRset& rrset,
                              const dns::ResourceRecord& rrsig) const {
    const auto& sig = std::get<dns::RrsigRdata>(rrsig.rdata);
    const auto key = crypto::RsaPublicKey::from_wire(
        signer_.keys().zsk_record().public_key);
    return crypto::verify_message(*key, dns::rrsig_signed_data(sig, rrset),
                                  sig.signature);
  }

  Signer signer_;
};

TEST_F(SignerTest, SharedOwnerRrsetsEachGetTheirOwnSignature) {
  const dns::RRset first = white_lie("zzqqa0.com");
  const dns::RRset second = white_lie("zzqqb0.com");
  EXPECT_TRUE(verifies(first, signer_.rrsig_for(first)));
  EXPECT_TRUE(verifies(second, signer_.rrsig_for(second)));
  EXPECT_TRUE(verifies(first, signer_.rrsig_for(first)));
  EXPECT_EQ(signer_.stats().signatures, 3u);
  EXPECT_EQ(signer_.stats().resigns, 2u);
  EXPECT_EQ(signer_.stats().cache_hits, 0u);

  EXPECT_TRUE(verifies(first, signer_.rrsig_for(first)));
  EXPECT_EQ(signer_.stats().signatures, 3u);
  EXPECT_EQ(signer_.stats().cache_hits, 1u);
}

TEST_F(SignerTest, TtlChangeResigns) {
  dns::RRset short_lived(dns::Name::parse("a.com"), dns::RRType::kA);
  short_lived.add(dns::ResourceRecord::make(dns::Name::parse("a.com"), 60,
                                            dns::ARdata{1}));
  dns::RRset long_lived(dns::Name::parse("a.com"), dns::RRType::kA);
  long_lived.add(dns::ResourceRecord::make(dns::Name::parse("a.com"), 3600,
                                           dns::ARdata{1}));
  (void)signer_.rrsig_for(short_lived);
  EXPECT_TRUE(verifies(long_lived, signer_.rrsig_for(long_lived)));
  EXPECT_EQ(signer_.stats().resigns, 1u);
}

TEST_F(SignerTest, AppendPushesRecordsThenTheirRrsig) {
  const dns::RRset nsec = white_lie("zzqqa0.com");
  std::vector<dns::ResourceRecord> unsigned_section;
  append(unsigned_section, nsec, nullptr);
  ASSERT_EQ(unsigned_section.size(), 1u);
  EXPECT_EQ(unsigned_section[0], nsec.records().front());

  std::vector<dns::ResourceRecord> signed_section;
  append(signed_section, nsec, &signer_);
  ASSERT_EQ(signed_section.size(), 2u);
  EXPECT_EQ(signed_section[0], nsec.records().front());
  EXPECT_EQ(std::get<dns::RrsigRdata>(signed_section[1].rdata).type_covered,
            dns::RRType::kNsec);
  EXPECT_TRUE(verifies(nsec, signed_section[1]));
}

}  // namespace
}  // namespace lookaside::zone
