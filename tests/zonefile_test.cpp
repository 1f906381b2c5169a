// Tests for the RFC 1035 master-file parser and renderer.
#include <gtest/gtest.h>

#include "zone/signed_zone.h"
#include "zone/zonefile.h"

namespace lookaside::zone {
namespace {

constexpr const char* kSampleZone = R"($ORIGIN example.com.
$TTL 3600
@   IN SOA ns1 hostmaster 2026070501 7200 3600 1209600 900
    IN NS  ns1
ns1 IN A   203.0.113.10
www 300 IN A 203.0.113.11
    IN AAAA 2001:db8::11
mail IN MX 10 mx.example.com.
txt IN TXT "dlv=1" "second"
alias IN CNAME www
sub IN NS ns1.sub
ns1.sub IN A 203.0.113.12
sub IN DS 12345 8 2 a1b2c3d4e5f60718293a4b5c6d7e8f901122334455667788990011223344aabb
)";

TEST(ZoneFileTest, ParsesSampleZone) {
  const ZoneFileResult result = parse_zone_file(kSampleZone);
  ASSERT_TRUE(result.ok()) << (result.errors.empty()
                                   ? "no zone"
                                   : result.errors[0].message);
  const Zone& zone = *result.zone;
  EXPECT_EQ(zone.apex(), dns::Name::parse("example.com"));
  EXPECT_EQ(zone.soa().serial, 2026070501u);
  EXPECT_EQ(zone.negative_ttl(), 900u);

  // Relative and absolute names resolved against $ORIGIN.
  const dns::RRset* www = zone.find(dns::Name::parse("www.example.com"),
                                    dns::RRType::kA);
  ASSERT_NE(www, nullptr);
  EXPECT_EQ(www->ttl(), 300u);  // explicit TTL beats $TTL
  EXPECT_EQ(std::get<dns::ARdata>(www->records()[0].rdata).to_text(),
            "203.0.113.11");

  // Blank-owner continuation attaches AAAA to www.
  EXPECT_NE(zone.find(dns::Name::parse("www.example.com"), dns::RRType::kAaaa),
            nullptr);

  const dns::RRset* mx =
      zone.find(dns::Name::parse("mail.example.com"), dns::RRType::kMx);
  ASSERT_NE(mx, nullptr);
  EXPECT_EQ(std::get<dns::MxRdata>(mx->records()[0].rdata).preference, 10);

  const dns::RRset* txt =
      zone.find(dns::Name::parse("txt.example.com"), dns::RRType::kTxt);
  ASSERT_NE(txt, nullptr);
  EXPECT_EQ(std::get<dns::TxtRdata>(txt->records()[0].rdata).strings,
            (std::vector<std::string>{"dlv=1", "second"}));

  const dns::RRset* ds =
      zone.find(dns::Name::parse("sub.example.com"), dns::RRType::kDs);
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(std::get<dns::DsRdata>(ds->records()[0].rdata).key_tag, 12345);

  // Delegation semantics work on the parsed zone.
  EXPECT_EQ(zone.lookup(dns::Name::parse("host.sub.example.com"),
                        dns::RRType::kA)
                .kind,
            LookupKind::kReferral);
}

TEST(ZoneFileTest, ParsesIpv6Forms) {
  const char* text = R"($ORIGIN v6.test.
@ IN SOA ns1 admin 1 2 3 4 5
full IN AAAA 2001:0db8:0000:0000:0000:0000:0000:0001
compressed IN AAAA 2001:db8::1
loopback IN AAAA ::1
)";
  const ZoneFileResult result = parse_zone_file(text);
  ASSERT_TRUE(result.ok());
  const auto* full = result.zone->find(dns::Name::parse("full.v6.test"),
                                       dns::RRType::kAaaa);
  const auto* compressed = result.zone->find(
      dns::Name::parse("compressed.v6.test"), dns::RRType::kAaaa);
  ASSERT_NE(full, nullptr);
  ASSERT_NE(compressed, nullptr);
  EXPECT_EQ(std::get<dns::AaaaRdata>(full->records()[0].rdata),
            std::get<dns::AaaaRdata>(compressed->records()[0].rdata));
}

TEST(ZoneFileTest, ReportsErrorsWithLineNumbers) {
  const char* text = R"($ORIGIN e.test.
@ IN SOA ns1 admin 1 2 3 4 5
bad IN A 999.1.2.3
worse IN AAAA zz::1
unknown IN SPF "x"
)";
  const ZoneFileResult result = parse_zone_file(text);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 3u);
  EXPECT_EQ(result.errors[0].line, 3);
  EXPECT_EQ(result.errors[1].line, 4);
  EXPECT_EQ(result.errors[2].line, 5);
}

TEST(ZoneFileTest, OutOfRangeNumbersAreLineErrors) {
  // Each line overflows its field's wire width: 32 bits for TTLs and SOA
  // fields, 16 for the MX preference and DS key tag, 8 for the DS
  // algorithm and digest type. Some values do not fit 64 bits either.
  const char* const kBadLines[] = {
      "$TTL 99999999999999999999",
      "$TTL 4294967296",
      "www 99999999999999999999 IN A 1.2.3.4",
      "www 4294967296 IN A 1.2.3.4",
      "@ IN SOA ns1 admin 99999999999999999999 2 3 4 5",
      "@ IN SOA ns1 admin 1 2 3 4 4294967296",
      "mail IN MX 70000 mx",
      "sub IN DS 70000 300 2 abcd",
      "sub IN DS 1 256 2 abcd",
      "sub IN DS 1 8 256 abcd",
      "ns1 IN A 256.1.2.3",
  };
  for (const char* line : kBadLines) {
    const std::string text =
        std::string("$ORIGIN r.test.\n@ IN SOA ns1 admin 1 2 3 4 5\n") +
        line + "\n";
    ZoneFileResult result;
    ASSERT_NO_THROW(result = parse_zone_file(text)) << line;
    ASSERT_EQ(result.errors.size(), 1u) << line;
    EXPECT_EQ(result.errors[0].line, 3) << line;
  }
}

TEST(ZoneFileTest, NumbersAtTheirWidthParse) {
  const char* text = R"($ORIGIN r.test.
$TTL 4294967295
@ IN SOA ns1 admin 4294967295 4294967295 4294967295 4294967295 4294967295
www 4294967295 IN A 255.255.255.255
mail IN MX 65535 mx
sub IN DS 65535 255 255 abcd
)";
  const ZoneFileResult result = parse_zone_file(text);
  ASSERT_TRUE(result.ok()) << (result.errors.empty()
                                   ? "no zone"
                                   : result.errors[0].message);
  const Zone& zone = *result.zone;
  EXPECT_EQ(zone.soa().serial, 4294967295u);
  EXPECT_EQ(zone.negative_ttl(), 4294967295u);
  const dns::RRset* www =
      zone.find(dns::Name::parse("www.r.test"), dns::RRType::kA);
  ASSERT_NE(www, nullptr);
  EXPECT_EQ(www->ttl(), 4294967295u);
  EXPECT_EQ(std::get<dns::ARdata>(www->records()[0].rdata).to_text(),
            "255.255.255.255");
  const dns::RRset* mx =
      zone.find(dns::Name::parse("mail.r.test"), dns::RRType::kMx);
  ASSERT_NE(mx, nullptr);
  EXPECT_EQ(mx->ttl(), 4294967295u);  // $TTL applies
  EXPECT_EQ(std::get<dns::MxRdata>(mx->records()[0].rdata).preference, 65535);
  const dns::RRset* ds =
      zone.find(dns::Name::parse("sub.r.test"), dns::RRType::kDs);
  ASSERT_NE(ds, nullptr);
  const auto& ds_rdata = std::get<dns::DsRdata>(ds->records()[0].rdata);
  EXPECT_EQ(ds_rdata.key_tag, 65535);
  EXPECT_EQ(ds_rdata.algorithm, 255);
  EXPECT_EQ(ds_rdata.digest_type, 255);
}

TEST(ZoneFileTest, RequiresSoa) {
  const ZoneFileResult result =
      parse_zone_file("$ORIGIN x.test.\nwww IN A 1.2.3.4\n");
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.zone.has_value());
}

TEST(ZoneFileTest, RejectsDuplicateSoaAndOutOfZone) {
  const char* text = R"($ORIGIN z.test.
@ IN SOA ns1 admin 1 2 3 4 5
@ IN SOA ns1 admin 2 2 3 4 5
other.example. IN A 1.2.3.4
)";
  const ZoneFileResult result = parse_zone_file(text);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.errors.size(), 2u);
}

TEST(ZoneFileTest, CommentsAndBlankLinesIgnored)
{
  const char* text = R"(
; leading comment
$ORIGIN c.test.

@ IN SOA ns1 admin 1 2 3 4 5 ; inline comment
www IN A 1.2.3.4 ; trailing
)";
  const ZoneFileResult result = parse_zone_file(text);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result.zone->find(dns::Name::parse("www.c.test"), dns::RRType::kA),
            nullptr);
}

TEST(ZoneFileTest, RenderParseRoundTrip) {
  const ZoneFileResult first = parse_zone_file(kSampleZone);
  ASSERT_TRUE(first.ok());
  const std::string rendered = render_zone_file(*first.zone);
  const ZoneFileResult second = parse_zone_file(rendered);
  ASSERT_TRUE(second.ok()) << (second.errors.empty()
                                   ? "?"
                                   : second.errors[0].message);
  EXPECT_EQ(second.zone->name_count(), first.zone->name_count());
  EXPECT_EQ(second.zone->soa().serial, first.zone->soa().serial);
  // Spot-check a record surviving the round trip.
  const auto* www = second.zone->find(dns::Name::parse("www.example.com"),
                                      dns::RRType::kA);
  ASSERT_NE(www, nullptr);
  EXPECT_EQ(std::get<dns::ARdata>(www->records()[0].rdata).to_text(),
            "203.0.113.11");
}

TEST(ZoneFileTest, ParsedZoneSignsAndServes) {
  // End-to-end: parse -> sign -> NSEC proof still holds.
  ZoneFileResult result = parse_zone_file(kSampleZone);
  ASSERT_TRUE(result.ok());
  crypto::SplitMix64 rng(21);
  SignedZone signed_zone(std::move(*result.zone),
                         ZoneKeys::generate(256, rng));
  const NsecProof proof =
      signed_zone.nxdomain_proof(dns::Name::parse("nothere.example.com"));
  EXPECT_LT(proof.nsec.name.canonical_compare(
                dns::Name::parse("nothere.example.com")),
            0);
}

}  // namespace
}  // namespace lookaside::zone
