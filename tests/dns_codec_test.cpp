// Wire-codec tests: round-trips for every RDATA type, header flags, name
// compression, EDNS OPT handling, NSEC bitmaps, and malformed-packet
// rejection, plus a randomized round-trip property sweep.
#include <gtest/gtest.h>

#include "crypto/rng.h"
#include "dns/codec.h"

namespace lookaside::dns {
namespace {

Message query_of(const std::string& name, RRType type) {
  return Message::make_query(0x1234, Name::parse(name), type,
                             /*recursion_desired=*/true, /*dnssec_ok=*/true);
}

TEST(CodecTest, QueryRoundTrip) {
  const Message query = query_of("www.example.com", RRType::kA);
  const Message decoded = decode_message(encode_message(query));
  EXPECT_EQ(decoded, query);
  EXPECT_TRUE(decoded.dnssec_ok);
  EXPECT_TRUE(decoded.header.rd);
  EXPECT_FALSE(decoded.header.qr);
}

TEST(CodecTest, HeaderFlagsRoundTrip) {
  Message message = query_of("example.com", RRType::kA);
  message.header.qr = true;
  message.header.aa = true;
  message.header.ra = true;
  message.header.ad = true;
  message.header.cd = true;
  message.header.z = true;  // the paper's remedy bit
  message.header.rcode = RCode::kNxDomain;
  const Message decoded = decode_message(encode_message(message));
  EXPECT_EQ(decoded.header, message.header);
  EXPECT_TRUE(decoded.header.z);
}

TEST(CodecTest, DlvQueryTypeIs32769) {
  const Message query = query_of("example.com.dlv.isc.org", RRType::kDlv);
  const Bytes wire = encode_message(query);
  const Message decoded = decode_message(wire);
  EXPECT_EQ(static_cast<std::uint16_t>(decoded.question().type), 32769);
}

TEST(CodecTest, AllRdataTypesRoundTrip) {
  Message response = Message::make_response(query_of("example.com", RRType::kA));
  const Name owner = Name::parse("example.com");
  response.answers.push_back(
      ResourceRecord::make(owner, 300, ARdata{0x5DB8D822}));
  AaaaRdata aaaa;
  for (int i = 0; i < 16; ++i) aaaa.address[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  response.answers.push_back(ResourceRecord::make(owner, 300, aaaa));
  response.answers.push_back(ResourceRecord::make(
      owner, 300, CnameRdata{Name::parse("alias.example.com")}));
  response.answers.push_back(ResourceRecord::make(
      owner, 300, MxRdata{10, Name::parse("mail.example.com")}));
  response.answers.push_back(ResourceRecord::make(
      owner, 300, TxtRdata{{"dlv=1", "second string"}}));
  response.answers.push_back(ResourceRecord::make(
      Name::parse("4.3.2.1.in-addr.arpa"), 300,
      PtrRdata{Name::parse("host.example.com")}));
  response.authorities.push_back(ResourceRecord::make(
      owner, 3600, NsRdata{Name::parse("ns1.example.com")}));
  response.authorities.push_back(ResourceRecord::make(
      owner, 3600,
      SoaRdata{Name::parse("ns1.example.com"), Name::parse("admin.example.com"),
               2024010101, 7200, 3600, 1209600, 3600}));
  response.authorities.push_back(ResourceRecord::make(
      owner, 3600, DnskeyRdata{0x0101, 3, 8, {0x01, 0x00, 0x01, 0xab}}));
  response.authorities.push_back(ResourceRecord::make(
      owner, 3600, DsRdata{12345, 8, 2, Bytes(32, 0xcd)}));
  RrsigRdata sig;
  sig.type_covered = RRType::kA;
  sig.algorithm = 8;
  sig.labels = 2;
  sig.original_ttl = 300;
  sig.expiration = 1000000;
  sig.inception = 900000;
  sig.key_tag = 4242;
  sig.signer = owner;
  sig.signature = Bytes(64, 0x5a);
  response.authorities.push_back(ResourceRecord::make(owner, 300, sig));
  response.authorities.push_back(ResourceRecord::make(
      owner, 3600,
      NsecRdata{Name::parse("next.example.com"),
                {RRType::kA, RRType::kNs, RRType::kRrsig, RRType::kNsec}}));

  const Message decoded = decode_message(encode_message(response));
  EXPECT_EQ(decoded, response);
}

TEST(CodecTest, DlvRecordKeepsItsType) {
  Message response =
      Message::make_response(query_of("example.com.dlv.isc.org", RRType::kDlv));
  response.answers.push_back(ResourceRecord::make_typed(
      Name::parse("example.com.dlv.isc.org"), RRType::kDlv, 3600,
      DsRdata{1, 8, 2, Bytes(32, 0x11)}));
  const Message decoded = decode_message(encode_message(response));
  ASSERT_EQ(decoded.answers.size(), 1u);
  EXPECT_EQ(decoded.answers[0].type, RRType::kDlv);
  EXPECT_EQ(decoded, response);
}

TEST(CodecTest, NsecBitmapCoversHighTypes) {
  // DLV = 32769 lives in bitmap window 128; make sure it survives.
  Message response = Message::make_response(query_of("x.dlv.isc.org", RRType::kDlv));
  response.authorities.push_back(ResourceRecord::make(
      Name::parse("a.dlv.isc.org"), 3600,
      NsecRdata{Name::parse("b.dlv.isc.org"),
                {RRType::kDlv, RRType::kRrsig, RRType::kNsec}}));
  const Message decoded = decode_message(encode_message(response));
  const auto& nsec = std::get<NsecRdata>(decoded.authorities[0].rdata);
  EXPECT_EQ(nsec.types,
            (std::vector<RRType>{RRType::kRrsig, RRType::kNsec, RRType::kDlv}));
}

TEST(CodecTest, CompressionShrinksRepeatedNames) {
  Message response = Message::make_response(query_of("example.com", RRType::kNs));
  for (int i = 0; i < 4; ++i) {
    response.answers.push_back(ResourceRecord::make(
        Name::parse("example.com"), 3600,
        NsRdata{Name::parse("ns" + std::to_string(i) + ".example.com")}));
  }
  const Bytes wire = encode_message(response);
  // Owner name appears 4 times; compression caps each repeat at 2 bytes.
  // Uncompressed owner is 13 bytes; expect at least 3*(13-2) savings.
  Message no_compress = response;
  std::size_t naive = wire.size();
  (void)no_compress;
  EXPECT_LT(naive, 200u);
  EXPECT_EQ(decode_message(wire), response);
}

TEST(CodecTest, EdnsOptRecordCarriesDoBit) {
  Message query = query_of("example.com", RRType::kA);
  query.udp_payload_size = 1232;
  const Bytes wire = encode_message(query);
  const Message decoded = decode_message(wire);
  EXPECT_TRUE(decoded.edns);
  EXPECT_TRUE(decoded.dnssec_ok);
  EXPECT_EQ(decoded.udp_payload_size, 1232);
  // A non-EDNS query is 11 bytes of OPT smaller.
  Message plain = query;
  plain.edns = false;
  plain.dnssec_ok = false;
  EXPECT_EQ(wire.size() - encode_message(plain).size(), 11u);
}

TEST(CodecTest, RejectsTruncatedPacket) {
  const Bytes wire = encode_message(query_of("example.com", RRType::kA));
  for (std::size_t cut = 1; cut < wire.size(); cut += 3) {
    Bytes truncated(wire.begin(), wire.end() - static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_message(truncated), WireFormatError) << cut;
  }
}

TEST(CodecTest, RejectsTrailingGarbage) {
  Bytes wire = encode_message(query_of("example.com", RRType::kA));
  wire.push_back(0x00);
  EXPECT_THROW((void)decode_message(wire), WireFormatError);
}

TEST(CodecTest, RejectsPointerLoop) {
  // Hand-craft a packet whose question name points at itself.
  ByteWriter writer;
  writer.u16(1);     // id
  writer.u16(0);     // flags
  writer.u16(1);     // qdcount
  writer.u16(0);
  writer.u16(0);
  writer.u16(0);
  writer.u16(0xC00C);  // pointer to offset 12 == itself
  writer.u16(1);       // qtype
  writer.u16(1);       // qclass
  EXPECT_THROW((void)decode_message(writer.bytes()), WireFormatError);
}

TEST(CodecTest, RejectsQdcountDisagreeingWithQuestionSection) {
  // A response claiming QDCOUNT=2 but carrying one question followed by an
  // answer record: the decoder must refuse rather than consume the answer's
  // bytes as a phantom second question (the serve path decodes untrusted
  // wire on every request).
  Message message = query_of("example.com", RRType::kA);
  message.header.qr = true;
  message.answers.push_back(ResourceRecord::make(
      Name::parse("example.com"), 3600, ARdata{0x5DB8D822}));
  Bytes wire = encode_message(message);
  wire[4] = 0x00;  // QDCOUNT high byte
  wire[5] = 0x02;  // QDCOUNT low byte: claims two questions
  EXPECT_THROW((void)decode_message(wire), WireFormatError);
}

/// Writes `labels` as raw wire labels (length octet + bytes each, no
/// checks) followed by the root label.
void write_raw_name(ByteWriter& writer,
                    const std::vector<std::string>& labels) {
  for (const std::string& label : labels) {
    writer.u8(static_cast<std::uint8_t>(label.size()));
    writer.raw(reinterpret_cast<const std::uint8_t*>(label.data()),
               label.size());
  }
  writer.u8(0);
}

/// A query whose QNAME is `labels`, byte for byte.
Bytes raw_query(const std::vector<std::string>& labels) {
  ByteWriter writer;
  for (const std::uint16_t field : {0x1234, 0x0100, 1, 0, 0, 0}) {
    writer.u16(field);  // id, flags (RD), QDCOUNT=1, AN/NS/ARCOUNT=0
  }
  write_raw_name(writer, labels);
  writer.u16(static_cast<std::uint16_t>(RRType::kA));
  writer.u16(static_cast<std::uint16_t>(RRClass::kIn));
  return writer.take();
}

/// A response for example.com whose one NS answer targets `labels`, byte
/// for byte (the RDATA name path, not the compressed-owner path).
Bytes raw_ns_response(const std::vector<std::string>& labels) {
  ByteWriter writer;
  for (const std::uint16_t field : {0x1234, 0x8000, 1, 1, 0, 0}) {
    writer.u16(field);  // id, flags (QR), QDCOUNT=1, ANCOUNT=1
  }
  write_raw_name(writer, {"example", "com"});
  writer.u16(static_cast<std::uint16_t>(RRType::kNs));
  writer.u16(static_cast<std::uint16_t>(RRClass::kIn));
  writer.u16(0xC00C);  // owner: pointer to the question name
  writer.u16(static_cast<std::uint16_t>(RRType::kNs));
  writer.u16(static_cast<std::uint16_t>(RRClass::kIn));
  writer.u32(3600);
  ByteWriter target;
  write_raw_name(target, labels);
  writer.u16(static_cast<std::uint16_t>(target.size()));
  writer.raw(target.bytes());
  return writer.take();
}

TEST(CodecTest, RejectsNamesOver255Octets) {
  // Five 63-octet labels: 5 * 64 + 1 = 321 octets on the wire.
  const std::vector<std::string> too_long(5, std::string(63, 'a'));
  EXPECT_THROW((void)decode_message(raw_query(too_long)), WireFormatError);
  EXPECT_THROW((void)decode_message(raw_ns_response(too_long)),
               WireFormatError);

  // 3 * 64 + 62 + 1 = 255 octets: exactly at the limit, still a name.
  const std::vector<std::string> at_limit = {
      std::string(63, 'a'), std::string(63, 'b'), std::string(63, 'c'),
      std::string(61, 'd')};
  EXPECT_EQ(decode_message(raw_query(at_limit)).question().name.wire_length(),
            255u);
  const Message response = decode_message(raw_ns_response(at_limit));
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_EQ(std::get<NsRdata>(response.answers[0].rdata)
                .nameserver.wire_length(),
            255u);
}

TEST(CodecTest, RejectsDotOctetInsideALabel) {
  // Dotted text cannot carry a '.' octet: a label "." would read as an
  // empty label and "a.b" as two labels, so both are malformed here.
  const std::vector<std::vector<std::string>> malformed = {{"."},
                                                           {"a.b", "com"}};
  for (const std::vector<std::string>& labels : malformed) {
    EXPECT_THROW((void)decode_message(raw_query(labels)), WireFormatError);
    EXPECT_THROW((void)decode_message(raw_ns_response(labels)),
                 WireFormatError);
  }
}

TEST(CodecPropertyTest, RandomMessagesRoundTrip) {
  crypto::SplitMix64 rng(2026);
  const char* tlds[] = {"com", "net", "org", "edu"};
  for (int iteration = 0; iteration < 300; ++iteration) {
    Message message;
    message.header.id = static_cast<std::uint16_t>(rng.next());
    message.header.qr = rng.next_below(2);
    message.header.rd = rng.next_below(2);
    message.header.ad = rng.next_below(2);
    message.header.z = rng.next_below(2);
    message.header.rcode = rng.next_below(4) == 0 ? RCode::kNxDomain : RCode::kNoError;
    message.edns = rng.next_below(2);
    message.dnssec_ok = message.edns && rng.next_below(2);

    const Name name = Name::parse(
        "d" + std::to_string(rng.next_below(100000)) + "." + tlds[rng.next_below(4)]);
    message.questions.push_back(Question{name, RRType::kA, RRClass::kIn});

    const std::size_t answer_count = rng.next_below(4);
    for (std::size_t i = 0; i < answer_count; ++i) {
      switch (rng.next_below(4)) {
        case 0:
          message.answers.push_back(ResourceRecord::make(
              name, static_cast<std::uint32_t>(rng.next_below(86400)),
              ARdata{static_cast<std::uint32_t>(rng.next())}));
          break;
        case 1:
          message.answers.push_back(ResourceRecord::make(
              name, 60, TxtRdata{{std::string(rng.next_below(50), 't')}}));
          break;
        case 2:
          message.answers.push_back(ResourceRecord::make(
              name, 60, NsRdata{Name::parse("ns." + name.internal_text())}));
          break;
        default:
          message.answers.push_back(ResourceRecord::make(
              name, 60, DsRdata{static_cast<std::uint16_t>(rng.next()), 8, 2,
                                Bytes(32, static_cast<std::uint8_t>(rng.next()))}));
      }
    }
    const Message decoded = decode_message(encode_message(message));
    EXPECT_EQ(decoded, message) << "iteration " << iteration;
  }
}

}  // namespace
}  // namespace lookaside::dns
