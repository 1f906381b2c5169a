#include "dns/rdata.h"

#include <algorithm>

#include "crypto/dnssec_algo.h"

namespace lookaside::dns {

namespace {

void encode_name(const Name& name, ByteWriter& writer) {
  writer.raw(name.to_wire());
}

/// Encodes the RFC 4034 §4.1.2 type bitmap for NSEC records.
void encode_type_bitmap(const std::vector<RRType>& types, ByteWriter& writer) {
  std::vector<std::uint16_t> values;
  values.reserve(types.size());
  for (RRType t : types) values.push_back(static_cast<std::uint16_t>(t));
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  std::size_t i = 0;
  while (i < values.size()) {
    const std::uint8_t window = static_cast<std::uint8_t>(values[i] >> 8);
    std::array<std::uint8_t, 32> bitmap{};
    std::size_t max_byte = 0;
    while (i < values.size() && (values[i] >> 8) == window) {
      const std::uint8_t low = static_cast<std::uint8_t>(values[i]);
      const std::size_t byte_index = low / 8;
      bitmap[byte_index] |= static_cast<std::uint8_t>(0x80 >> (low % 8));
      max_byte = std::max(max_byte, byte_index);
      ++i;
    }
    writer.u8(window);
    writer.u8(static_cast<std::uint8_t>(max_byte + 1));
    writer.raw(bitmap.data(), max_byte + 1);
  }
}

std::vector<RRType> decode_type_bitmap(ByteReader& reader, std::size_t end) {
  std::vector<RRType> types;
  while (reader.position() < end) {
    const std::uint8_t window = reader.u8();
    const std::uint8_t length = reader.u8();
    if (length == 0 || length > 32) throw WireFormatError("bad NSEC bitmap");
    const Bytes bitmap = reader.raw(length);
    for (std::size_t byte = 0; byte < bitmap.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        if (bitmap[byte] & (0x80 >> bit)) {
          types.push_back(static_cast<RRType>(
              (static_cast<std::uint16_t>(window) << 8) | (byte * 8 + bit)));
        }
      }
    }
  }
  if (reader.position() != end) throw WireFormatError("NSEC bitmap overrun");
  return types;
}

}  // namespace

std::string ARdata::to_text() const {
  return std::to_string(address >> 24) + "." +
         std::to_string((address >> 16) & 0xFF) + "." +
         std::to_string((address >> 8) & 0xFF) + "." +
         std::to_string(address & 0xFF);
}

std::string AaaaRdata::to_text() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < 16; i += 2) {
    if (i != 0) out.push_back(':');
    out.push_back(kHex[address[i] >> 4]);
    out.push_back(kHex[address[i] & 0xF]);
    out.push_back(kHex[address[i + 1] >> 4]);
    out.push_back(kHex[address[i + 1] & 0xF]);
  }
  return out;
}

std::uint16_t DnskeyRdata::key_tag() const {
  ByteWriter writer;
  writer.u16(flags);
  writer.u8(protocol);
  writer.u8(algorithm);
  writer.raw(public_key);
  return crypto::key_tag(writer.bytes());
}

RRType rdata_type(const Rdata& rdata) {
  return std::visit(
      [](const auto& value) -> RRType {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, ARdata>) return RRType::kA;
        else if constexpr (std::is_same_v<T, AaaaRdata>) return RRType::kAaaa;
        else if constexpr (std::is_same_v<T, NsRdata>) return RRType::kNs;
        else if constexpr (std::is_same_v<T, CnameRdata>) return RRType::kCname;
        else if constexpr (std::is_same_v<T, PtrRdata>) return RRType::kPtr;
        else if constexpr (std::is_same_v<T, MxRdata>) return RRType::kMx;
        else if constexpr (std::is_same_v<T, SoaRdata>) return RRType::kSoa;
        else if constexpr (std::is_same_v<T, TxtRdata>) return RRType::kTxt;
        else if constexpr (std::is_same_v<T, DnskeyRdata>) return RRType::kDnskey;
        else if constexpr (std::is_same_v<T, DsRdata>) return RRType::kDs;
        else if constexpr (std::is_same_v<T, RrsigRdata>) return RRType::kRrsig;
        else if constexpr (std::is_same_v<T, NsecRdata>) return RRType::kNsec;
        else if constexpr (std::is_same_v<T, Nsec3Rdata>) return RRType::kNsec3;
        else if constexpr (std::is_same_v<T, Nsec3ParamRdata>)
          return RRType::kNsec3Param;
        else return RRType::kOpt;
      },
      rdata);
}

void encode_rdata(const Rdata& rdata, ByteWriter& writer) {
  std::visit(
      [&writer](const auto& value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          writer.u32(value.address);
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          writer.raw(value.address.data(), value.address.size());
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          encode_name(value.nameserver, writer);
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          encode_name(value.target, writer);
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          encode_name(value.target, writer);
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          writer.u16(value.preference);
          encode_name(value.exchanger, writer);
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          encode_name(value.primary_ns, writer);
          encode_name(value.responsible, writer);
          writer.u32(value.serial);
          writer.u32(value.refresh);
          writer.u32(value.retry);
          writer.u32(value.expire);
          writer.u32(value.minimum_ttl);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          for (const std::string& s : value.strings) {
            if (s.size() > 255) throw WireFormatError("TXT string too long");
            writer.u8(static_cast<std::uint8_t>(s.size()));
            writer.raw(reinterpret_cast<const std::uint8_t*>(s.data()),
                       s.size());
          }
        } else if constexpr (std::is_same_v<T, DnskeyRdata>) {
          writer.u16(value.flags);
          writer.u8(value.protocol);
          writer.u8(value.algorithm);
          writer.raw(value.public_key);
        } else if constexpr (std::is_same_v<T, DsRdata>) {
          writer.u16(value.key_tag);
          writer.u8(value.algorithm);
          writer.u8(value.digest_type);
          writer.raw(value.digest);
        } else if constexpr (std::is_same_v<T, RrsigRdata>) {
          writer.u16(static_cast<std::uint16_t>(value.type_covered));
          writer.u8(value.algorithm);
          writer.u8(value.labels);
          writer.u32(value.original_ttl);
          writer.u32(value.expiration);
          writer.u32(value.inception);
          writer.u16(value.key_tag);
          encode_name(value.signer, writer);
          writer.raw(value.signature);
        } else if constexpr (std::is_same_v<T, NsecRdata>) {
          encode_name(value.next, writer);
          encode_type_bitmap(value.types, writer);
        } else if constexpr (std::is_same_v<T, Nsec3Rdata>) {
          if (value.salt.size() > 255)
            throw WireFormatError("NSEC3 salt too long");
          if (value.next_hashed.size() > 255)
            throw WireFormatError("NSEC3 hash too long");
          writer.u8(value.hash_algorithm);
          writer.u8(value.flags);
          writer.u16(value.iterations);
          writer.u8(static_cast<std::uint8_t>(value.salt.size()));
          writer.raw(value.salt);
          writer.u8(static_cast<std::uint8_t>(value.next_hashed.size()));
          writer.raw(value.next_hashed);
          encode_type_bitmap(value.types, writer);
        } else if constexpr (std::is_same_v<T, Nsec3ParamRdata>) {
          if (value.salt.size() > 255)
            throw WireFormatError("NSEC3PARAM salt too long");
          writer.u8(value.hash_algorithm);
          writer.u8(value.flags);
          writer.u16(value.iterations);
          writer.u8(static_cast<std::uint8_t>(value.salt.size()));
          writer.raw(value.salt);
        } else if constexpr (std::is_same_v<T, OptRdata>) {
          // OPT carries its fields in CLASS/TTL; RDATA itself is empty here.
        }
      },
      rdata);
}

std::size_t rdata_wire_length(const Rdata& rdata) {
  ByteWriter writer;
  encode_rdata(rdata, writer);
  return writer.size();
}

Name decode_uncompressed_name(ByteReader& reader) {
  std::string text;
  for (;;) {
    const std::uint8_t len = reader.u8();
    if (len == 0) break;
    if (len > 63) throw WireFormatError("compressed label in RDATA name");
    append_wire_label(text, reader.raw(len));
  }
  return Name::parse(text);
}

Rdata decode_rdata(RRType type, std::size_t rdlength, ByteReader& reader) {
  const std::size_t end = reader.position() + rdlength;
  auto check_consumed = [&](Rdata value) {
    if (reader.position() != end) throw WireFormatError("RDATA length mismatch");
    return value;
  };
  switch (type) {
    case RRType::kA: {
      if (rdlength != 4) throw WireFormatError("A RDATA must be 4 octets");
      return check_consumed(ARdata{reader.u32()});
    }
    case RRType::kAaaa: {
      if (rdlength != 16) throw WireFormatError("AAAA RDATA must be 16 octets");
      const Bytes raw = reader.raw(16);
      AaaaRdata out;
      std::copy(raw.begin(), raw.end(), out.address.begin());
      return check_consumed(out);
    }
    case RRType::kNs:
      return check_consumed(NsRdata{decode_uncompressed_name(reader)});
    case RRType::kCname:
      return check_consumed(CnameRdata{decode_uncompressed_name(reader)});
    case RRType::kPtr:
      return check_consumed(PtrRdata{decode_uncompressed_name(reader)});
    case RRType::kMx: {
      MxRdata out;
      out.preference = reader.u16();
      out.exchanger = decode_uncompressed_name(reader);
      return check_consumed(out);
    }
    case RRType::kSoa: {
      SoaRdata out;
      out.primary_ns = decode_uncompressed_name(reader);
      out.responsible = decode_uncompressed_name(reader);
      out.serial = reader.u32();
      out.refresh = reader.u32();
      out.retry = reader.u32();
      out.expire = reader.u32();
      out.minimum_ttl = reader.u32();
      return check_consumed(out);
    }
    case RRType::kTxt: {
      TxtRdata out;
      while (reader.position() < end) {
        const std::uint8_t len = reader.u8();
        const Bytes raw = reader.raw(len);
        out.strings.emplace_back(raw.begin(), raw.end());
      }
      return check_consumed(out);
    }
    case RRType::kDnskey: {
      DnskeyRdata out;
      out.flags = reader.u16();
      out.protocol = reader.u8();
      out.algorithm = reader.u8();
      if (end < reader.position()) throw WireFormatError("bad DNSKEY length");
      out.public_key = reader.raw(end - reader.position());
      return check_consumed(out);
    }
    case RRType::kDs:
    case RRType::kDlv: {
      DsRdata out;
      out.key_tag = reader.u16();
      out.algorithm = reader.u8();
      out.digest_type = reader.u8();
      if (end < reader.position()) throw WireFormatError("bad DS length");
      out.digest = reader.raw(end - reader.position());
      return check_consumed(out);
    }
    case RRType::kRrsig: {
      RrsigRdata out;
      out.type_covered = static_cast<RRType>(reader.u16());
      out.algorithm = reader.u8();
      out.labels = reader.u8();
      out.original_ttl = reader.u32();
      out.expiration = reader.u32();
      out.inception = reader.u32();
      out.key_tag = reader.u16();
      out.signer = decode_uncompressed_name(reader);
      if (end < reader.position()) throw WireFormatError("bad RRSIG length");
      out.signature = reader.raw(end - reader.position());
      return check_consumed(out);
    }
    case RRType::kNsec: {
      NsecRdata out;
      out.next = decode_uncompressed_name(reader);
      out.types = decode_type_bitmap(reader, end);
      return check_consumed(out);
    }
    case RRType::kNsec3: {
      Nsec3Rdata out;
      out.hash_algorithm = reader.u8();
      out.flags = reader.u8();
      out.iterations = reader.u16();
      out.salt = reader.raw(reader.u8());
      out.next_hashed = reader.raw(reader.u8());
      out.types = decode_type_bitmap(reader, end);
      return check_consumed(out);
    }
    case RRType::kNsec3Param: {
      Nsec3ParamRdata out;
      out.hash_algorithm = reader.u8();
      out.flags = reader.u8();
      out.iterations = reader.u16();
      out.salt = reader.raw(reader.u8());
      return check_consumed(out);
    }
    case RRType::kOpt: {
      // Option TLVs are skipped; the codec reconstructs CLASS/TTL fields.
      (void)reader.raw(rdlength);
      return check_consumed(OptRdata{});
    }
  }
  throw WireFormatError("unsupported RR type " +
                        std::to_string(static_cast<std::uint16_t>(type)));
}

}  // namespace lookaside::dns
