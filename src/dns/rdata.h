// RDATA payloads for every record type the simulator speaks.
//
// Each payload is a small value type with encode/decode to RFC wire format;
// `Rdata` is the closed variant over them. Names embedded in RDATA are never
// compressed (matching RFC 3597 rules for modern types).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "dns/name.h"
#include "dns/rr_type.h"
#include "dns/wire_io.h"

namespace lookaside::dns {

/// IPv4 address record.
struct ARdata {
  std::uint32_t address = 0;  // host byte order

  [[nodiscard]] std::string to_text() const;
  friend bool operator==(const ARdata&, const ARdata&) = default;
};

/// IPv6 address record.
struct AaaaRdata {
  std::array<std::uint8_t, 16> address{};

  [[nodiscard]] std::string to_text() const;
  friend bool operator==(const AaaaRdata&, const AaaaRdata&) = default;
};

/// Delegation: authoritative name server for a zone.
struct NsRdata {
  Name nameserver;

  friend bool operator==(const NsRdata&, const NsRdata&) = default;
};

/// Alias record.
struct CnameRdata {
  Name target;

  friend bool operator==(const CnameRdata&, const CnameRdata&) = default;
};

/// Reverse-lookup pointer.
struct PtrRdata {
  Name target;

  friend bool operator==(const PtrRdata&, const PtrRdata&) = default;
};

/// Mail exchanger.
struct MxRdata {
  std::uint16_t preference = 0;
  Name exchanger;

  friend bool operator==(const MxRdata&, const MxRdata&) = default;
};

/// Start of authority.
struct SoaRdata {
  Name primary_ns;
  Name responsible;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum_ttl = 0;  // negative-caching TTL (RFC 2308)

  friend bool operator==(const SoaRdata&, const SoaRdata&) = default;
};

/// Free-form text; carries the paper's "dlv=1"/"dlv=0" signaling remedy.
struct TxtRdata {
  std::vector<std::string> strings;

  friend bool operator==(const TxtRdata&, const TxtRdata&) = default;
};

/// DNSSEC public key (RFC 4034 §2).
struct DnskeyRdata {
  static constexpr std::uint16_t kFlagZoneKey = 0x0100;  // ZSK and KSK both
  static constexpr std::uint16_t kFlagSep = 0x0001;      // KSK marker

  std::uint16_t flags = kFlagZoneKey;
  std::uint8_t protocol = 3;  // always 3 per RFC 4034
  std::uint8_t algorithm = 8; // RSA/SHA-256
  Bytes public_key;           // RFC 3110 exponent|modulus form

  [[nodiscard]] bool is_ksk() const { return flags & kFlagSep; }
  /// RFC 4034 Appendix B key tag over this RDATA's wire image.
  [[nodiscard]] std::uint16_t key_tag() const;

  friend bool operator==(const DnskeyRdata&, const DnskeyRdata&) = default;
};

/// Delegation signer (RFC 4034 §5); also the RDATA of DLV records
/// (RFC 4431: "DLV uses the same wire format as DS").
struct DsRdata {
  std::uint16_t key_tag = 0;
  std::uint8_t algorithm = 8;
  std::uint8_t digest_type = 2;  // SHA-256
  Bytes digest;

  friend bool operator==(const DsRdata&, const DsRdata&) = default;
};

/// Signature over an RRset (RFC 4034 §3).
struct RrsigRdata {
  RRType type_covered = RRType::kA;
  std::uint8_t algorithm = 8;
  std::uint8_t labels = 0;
  std::uint32_t original_ttl = 0;
  std::uint32_t expiration = 0;  // absolute sim-seconds
  std::uint32_t inception = 0;
  std::uint16_t key_tag = 0;
  Name signer;
  Bytes signature;

  friend bool operator==(const RrsigRdata&, const RrsigRdata&) = default;
};

/// Authenticated denial of existence (RFC 4034 §4). The `next` name closes
/// the zone's canonical chain; `types` lists types present at the owner.
struct NsecRdata {
  Name next;
  std::vector<RRType> types;

  friend bool operator==(const NsecRdata&, const NsecRdata&) = default;
};

/// Hashed authenticated denial of existence (RFC 5155 §3). The owner name of
/// an NSEC3 record is the base32hex hash of the original owner; `next_hashed`
/// closes the hashed chain and `types` lists types present at the original
/// owner. Hash algorithm 1 is SHA-1 — the only value IANA ever registered.
struct Nsec3Rdata {
  std::uint8_t hash_algorithm = 1;  // SHA-1
  std::uint8_t flags = 0;           // opt-out unsupported in the simulator
  std::uint16_t iterations = 0;
  Bytes salt;
  Bytes next_hashed;  // raw 20-byte digest, not base32hex
  std::vector<RRType> types;

  friend bool operator==(const Nsec3Rdata&, const Nsec3Rdata&) = default;
};

/// NSEC3 parameters advertised at the zone apex (RFC 5155 §4); validators use
/// it to learn the salt/iteration knobs before hashing query names.
struct Nsec3ParamRdata {
  std::uint8_t hash_algorithm = 1;
  std::uint8_t flags = 0;
  std::uint16_t iterations = 0;
  Bytes salt;

  friend bool operator==(const Nsec3ParamRdata&, const Nsec3ParamRdata&) =
      default;
};

/// EDNS0 OPT pseudo-record payload; we only model the DO bit and UDP size,
/// which is what the byte accounting needs.
struct OptRdata {
  std::uint16_t udp_payload_size = 4096;
  bool dnssec_ok = false;

  friend bool operator==(const OptRdata&, const OptRdata&) = default;
};

/// Closed sum of every supported RDATA.
using Rdata = std::variant<ARdata, AaaaRdata, NsRdata, CnameRdata, PtrRdata,
                           MxRdata, SoaRdata, TxtRdata, DnskeyRdata, DsRdata,
                           RrsigRdata, NsecRdata, Nsec3Rdata, Nsec3ParamRdata,
                           OptRdata>;

/// The RR type a given payload belongs with. DS-shaped payloads default to
/// kDs; records module overrides to kDlv where needed.
[[nodiscard]] RRType rdata_type(const Rdata& rdata);

/// Encodes `rdata` (without the RDLENGTH prefix) to `writer`. Every
/// overload runs the same encoder; the counting one only adds up lengths
/// and the hashing one only folds the octets into a hash.
void encode_rdata(const Rdata& rdata, ByteWriter& writer);
void encode_rdata(const Rdata& rdata, CountingWriter& writer);
void encode_rdata(const Rdata& rdata, HashingWriter& writer);

/// Decodes RDATA of `type` from exactly `rdlength` bytes of `reader`.
/// Throws WireFormatError on malformed input.
[[nodiscard]] Rdata decode_rdata(RRType type, std::size_t rdlength,
                                 ByteReader& reader);

/// Encoded size of `rdata` in octets: encode_rdata over a CountingWriter,
/// so it never allocates.
[[nodiscard]] std::size_t rdata_wire_length(const Rdata& rdata);

/// Reads an uncompressed name from `reader` (helper shared with the codec).
[[nodiscard]] Name decode_uncompressed_name(ByteReader& reader);

}  // namespace lookaside::dns
