// DNSSEC-signed zone: a Zone, the Signer that signs it lazily (see
// zone/signer.h), and its NSEC and NSEC3 denial proofs. The paper's
// workloads touch a small, heavily reused set of NSEC ranges thanks to
// canonical-order clustering, so few signatures are ever computed.
#pragma once

#include <utility>
#include <vector>

#include "zone/nsec3.h"
#include "zone/signer.h"
#include "zone/zone.h"

namespace lookaside::zone {

/// A denial proof: the NSEC (or NSEC3) record plus its RRSIG.
struct NsecProof {
  dns::ResourceRecord nsec;
  dns::ResourceRecord rrsig;
};

/// NSEC3 chain parameters (RFC 5155 §4). `iterations` is the CPU knob:
/// validators hash every denied qname iterations+1 times.
struct Nsec3Params {
  std::uint16_t iterations = 0;
  crypto::Bytes salt;
};

/// Wraps a Zone with signing state.
class SignedZone {
 public:
  SignedZone(Zone zone, ZoneKeys keys);
  // The NSEC3 chain points into this zone's own owner keys, so a copy
  // would point into the original's.
  SignedZone(const SignedZone&) = delete;
  SignedZone& operator=(const SignedZone&) = delete;

  [[nodiscard]] const Zone& zone() const { return zone_; }
  [[nodiscard]] Signer& signer() { return signer_; }
  [[nodiscard]] const Signer& signer() const { return signer_; }

  /// Adds `record` to the zone. The NSEC3 chain is rebuilt at the next
  /// hashed denial; a signed RRset the record changes re-signs on its own,
  /// because its cached signature no longer matches its data.
  void add(dns::ResourceRecord record);

  /// NSEC proof that `qname` does not exist (covering NSEC from the
  /// canonical predecessor).
  [[nodiscard]] NsecProof nxdomain_proof(const dns::Name& qname);

  /// NSEC proof that `qname` exists but `qtype` does not (exact-match NSEC
  /// whose type bitmap omits the type).
  [[nodiscard]] NsecProof nodata_proof(const dns::Name& qname);

  /// Switches the zone to NSEC3 hashed denial: adds an NSEC3PARAM record at
  /// the apex and marks the hashed chain for (lazy) construction. Denial
  /// queries are then answered by nsec3_*_proof instead of the NSEC pair.
  void enable_nsec3(Nsec3Params params);
  [[nodiscard]] bool nsec3_enabled() const { return nsec3_enabled_; }

  /// RFC 5155 §7.2.2 NXDOMAIN proof: matching NSEC3 for the closest
  /// encloser, covering NSEC3 for the next-closer name, covering NSEC3 for
  /// the wildcard at the closest encloser (deduplicated when ranges
  /// coincide).
  [[nodiscard]] std::vector<NsecProof> nsec3_nxdomain_proof(
      const dns::Name& qname);

  /// RFC 5155 §7.2.3/§7.2.4 NODATA proof: matching NSEC3 at `qname`.
  [[nodiscard]] std::vector<NsecProof> nsec3_nodata_proof(
      const dns::Name& qname);

 private:
  /// One link of the hashed chain: an owner's digest and the owner itself.
  /// `owner` points at the zone's own key, which a std::map node keeps in
  /// place across inserts; Zone never erases a name.
  struct Nsec3Link {
    crypto::Sha1::Digest digest;
    const dns::Name* owner;
  };

  /// The NSEC RRset at `owner`, whose span ends at its canonical successor.
  [[nodiscard]] dns::RRset nsec_at(const dns::Name& owner) const;
  /// `rrset`'s one record and its RRSIG.
  [[nodiscard]] NsecProof sign_proof(const dns::RRset& rrset);
  void rebuild_nsec3_chain();
  /// Proof for chain link `link` (matching or covering some digest): the
  /// only place a hashed owner name and its NSEC3 record are built.
  [[nodiscard]] NsecProof make_nsec3_proof(std::size_t link);
  /// Index of the link whose span matches or covers `digest` (with
  /// wraparound).
  [[nodiscard]] std::size_t nsec3_cover(
      const crypto::Sha1::Digest& digest) const;

  Zone zone_;
  Signer signer_;
  bool nsec3_enabled_ = false;
  bool nsec3_dirty_ = false;
  Nsec3Params nsec3_params_;
  std::vector<Nsec3Link> nsec3_chain_;  // sorted by digest, digests unique
};

}  // namespace lookaside::zone
