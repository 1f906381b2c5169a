// DNSSEC-signed zone: lazy RRSIG generation with caching, NSEC denial
// proofs, and failure-injection hooks.
//
// Signatures are computed on first use and cached. This is how the simulator
// affords real RSA signatures at million-domain scale: a zone only ever signs
// the RRsets that queries actually touch (the paper's workloads touch a
// small, heavily-reused set of NSEC ranges thanks to canonical-order
// clustering).
#pragma once

#include <utility>
#include <vector>

#include "dns/name_map.h"
#include "zone/keys.h"
#include "zone/nsec3.h"
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
  /// Signature validity window (absolute sim-seconds).
  struct Policy {
    std::uint32_t inception = 0;
    std::uint32_t expiration = 0x7FFFFFFF;
  };

  SignedZone(Zone zone, ZoneKeys keys) : SignedZone(std::move(zone), std::move(keys), Policy{}) {}
  SignedZone(Zone zone, ZoneKeys keys, Policy policy);
  // The NSEC3 chain points into this zone's own owner keys, so a copy
  // would point into the original's.
  SignedZone(const SignedZone&) = delete;
  SignedZone& operator=(const SignedZone&) = delete;

  [[nodiscard]] const Zone& zone() const { return zone_; }
  [[nodiscard]] Zone& zone() { return zone_; }
  [[nodiscard]] const ZoneKeys& keys() const { return keys_; }

  /// The apex DNSKEY RRset (ZSK + KSK).
  [[nodiscard]] const dns::RRset& dnskey_rrset() const { return dnskeys_; }

  /// DS RDATA the parent (or a DLV registry) should publish for this zone.
  [[nodiscard]] dns::DsRdata ds_for_parent() const;

  /// RRSIG record covering `rrset` (which must belong to this zone).
  /// DNSKEY RRsets are signed with the KSK, everything else with the ZSK.
  [[nodiscard]] dns::ResourceRecord rrsig_for(const dns::RRset& rrset);

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

  /// Failure injection: when set, emitted signatures are flipped in one byte
  /// so validators see bogus data (paper §2.2 "bogus" status).
  void set_corrupt_signatures(bool corrupt) { corrupt_ = corrupt; }
  [[nodiscard]] bool corrupt_signatures() const { return corrupt_; }

  /// Drops the signature cache (after zone mutation); the NSEC3 chain is
  /// also marked dirty so the next denial proof rebuilds it, keeping
  /// per-deposit cost O(1) instead of a rebuild per mutation.
  void invalidate_signature_cache() {
    signature_cache_.clear();
    signatures_computed_ = 0;
    nsec3_dirty_ = true;
  }

  /// Cache statistics: number of distinct RRsets signed so far.
  [[nodiscard]] std::size_t signatures_computed() const {
    return signatures_computed_;
  }

 private:
  /// One link of the hashed chain: an owner's digest and the owner itself.
  /// `owner` points at the zone's own key, which a std::map node keeps in
  /// place across inserts; Zone never erases a name.
  struct Nsec3Link {
    crypto::Sha1::Digest digest;
    const dns::Name* owner;
  };

  [[nodiscard]] dns::ResourceRecord make_nsec(const dns::Name& owner);
  void rebuild_nsec3_chain();
  /// Proof for chain link `link` (matching or covering some digest): the
  /// only place a hashed owner name and its NSEC3 record are built.
  [[nodiscard]] NsecProof make_nsec3_proof(std::size_t link);
  /// Index of the link whose span matches or covers `digest` (with
  /// wraparound).
  [[nodiscard]] std::size_t nsec3_cover(
      const crypto::Sha1::Digest& digest) const;

  Zone zone_;
  ZoneKeys keys_;
  Policy policy_;
  dns::RRset dnskeys_;
  bool corrupt_ = false;
  bool nsec3_enabled_ = false;
  bool nsec3_dirty_ = false;
  Nsec3Params nsec3_params_;
  std::vector<Nsec3Link> nsec3_chain_;  // sorted by digest, digests unique
  // Cached signatures by owner, then type. An owner holds about one signed
  // RRset, so its slot list is a one- or two-entry scan. Signatures of
  // corrupted zones are not cached so toggling corruption mid-test behaves.
  dns::NameHashMap<std::vector<std::pair<dns::RRType, dns::Bytes>>>
      signature_cache_;
  std::size_t signatures_computed_ = 0;
};

}  // namespace lookaside::zone
