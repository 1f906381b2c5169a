// One zone's signing state: its keys, its DNSKEY RRset and a cache of the
// signatures it has computed. Every RRSIG in the simulator is built by
// Signer::rrsig_for, for real zones (SignedZone) and for the synthetic
// universe authorities alike.
//
// Signatures are computed on first use and cached. This is how the simulator
// affords real RSA signatures at million-domain scale: a zone only ever signs
// the RRsets that queries actually touch. A cached signature is reused only
// for the data it signed: each entry keeps a fingerprint of the TTL and
// RDATA it covers, and an RRset that changed under the same owner and type
// (a zone edit, or a synthetic NSEC built around another missing name) is
// signed afresh.
#pragma once

#include <cstdint>
#include <vector>

#include "dns/name_map.h"
#include "dns/record.h"
#include "zone/keys.h"

namespace lookaside::zone {

class Signer {
 public:
  /// What the signature cache did, for reports and tests.
  struct Stats {
    std::uint64_t signatures = 0;  // RSA signatures computed
    std::uint64_t cache_hits = 0;  // signatures served from the cache
    std::uint64_t resigns = 0;     // computed because the cache held one
                                   // over other data at the owner and type
  };

  Signer(dns::Name apex, ZoneKeys keys);

  [[nodiscard]] const ZoneKeys& keys() const { return keys_; }

  /// The apex DNSKEY RRset (ZSK + KSK).
  [[nodiscard]] const dns::RRset& dnskey_rrset() const { return dnskeys_; }

  /// DS RDATA the parent (or a DLV registry) should publish for this zone.
  [[nodiscard]] dns::DsRdata ds_for_parent() const;

  /// RRSIG record covering `rrset`, valid from 0 to 0x7FFFFFFF. DNSKEY
  /// RRsets are signed with the KSK, everything else with the ZSK.
  [[nodiscard]] dns::ResourceRecord rrsig_for(const dns::RRset& rrset);

  /// Failure injection: when set, emitted signatures are flipped in one byte
  /// so validators see bogus data (paper §2.2 "bogus" status). They are not
  /// cached, so turning corruption off restores good signatures.
  void set_corrupt_signatures(bool corrupt) { corrupt_ = corrupt; }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct CachedSignature {
    dns::RRType type;
    std::uint64_t fingerprint;  // of the TTL and RDATA signed
    dns::Bytes signature;
  };

  dns::Name apex_;
  ZoneKeys keys_;
  dns::RRset dnskeys_;
  bool corrupt_ = false;
  // Cached signatures by owner; an owner holds about one signed RRset, so
  // its list is a one- or two-entry scan.
  dns::NameHashMap<std::vector<CachedSignature>> cache_;
  Stats stats_;
};

/// Appends `rrset`'s records to `section`, then their RRSIG when `signer`
/// is non-null: the one way an authority puts an RRset on the wire.
void append(std::vector<dns::ResourceRecord>& section, const dns::RRset& rrset,
            Signer* signer);

/// A one-record NSEC RRset at `owner`.
[[nodiscard]] dns::RRset nsec_rrset(const dns::Name& owner, dns::Name next,
                                    std::vector<dns::RRType> types,
                                    std::uint32_t ttl);

}  // namespace lookaside::zone
