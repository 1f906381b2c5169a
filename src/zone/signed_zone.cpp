#include "zone/signed_zone.h"

#include <algorithm>

namespace lookaside::zone {

SignedZone::SignedZone(Zone zone, ZoneKeys keys)
    : zone_(std::move(zone)), signer_(zone_.apex(), std::move(keys)) {}

void SignedZone::add(dns::ResourceRecord record) {
  zone_.add(std::move(record));
  nsec3_dirty_ = true;
}

dns::RRset SignedZone::nsec_at(const dns::Name& owner) const {
  std::vector<dns::RRType> types = zone_.types_at(owner);
  // The DNSKEY rrset lives with the signer, not inside the zone, so
  // types_at() misses it; an apex NSEC that omits DNSKEY would let an
  // aggressive-synthesis resolver deny the zone's own keys from cache.
  if (owner == zone_.apex() &&
      std::find(types.begin(), types.end(), dns::RRType::kDnskey) ==
          types.end()) {
    types.push_back(dns::RRType::kDnskey);
  }
  types.push_back(dns::RRType::kRrsig);
  types.push_back(dns::RRType::kNsec);
  return nsec_rrset(owner, zone_.canonical_successor(owner), std::move(types),
                    zone_.negative_ttl());
}

NsecProof SignedZone::sign_proof(const dns::RRset& rrset) {
  return NsecProof{rrset.records().front(), signer_.rrsig_for(rrset)};
}

NsecProof SignedZone::nxdomain_proof(const dns::Name& qname) {
  return sign_proof(nsec_at(zone_.canonical_predecessor(qname)));
}

NsecProof SignedZone::nodata_proof(const dns::Name& qname) {
  return sign_proof(nsec_at(qname));
}

void SignedZone::enable_nsec3(Nsec3Params params) {
  nsec3_params_ = std::move(params);
  nsec3_enabled_ = true;
  nsec3_dirty_ = true;
  if (zone_.find(zone_.apex(), dns::RRType::kNsec3Param) == nullptr) {
    dns::Nsec3ParamRdata param;
    param.iterations = nsec3_params_.iterations;
    param.salt = nsec3_params_.salt;
    add(dns::ResourceRecord::make(zone_.apex(), zone_.negative_ttl(),
                                  dns::Rdata{param}));
  }
}

void SignedZone::rebuild_nsec3_chain() {
  nsec3_chain_.clear();
  nsec3_chain_.reserve(zone_.name_count());
  zone_.for_each_owner([this](const dns::Name& owner) {
    nsec3_chain_.push_back(Nsec3Link{
        nsec3_hash(owner, nsec3_params_.salt, nsec3_params_.iterations),
        &owner});
  });
  // Of equal digests the canonically later owner stays, as when each owner
  // overwrote its digest's entry in turn (a SHA-1 collision cannot be built
  // in a test): it sorts first among its equals, and unique keeps it.
  std::sort(nsec3_chain_.begin(), nsec3_chain_.end(),
            [](const Nsec3Link& a, const Nsec3Link& b) {
              if (const auto order = a.digest <=> b.digest; order != 0) {
                return order < 0;
              }
              return b.owner->canonical_compare(*a.owner) < 0;
            });
  nsec3_chain_.erase(std::unique(nsec3_chain_.begin(), nsec3_chain_.end(),
                                 [](const Nsec3Link& a, const Nsec3Link& b) {
                                   return a.digest == b.digest;
                                 }),
                     nsec3_chain_.end());
  nsec3_dirty_ = false;
}

std::size_t SignedZone::nsec3_cover(const crypto::Sha1::Digest& digest) const {
  // Greatest chain hash <= digest; hashes below the first link are covered
  // by the last-to-first wraparound span (RFC 5155 §3.1.7 last NSEC3).
  const auto it = std::upper_bound(
      nsec3_chain_.begin(), nsec3_chain_.end(), digest,
      [](const crypto::Sha1::Digest& d, const Nsec3Link& link) {
        return d < link.digest;
      });
  if (it == nsec3_chain_.begin()) return nsec3_chain_.size() - 1;
  return static_cast<std::size_t>(it - nsec3_chain_.begin()) - 1;
}

NsecProof SignedZone::make_nsec3_proof(std::size_t link) {
  const Nsec3Link& at = nsec3_chain_[link];
  const Nsec3Link& next = nsec3_chain_[(link + 1) % nsec3_chain_.size()];

  dns::Nsec3Rdata nsec3;
  nsec3.iterations = nsec3_params_.iterations;
  nsec3.salt = nsec3_params_.salt;
  nsec3.next_hashed.assign(next.digest.begin(), next.digest.end());
  nsec3.types = zone_.types_at(*at.owner);
  nsec3.types.push_back(dns::RRType::kRrsig);

  const dns::Name hashed_owner =
      zone_.apex().with_prefix_label(base32hex_encode(at.digest));
  dns::RRset nsec3_set(hashed_owner, dns::RRType::kNsec3);
  nsec3_set.add(dns::ResourceRecord::make(hashed_owner, zone_.negative_ttl(),
                                          dns::Rdata{std::move(nsec3)}));
  return sign_proof(nsec3_set);
}

std::vector<NsecProof> SignedZone::nsec3_nxdomain_proof(
    const dns::Name& qname) {
  if (nsec3_dirty_) rebuild_nsec3_chain();

  // Closest encloser: longest existing ancestor (the apex at worst).
  dns::Name closest = qname;
  while (closest.label_count() > zone_.apex().label_count() &&
         !zone_.has_name(closest)) {
    closest = closest.parent();
  }
  dns::Name next_closer = qname;
  while (next_closer.label_count() > closest.label_count() + 1) {
    next_closer = next_closer.parent();
  }

  const auto& params = nsec3_params_;
  const std::size_t picks[] = {
      nsec3_cover(nsec3_hash(closest, params.salt, params.iterations)),
      nsec3_cover(nsec3_hash(next_closer, params.salt, params.iterations)),
      nsec3_cover(nsec3_hash(closest.with_prefix_label("*"), params.salt,
                             params.iterations)),
  };
  std::vector<NsecProof> proofs;
  for (std::size_t i = 0; i < std::size(picks); ++i) {
    // One proof per link: the ranges often coincide.
    if (std::find(picks, picks + i, picks[i]) != picks + i) continue;
    proofs.push_back(make_nsec3_proof(picks[i]));
  }
  return proofs;
}

std::vector<NsecProof> SignedZone::nsec3_nodata_proof(const dns::Name& qname) {
  if (nsec3_dirty_) rebuild_nsec3_chain();
  std::vector<NsecProof> proofs;
  proofs.push_back(make_nsec3_proof(nsec3_cover(
      nsec3_hash(qname, nsec3_params_.salt, nsec3_params_.iterations))));
  return proofs;
}

}  // namespace lookaside::zone
