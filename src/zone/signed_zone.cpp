#include "zone/signed_zone.h"

#include <algorithm>

#include "crypto/dnssec_algo.h"

namespace lookaside::zone {

SignedZone::SignedZone(Zone zone, ZoneKeys keys, Policy policy)
    : zone_(std::move(zone)),
      keys_(std::move(keys)),
      policy_(policy),
      dnskeys_(zone_.apex(), dns::RRType::kDnskey) {
  dnskeys_.add(dns::ResourceRecord::make(zone_.apex(), 3600,
                                         dns::Rdata{keys_.zsk_record()}));
  dnskeys_.add(dns::ResourceRecord::make(zone_.apex(), 3600,
                                         dns::Rdata{keys_.ksk_record()}));
}

dns::DsRdata SignedZone::ds_for_parent() const {
  return make_ds(zone_.apex(), keys_.ksk_record());
}

dns::ResourceRecord SignedZone::rrsig_for(const dns::RRset& rrset) {
  const bool is_dnskey = rrset.type() == dns::RRType::kDnskey;

  dns::RrsigRdata rrsig;
  rrsig.type_covered = rrset.type();
  rrsig.algorithm = 8;
  rrsig.labels = static_cast<std::uint8_t>(rrset.name().label_count());
  rrsig.original_ttl = rrset.ttl();
  rrsig.expiration = policy_.expiration;
  rrsig.inception = policy_.inception;
  rrsig.key_tag = is_dnskey ? keys_.ksk_tag() : keys_.zsk_tag();
  rrsig.signer = zone_.apex();

  auto* slots =
      corrupt_ ? nullptr : &signature_cache_.get_or_insert(rrset.name());
  const dns::Bytes* cached = nullptr;
  if (slots != nullptr) {
    for (const auto& [type, signature] : *slots) {
      if (type == rrset.type()) cached = &signature;
    }
  }
  if (cached != nullptr) {
    rrsig.signature = *cached;
  } else {
    const dns::Bytes signed_data = dns::rrsig_signed_data(rrsig, rrset);
    const crypto::RsaPrivateKey& key =
        is_dnskey ? keys_.ksk_private() : keys_.zsk_private();
    rrsig.signature = crypto::sign_message(key, signed_data);
    if (corrupt_) {
      rrsig.signature[rrsig.signature.size() / 2] ^= 0x01;
    } else {
      slots->emplace_back(rrset.type(), rrsig.signature);
      ++signatures_computed_;
    }
  }
  return dns::ResourceRecord::make(rrset.name(), rrset.ttl(),
                                   dns::Rdata{rrsig});
}

dns::ResourceRecord SignedZone::make_nsec(const dns::Name& owner) {
  dns::NsecRdata nsec;
  nsec.next = zone_.canonical_successor(owner);
  nsec.types = zone_.types_at(owner);
  // The DNSKEY rrset lives beside the zone (dnskeys_), not inside it, so
  // types_at() misses it; an apex NSEC that omits DNSKEY would let an
  // aggressive-synthesis resolver deny the zone's own keys from cache.
  if (owner == zone_.apex() &&
      std::find(nsec.types.begin(), nsec.types.end(), dns::RRType::kDnskey) ==
          nsec.types.end()) {
    nsec.types.push_back(dns::RRType::kDnskey);
  }
  nsec.types.push_back(dns::RRType::kRrsig);
  nsec.types.push_back(dns::RRType::kNsec);
  return dns::ResourceRecord::make(owner, zone_.negative_ttl(),
                                   dns::Rdata{nsec});
}

NsecProof SignedZone::nxdomain_proof(const dns::Name& qname) {
  const dns::Name& predecessor = zone_.canonical_predecessor(qname);
  dns::ResourceRecord nsec = make_nsec(predecessor);

  dns::RRset nsec_set(predecessor, dns::RRType::kNsec);
  nsec_set.add(nsec);
  dns::ResourceRecord rrsig = rrsig_for(nsec_set);
  return NsecProof{std::move(nsec), std::move(rrsig)};
}

NsecProof SignedZone::nodata_proof(const dns::Name& qname) {
  dns::ResourceRecord nsec = make_nsec(qname);
  dns::RRset nsec_set(qname, dns::RRType::kNsec);
  nsec_set.add(nsec);
  dns::ResourceRecord rrsig = rrsig_for(nsec_set);
  return NsecProof{std::move(nsec), std::move(rrsig)};
}

void SignedZone::enable_nsec3(Nsec3Params params) {
  nsec3_params_ = std::move(params);
  nsec3_enabled_ = true;
  nsec3_dirty_ = true;
  if (zone_.find(zone_.apex(), dns::RRType::kNsec3Param) == nullptr) {
    dns::Nsec3ParamRdata param;
    param.iterations = nsec3_params_.iterations;
    param.salt = nsec3_params_.salt;
    zone_.add(dns::ResourceRecord::make(zone_.apex(), zone_.negative_ttl(),
                                        dns::Rdata{param}));
  }
  invalidate_signature_cache();
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
  dns::ResourceRecord record = dns::ResourceRecord::make(
      hashed_owner, zone_.negative_ttl(), dns::Rdata{nsec3});
  dns::RRset nsec3_set(hashed_owner, dns::RRType::kNsec3);
  nsec3_set.add(record);
  dns::ResourceRecord rrsig = rrsig_for(nsec3_set);
  return NsecProof{std::move(record), std::move(rrsig)};
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
