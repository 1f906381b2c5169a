#include "resolver/shared_store.h"

#include <algorithm>

namespace lookaside::resolver {

void SharedProofStore::store_nsec(const dns::Name& zone_apex,
                                  const dns::Name& owner, NsecProof proof) {
  nsec_[zone_apex][owner] = std::move(proof);
  ++stats_.nsec_stores;
}

NsecCoverage SharedProofStore::check_nsec(const dns::Name& zone_apex,
                                          const dns::Name& qname,
                                          dns::RRType qtype,
                                          std::uint64_t now_us,
                                          std::uint32_t probing_shard,
                                          std::uint64_t* expires_us,
                                          bool* cross_shard) {
  if (!qname.is_subdomain_of(zone_apex)) return NsecCoverage::kNoProof;
  const auto zone_it = nsec_.find(zone_apex);
  if (zone_it == nsec_.end()) return NsecCoverage::kNoProof;
  NsecChain& chain = zone_it->second;
  const auto live =
      live_predecessor(chain, qname, now_us, [](const NsecProof&) {});
  if (live == chain.end()) {
    if (chain.empty()) nsec_.erase(zone_it);
    return NsecCoverage::kNoProof;
  }
  const NsecProof& proof = live->second;
  const NsecCoverage coverage = nsec_denial(zone_apex, live->first, proof.next,
                                            proof.types, qname, qtype);
  if (coverage == NsecCoverage::kNoProof) return coverage;
  if (expires_us != nullptr) *expires_us = proof.expires_us;
  const bool sibling = proof.shard != probing_shard;
  if (cross_shard != nullptr) *cross_shard = sibling;
  ++stats_.nsec_hits;
  if (sibling) ++stats_.nsec_sibling_hits;
  return coverage;
}

std::size_t SharedProofStore::nsec_count(const dns::Name& zone_apex) const {
  const auto zone_it = nsec_.find(zone_apex);
  return zone_it == nsec_.end() ? 0 : zone_it->second.size();
}

void SharedProofStore::store_zone_cut(const dns::Name& apex,
                                      std::uint64_t expires_us,
                                      std::uint32_t shard) {
  CutEntry& entry = cuts_[apex];
  entry.expires_us = std::max(entry.expires_us, expires_us);
  entry.shard = shard;
  ++stats_.cut_stores;
}

bool SharedProofStore::has_zone_cut(const dns::Name& apex,
                                    std::uint64_t now_us,
                                    std::uint32_t probing_shard) {
  const auto it = cuts_.find(apex);
  if (it == cuts_.end()) return false;
  if (it->second.expires_us <= now_us) {
    cuts_.erase(it);
    return false;
  }
  ++stats_.cut_hits;
  if (it->second.shard != probing_shard) ++stats_.cut_sibling_hits;
  return true;
}

}  // namespace lookaside::resolver
