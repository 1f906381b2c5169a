#include "resolver/shared_store.h"

#include <algorithm>
#include <mutex>

namespace lookaside::resolver {

SharedProofStore::SharedProofStore() {
  stripes_.reserve(kStripes);
  for (std::size_t i = 0; i < kStripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

void SharedProofStore::store_nsec(const dns::Name& zone_apex,
                                  const dns::Name& owner, NsecProof proof) {
  Stripe& stripe = stripe_for(zone_apex);
  {
    std::unique_lock lock(stripe.mutex);
    stripe.nsec[zone_apex][owner] = std::move(proof);
  }
  nsec_stores_.fetch_add(1, std::memory_order_relaxed);
}

NsecCoverage SharedProofStore::check_nsec(const dns::Name& zone_apex,
                                          const dns::Name& qname,
                                          dns::RRType qtype,
                                          std::uint64_t now_us,
                                          std::uint32_t probing_shard,
                                          std::uint64_t* expires_us,
                                          bool* cross_shard) {
  if (!qname.is_subdomain_of(zone_apex)) return NsecCoverage::kNoProof;
  Stripe& stripe = stripe_for(zone_apex);
  std::shared_lock lock(stripe.mutex);
  const auto zone_it = stripe.nsec.find(zone_apex);
  if (zone_it == stripe.nsec.end()) return NsecCoverage::kNoProof;
  const NsecChain& chain = zone_it->second;

  // Greatest live owner <= qname, as in ResolverCache::nsec_lookup, except
  // expired entries are skipped rather than erased — the read path holds a
  // shared lock; purge_expired() reclaims under exclusive locks.
  auto it = chain.upper_bound(qname);
  for (;;) {
    if (it == chain.begin()) return NsecCoverage::kNoProof;
    --it;
    if (it->second.expires_us > now_us) break;
  }
  const NsecProof& proof = it->second;
  const NsecCoverage coverage =
      nsec_denial(zone_apex, it->first, proof.next, proof.types, qname, qtype);
  if (coverage == NsecCoverage::kNoProof) return coverage;
  if (expires_us != nullptr) *expires_us = proof.expires_us;
  const bool sibling = proof.shard != probing_shard;
  if (cross_shard != nullptr) *cross_shard = sibling;
  nsec_hits_.fetch_add(1, std::memory_order_relaxed);
  if (sibling) nsec_sibling_hits_.fetch_add(1, std::memory_order_relaxed);
  return coverage;
}

std::size_t SharedProofStore::nsec_count(const dns::Name& zone_apex) const {
  const Stripe& stripe = stripe_for(zone_apex);
  std::shared_lock lock(stripe.mutex);
  const auto zone_it = stripe.nsec.find(zone_apex);
  return zone_it == stripe.nsec.end() ? 0 : zone_it->second.size();
}

void SharedProofStore::store_zone_cut(const dns::Name& apex,
                                      std::uint64_t expires_us,
                                      std::uint32_t shard) {
  Stripe& stripe = stripe_for(apex);
  {
    std::unique_lock lock(stripe.mutex);
    CutEntry& entry = stripe.cuts[apex];
    entry.expires_us = std::max(entry.expires_us, expires_us);
    entry.shard = shard;
  }
  cut_stores_.fetch_add(1, std::memory_order_relaxed);
}

bool SharedProofStore::has_zone_cut(const dns::Name& apex,
                                    std::uint64_t now_us,
                                    std::uint32_t probing_shard) {
  Stripe& stripe = stripe_for(apex);
  std::shared_lock lock(stripe.mutex);
  const auto it = stripe.cuts.find(apex);
  if (it == stripe.cuts.end() || it->second.expires_us <= now_us) {
    return false;
  }
  cut_hits_.fetch_add(1, std::memory_order_relaxed);
  if (it->second.shard != probing_shard) {
    cut_sibling_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

std::size_t SharedProofStore::purge_expired(std::uint64_t now_us) {
  std::size_t reclaimed = 0;
  for (const auto& stripe : stripes_) {
    std::unique_lock lock(stripe->mutex);
    for (auto zone_it = stripe->nsec.begin(); zone_it != stripe->nsec.end();) {
      NsecChain& chain = zone_it->second;
      for (auto it = chain.begin(); it != chain.end();) {
        if (it->second.expires_us <= now_us) {
          it = chain.erase(it);
          ++reclaimed;
        } else {
          ++it;
        }
      }
      zone_it = chain.empty() ? stripe->nsec.erase(zone_it) : ++zone_it;
    }
    for (auto it = stripe->cuts.begin(); it != stripe->cuts.end();) {
      if (it->second.expires_us <= now_us) {
        it = stripe->cuts.erase(it);
        ++reclaimed;
      } else {
        ++it;
      }
    }
  }
  return reclaimed;
}

SharedProofStore::Stats SharedProofStore::stats() const {
  Stats stats;
  stats.nsec_stores = nsec_stores_.load(std::memory_order_relaxed);
  stats.nsec_hits = nsec_hits_.load(std::memory_order_relaxed);
  stats.nsec_sibling_hits =
      nsec_sibling_hits_.load(std::memory_order_relaxed);
  stats.cut_stores = cut_stores_.load(std::memory_order_relaxed);
  stats.cut_hits = cut_hits_.load(std::memory_order_relaxed);
  stats.cut_sibling_hits =
      cut_sibling_hits_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace lookaside::resolver
