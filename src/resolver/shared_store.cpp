#include "resolver/shared_store.h"

#include <algorithm>
#include <mutex>

#include "resolver/cache.h"

namespace lookaside::resolver {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

SharedProofStore::SharedProofStore(Options options) {
  const std::size_t count =
      round_up_pow2(std::max<std::size_t>(options.stripes, 1));
  stripes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  stripe_mask_ = count - 1;
}

void SharedProofStore::store_nsec(const dns::Name& zone_apex,
                                  const dns::Name& owner, NsecProof proof) {
  // Intern before taking the stripe lock (lock-order note in the header);
  // republished spans from sibling shards dedupe to the same id here.
  const dns::NameId next_id = arena_.intern(proof.next);
  StoredNsec stored;
  stored.next = next_id;
  stored.types = std::move(proof.types);
  stored.expires_us = proof.expires_us;
  stored.shard = proof.shard;
  Stripe& stripe = stripe_for(zone_apex);
  {
    std::unique_lock lock(stripe.mutex);
    stripe.nsec[zone_apex][owner] = std::move(stored);
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

  // Greatest live owner <= qname. Mirrors ResolverCache::nsec_lookup, except
  // expired entries are skipped rather than erased — the read path holds a
  // shared lock; purge_expired() reclaims under exclusive locks.
  auto it = chain.upper_bound(qname);
  for (;;) {
    if (it == chain.begin()) return NsecCoverage::kNoProof;
    --it;
    if (it->second.expires_us > now_us) break;
  }
  const dns::Name& owner = it->first;
  const StoredNsec& proof = it->second;

  const auto record_hit = [&] {
    if (expires_us != nullptr) *expires_us = proof.expires_us;
    const bool sibling = proof.shard != probing_shard;
    if (cross_shard != nullptr) *cross_shard = sibling;
    nsec_hits_.fetch_add(1, std::memory_order_relaxed);
    if (sibling) nsec_sibling_hits_.fetch_add(1, std::memory_order_relaxed);
  };

  if (owner == qname) {
    // RFC 6840 §4.4 (mirrors ResolverCache::classify_nsec_entry): an
    // ancestor-delegation NSEC proves only DS absence below the cut.
    const bool delegation =
        std::find(proof.types.begin(), proof.types.end(), dns::RRType::kNs) !=
            proof.types.end() &&
        std::find(proof.types.begin(), proof.types.end(), dns::RRType::kSoa) ==
            proof.types.end();
    if (delegation && qtype != dns::RRType::kDs) {
      return NsecCoverage::kNoProof;
    }
    // RFC 4035 §2.3: DS absence is provable only by a parent-side NSEC.
    if (qtype == dns::RRType::kDs && !delegation) {
      return NsecCoverage::kNoProof;
    }
    // Exact NSEC: the name exists; the type bitmap decides.
    if (std::find(proof.types.begin(), proof.types.end(), qtype) ==
        proof.types.end()) {
      record_hit();
      return NsecCoverage::kTypeAbsent;
    }
    return NsecCoverage::kNoProof;
  }
  // Covering span: owner < qname < next; the chain's last record wraps
  // (next == apex means "everything after owner").
  const dns::Name& next = arena_.name(proof.next);
  const bool wraps = next == zone_apex;
  if (wraps || qname.canonical_compare(next) < 0) {
    // RFC 6840 §4.4: names below a delegation-owner NSEC are occluded, so
    // the span proves nothing inside the child zone (mirrors
    // ResolverCache::classify_nsec_entry).
    if (qname.is_subdomain_of(owner)) {
      const bool delegation =
          std::find(proof.types.begin(), proof.types.end(),
                    dns::RRType::kNs) != proof.types.end() &&
          std::find(proof.types.begin(), proof.types.end(),
                    dns::RRType::kSoa) == proof.types.end();
      if (delegation) return NsecCoverage::kNoProof;
    }
    record_hit();
    return NsecCoverage::kNameCovered;
  }
  return NsecCoverage::kNoProof;
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

void SharedProofStore::store_verdict(std::uint64_t key, bool valid,
                                     std::uint64_t expires_us,
                                     std::uint32_t shard) {
  Stripe& stripe = stripe_for_key(key);
  {
    std::unique_lock lock(stripe.mutex);
    stripe.verdicts[key] = VerdictEntry{valid, expires_us, shard};
  }
  verdict_stores_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<bool> SharedProofStore::check_verdict(std::uint64_t key,
                                                    std::uint64_t now_us,
                                                    std::uint32_t probing_shard,
                                                    bool* cross_shard) {
  Stripe& stripe = stripe_for_key(key);
  std::shared_lock lock(stripe.mutex);
  const auto it = stripe.verdicts.find(key);
  if (it == stripe.verdicts.end() || it->second.expires_us <= now_us) {
    return std::nullopt;
  }
  const bool sibling = it->second.shard != probing_shard;
  if (cross_shard != nullptr) *cross_shard = sibling;
  verdict_hits_.fetch_add(1, std::memory_order_relaxed);
  if (sibling) verdict_sibling_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.valid;
}

std::size_t SharedProofStore::verdict_count() const {
  std::size_t count = 0;
  for (const auto& stripe : stripes_) {
    std::shared_lock lock(stripe->mutex);
    count += stripe->verdicts.size();
  }
  return count;
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
    for (auto it = stripe->verdicts.begin(); it != stripe->verdicts.end();) {
      if (it->second.expires_us <= now_us) {
        it = stripe->verdicts.erase(it);
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
  stats.verdict_stores = verdict_stores_.load(std::memory_order_relaxed);
  stats.verdict_hits = verdict_hits_.load(std::memory_order_relaxed);
  stats.verdict_sibling_hits =
      verdict_sibling_hits_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace lookaside::resolver
