#include "resolver/cache.h"

#include <algorithm>

#include "dns/rdata.h"
#include "obs/tracer.h"
#include "resolver/shared_store.h"
#include "zone/nsec3.h"

namespace lookaside::resolver {

namespace {

/// Slot for `type` in a per-name slot list, or nullptr.
template <typename V>
[[nodiscard]] std::pair<dns::RRType, V>* find_type(
    std::vector<std::pair<dns::RRType, V>>* slots, dns::RRType type) {
  if (slots == nullptr) return nullptr;
  for (auto& slot : *slots) {
    if (slot.first == type) return &slot;
  }
  return nullptr;
}

/// The entry a typed slot holds: positive entries are boxed, the others
/// are stored inline.
template <typename V>
[[nodiscard]] V& slot_entry(std::unique_ptr<V>& boxed) {
  return *boxed;
}
template <typename V>
[[nodiscard]] V& slot_entry(V& entry) {
  return entry;
}

// Fixed per-entry overhead constants for the approximate accounting model
// (DESIGN.md §4f). They stand in for allocator/node/bookkeeping overhead and
// only need to be deterministic and roughly proportional to real footprint —
// eviction order and the leakage-under-pressure result depend on relative
// cost, not on matching malloc exactly.
constexpr std::size_t kNameOverhead = 32;     // Name object + text header
constexpr std::size_t kRecordOverhead = 48;   // ResourceRecord + rdata variant
constexpr std::size_t kPositiveOverhead = 96; // boxed entry + slot bookkeeping
constexpr std::size_t kNegativeOverhead = 24; // deadline + flags + slot
constexpr std::size_t kServfailOverhead = 16; // deadline + slot
constexpr std::size_t kNsecOverhead = 64;     // map node + entry fields
constexpr std::size_t kZoneCutOverhead = 16;  // deadline + slot

}  // namespace

// -- Byte accounting ---------------------------------------------------------

std::size_t ResolverCache::name_cost(const dns::Name& name) {
  return kNameOverhead + name.internal_text().size();
}

std::size_t ResolverCache::record_cost(const dns::ResourceRecord& r) {
  return kRecordOverhead + name_cost(r.name) + dns::rdata_wire_length(r.rdata);
}

std::size_t ResolverCache::positive_cost(const PositiveEntry& entry) {
  std::size_t cost = kPositiveOverhead + name_cost(entry.rrset.name());
  for (const auto& record : entry.rrset.records()) cost += record_cost(record);
  for (const auto& sig : entry.rrsigs) cost += record_cost(sig);
  return cost;
}

std::size_t ResolverCache::negative_cost(const dns::Name& name) {
  return kNegativeOverhead + name_cost(name);
}

std::size_t ResolverCache::servfail_cost(const dns::Name& name) {
  return kServfailOverhead + name_cost(name);
}

std::size_t ResolverCache::nsec_cost(const dns::Name& owner,
                                     const NsecEntry& entry) {
  return kNsecOverhead + name_cost(owner) + name_cost(entry.next) +
         entry.types.size() * sizeof(dns::RRType);
}

std::size_t ResolverCache::zone_cut_cost(const dns::Name& apex) {
  return kZoneCutOverhead + name_cost(apex);
}

void ResolverCache::charge(std::size_t cost) {
  bytes_ += cost;
  if (bytes_ > peak_bytes_) peak_bytes_ = bytes_;
}

void ResolverCache::release(std::size_t cost) {
  bytes_ = cost <= bytes_ ? bytes_ - cost : 0;
}

std::size_t ResolverCache::entry_cost(const dns::Name&,
                                      const PositiveEntry& entry) {
  return entry.cost;
}

std::size_t ResolverCache::entry_cost(const dns::Name& name,
                                      const NegativeRecord&) {
  return negative_cost(name);
}

std::size_t ResolverCache::entry_cost(const dns::Name& name,
                                      const ServfailRecord&) {
  return servfail_cost(name);
}

const char* ResolverCache::section_name(Section section) {
  switch (section) {
    case kPositive: return "positive";
    case kNegative: return "negative";
    case kServfail: return "servfail";
    case kNsec: return "nsec";
    case kZoneCut: return "zone_cut";
    default: return "unknown";
  }
}

const metrics::CounterSet ResolverCache::counters() const {
  metrics::CounterSet out;
  const auto put = [&](std::string_view name, std::uint64_t value) {
    if (value != 0) out.add(name, value);
  };
  put("cache.hit", counts_.hit);
  put("cache.miss", counts_.miss);
  put("cache.negative_hit", counts_.negative_hit);
  put("cache.servfail_hit", counts_.servfail_hit);
  put("cache.expired_swept", counts_.expired_swept);
  std::uint64_t evicted = 0;
  for (std::size_t section = 0; section < kSectionCount; ++section) {
    const std::uint64_t count = counts_.evicted[section];
    put(std::string("cache.evicted.") +
            section_name(static_cast<Section>(section)),
        count);
    evicted += count;
  }
  put("cache.evicted", evicted);
  return out;
}

// -- Positive cache ----------------------------------------------------------

void ResolverCache::store(const dns::RRset& rrset, bool validated,
                          std::vector<dns::ResourceRecord> rrsigs) {
  if (rrset.empty()) return;
  auto entry = std::make_unique<PositiveEntry>();
  entry->rrset = rrset;
  entry->expires_us = ttl_to_deadline(now(), rrset.ttl());
  entry->validated = validated;
  entry->rrsigs = std::move(rrsigs);
  entry->cost = static_cast<std::uint32_t>(positive_cost(*entry));
  charge(entry->cost);
  PositiveSlots& slots =
      positive_.get_or_insert(rrset.name(), entry->expires_us);
  if (auto* slot = find_type(&slots, rrset.type())) {
    release(slot->second->cost);
    slot->second = std::move(entry);
  } else {
    slots.emplace_back(rrset.type(), std::move(entry));
  }
}

const dns::RRset* ResolverCache::find(const dns::Name& name,
                                      dns::RRType type) {
  const auto entry = find_entry(name, type);
  return entry.has_value() ? entry->rrset : nullptr;
}

std::optional<ResolverCache::Entry> ResolverCache::find_entry(
    const dns::Name& name, dns::RRType type) {
  PositiveSlots* slots = positive_.find(name);
  auto* slot = find_type(slots, type);
  if (slot == nullptr || slot->second->expires_us <= now()) {
    if (slot != nullptr) {
      release(slot->second->cost);
      slots->erase(slots->begin() + (slot - slots->data()));
      if (slots->empty()) positive_.erase(name);
    }
    ++counts_.miss;
    return std::nullopt;
  }
  ++counts_.hit;
  PositiveEntry& entry = *slot->second;
  entry.referenced = true;
  return Entry{&entry.rrset, entry.validated, &entry.rrsigs};
}

const dns::RRset* ResolverCache::find_validated(const dns::Name& name,
                                                dns::RRType type) {
  const auto entry = find_entry(name, type);
  return entry.has_value() && entry->validated ? entry->rrset : nullptr;
}

void ResolverCache::mark_validated(const dns::Name& name, dns::RRType type) {
  if (auto* slot = find_type(positive_.find(name), type)) {
    slot->second->validated = true;
  }
}

// -- Negative cache ----------------------------------------------------------

void ResolverCache::forget(const dns::Name& name, dns::RRType type) {
  PositiveSlots* positive = positive_.find(name);
  if (auto* slot = find_type(positive, type)) {
    release(slot->second->cost);
    positive->erase(positive->begin() + (slot - positive->data()));
    if (positive->empty()) positive_.erase(name);
  }
  auto* negative = negative_.find(name);
  if (auto* slot = find_type(negative, type)) {
    release(negative_cost(name));
    negative->erase(negative->begin() + (slot - negative->data()));
    if (negative->empty()) negative_.erase(name);
  }
}

void ResolverCache::store_negative(const dns::Name& name, dns::RRType type,
                                   std::uint32_t ttl, bool nxdomain) {
  const NegativeRecord record{ttl_to_deadline(now(), ttl), nxdomain, false};
  auto& slots = negative_.get_or_insert(name, record.expires_us);
  if (auto* slot = find_type(&slots, type)) {
    slot->second = record;
  } else {
    charge(negative_cost(name));
    slots.emplace_back(type, record);
  }
}

NegativeEntry ResolverCache::negative_lookup(const dns::Name& name,
                                             dns::RRType type,
                                             std::uint64_t* expires_us) {
  auto* slots = negative_.find(name);
  if (slots == nullptr) return NegativeEntry::kNone;
  // One pass answers both questions and purges expired slots in place
  // (mirroring the positive path's erase-on-probe): an unexpired exact
  // (name, type) entry wins; failing that, any unexpired NXDOMAIN entry for
  // the name covers every type.
  const std::uint64_t now_us = now();
  bool nxdomain_hit = false;
  std::size_t write = 0;
  for (std::size_t read = 0; read < slots->size(); ++read) {
    auto& slot = (*slots)[read];
    if (slot.second.expires_us <= now_us) {
      release(negative_cost(name));
      continue;  // expired: drop by not copying it forward
    }
    if (slot.first == type) {
      slot.second.referenced = true;
      const bool nxdomain = slot.second.nxdomain;
      if (expires_us != nullptr) *expires_us = slot.second.expires_us;
      // Finish compacting before returning so the purge is not skipped.
      for (std::size_t rest = read; rest < slots->size(); ++rest) {
        auto& keep = (*slots)[rest];
        if (keep.second.expires_us <= now_us) {
          release(negative_cost(name));
          continue;
        }
        if (write != rest) (*slots)[write] = keep;
        ++write;
      }
      slots->resize(write);
      ++counts_.negative_hit;
      return nxdomain ? NegativeEntry::kNxDomain : NegativeEntry::kNoData;
    }
    if (slot.second.nxdomain) {
      slot.second.referenced = true;
      nxdomain_hit = true;
      if (expires_us != nullptr) *expires_us = slot.second.expires_us;
    }
    if (write != read) (*slots)[write] = slot;
    ++write;
  }
  slots->resize(write);
  if (slots->empty()) negative_.erase(name);
  if (nxdomain_hit) {
    ++counts_.negative_hit;
    return NegativeEntry::kNxDomain;
  }
  return NegativeEntry::kNone;
}

// -- SERVFAIL cache ----------------------------------------------------------

void ResolverCache::store_servfail(const dns::Name& name, dns::RRType type,
                                   std::uint32_t ttl) {
  const ServfailRecord record{ttl_to_deadline(now(), ttl), false};
  auto& slots = servfail_.get_or_insert(name, record.expires_us);
  if (auto* slot = find_type(&slots, type)) {
    slot->second = record;
  } else {
    charge(servfail_cost(name));
    slots.emplace_back(type, record);
  }
}

bool ResolverCache::find_servfail(const dns::Name& name, dns::RRType type) {
  auto* slots = servfail_.find(name);
  auto* slot = find_type(slots, type);
  if (slot == nullptr) return false;
  if (slot->second.expires_us <= now()) {
    release(servfail_cost(name));
    slots->erase(slots->begin() + (slot - slots->data()));
    if (slots->empty()) servfail_.erase(name);
    return false;
  }
  slot->second.referenced = true;
  ++counts_.servfail_hit;
  return true;
}

// -- Aggressive NSEC cache ---------------------------------------------------

void ResolverCache::store_nsec(const dns::Name& zone_apex,
                               const dns::ResourceRecord& nsec_record) {
  const auto* nsec = std::get_if<dns::NsecRdata>(&nsec_record.rdata);
  if (nsec == nullptr) return;
  NsecEntry entry;
  entry.next = nsec->next;
  entry.types = nsec->types;
  entry.expires_us = ttl_to_deadline(now(), nsec_record.ttl);
  entry.cost = static_cast<std::uint32_t>(nsec_cost(nsec_record.name, entry));
  charge(entry.cost);
  if (shared_ != nullptr) {
    // Write-through: sibling shards can then suppress the same denial
    // without their own registry round trip (and its Case-2 leak).
    shared_->store_nsec(zone_apex, nsec_record.name,
                        {nsec->next, entry.types, entry.expires_us,
                         shard_id_});
  }
  // The zone's slot stays due at 0: its sweep visit always moves the hand.
  NsecZone& zone = nsec_by_zone_.get_or_insert(zone_apex);
  NsecEntry& slot = zone.chain[nsec_record.name];
  release(slot.cost);  // an overwritten owner's cost; 0 for a new node
  slot = std::move(entry);
}

NsecCoverage ResolverCache::nsec_lookup(const dns::Name& zone_apex,
                                        const dns::Name& qname,
                                        dns::RRType qtype,
                                        std::uint64_t* expires_us,
                                        bool* from_shared) {
  if (!qname.is_subdomain_of(zone_apex)) return NsecCoverage::kNoProof;
  if (NsecZone* zone = nsec_by_zone_.find(zone_apex)) {
    NsecChain& chain = zone->chain;
    const auto live = live_predecessor(
        chain, qname, now(),
        [this](const NsecEntry& stale) { release(stale.cost); });
    if (live != chain.end()) {
      auto& [owner, entry] = *live;
      bool type_listed = false;
      const NsecCoverage local =
          nsec_denial(zone_apex, owner, entry.next, entry.types, qname, qtype,
                      &type_listed);
      if (local != NsecCoverage::kNoProof) {
        entry.referenced = true;
        entry.chances = limits_.nsec_extra_chances;
        *expires_us = entry.expires_us;
        return local;
      }
      // The private exact entry lists the type; a sibling's fresher proof
      // cannot contradict a validated span, so don't consult the store.
      if (type_listed) return NsecCoverage::kNoProof;
    } else if (chain.empty()) {
      nsec_by_zone_.erase(zone_apex);
    }
  }
  if (shared_ == nullptr) return NsecCoverage::kNoProof;
  const NsecCoverage shared = shared_->check_nsec(zone_apex, qname, qtype,
                                                  now(), shard_id_, expires_us);
  *from_shared = shared != NsecCoverage::kNoProof;
  return shared;
}

// -- NSEC3 closest-encloser evidence + unified denial lookup (§4j) -----------

void ResolverCache::store_nsec3_evidence(const dns::Name& zone_apex,
                                         const Nsec3Evidence& evidence) {
  Nsec3ZoneEvidence& zone = nsec3_evidence_.get_or_insert(zone_apex);
  if (zone.salt != evidence.salt || zone.iterations != evidence.iterations) {
    // Parameter rollover: hashes under the old salt/iterations are garbage.
    zone.salt = evidence.salt;
    zone.iterations = evidence.iterations;
    zone.enclosers.clear();
    zone.spans.clear();
  }
  std::uint64_t& encloser_expiry = zone.enclosers[evidence.closest_encloser];
  encloser_expiry = std::max(encloser_expiry, evidence.expires_us);
  for (const auto& [lo, hi] : evidence.spans) {
    const auto it = std::lower_bound(
        zone.spans.begin(), zone.spans.end(), lo,
        [](const Nsec3ZoneEvidence::HashedSpan& span,
           const crypto::Bytes& key) { return span.lo < key; });
    if (it != zone.spans.end() && it->lo == lo) {
      it->hi = hi;
      it->expires_us = std::max(it->expires_us, evidence.expires_us);
      continue;
    }
    if (zone.spans.size() >= kMaxNsec3SpansPerZone) continue;  // bounded
    zone.spans.insert(it, {lo, hi, evidence.expires_us});
  }
}

std::size_t ResolverCache::nsec3_evidence_spans(
    const dns::Name& zone_apex) const {
  const Nsec3ZoneEvidence* zone = nsec3_evidence_.find(zone_apex);
  return zone == nullptr ? 0 : zone->spans.size();
}

ProofResult ResolverCache::nsec3_synth_lookup(const dns::Name& zone_apex,
                                              const dns::Name& qname) {
  ProofResult out;
  Nsec3ZoneEvidence* zone = nsec3_evidence_.find(zone_apex);
  if (zone == nullptr) return out;
  if (!qname.is_subdomain_of(zone_apex) || qname.label_count() == 0) {
    return out;
  }
  // Hash-match gate: only probe when some proper ancestor of qname is a
  // proven closest encloser (whose wildcard is also proven absent). Then a
  // single iterated hash of the next-closer name decides — covered by a
  // validated span means the name provably does not exist (RFC 8198 over
  // RFC 5155 §8.4), not covered means the evidence is silent.
  const std::uint64_t now_us = now();
  dns::Name next_closer = qname;
  const Nsec3ZoneEvidence::HashedSpan* witness = nullptr;
  bool gated = false;
  while (next_closer.label_count() > zone_apex.label_count()) {
    const dns::Name ancestor = next_closer.parent();
    const auto it = zone->enclosers.find(ancestor);
    if (it != zone->enclosers.end() && it->second > now_us) {
      gated = true;
      break;
    }
    next_closer = ancestor;
  }
  if (!gated) return out;
  const crypto::Sha1::Digest digest =
      zone::nsec3_hash(next_closer, zone->salt, zone->iterations);
  out.hash_ops = zone::nsec3_hash_ops(zone->iterations);
  for (const Nsec3ZoneEvidence::HashedSpan& span : zone->spans) {
    if (span.expires_us > now_us && nsec3_covers(digest, span.lo, span.hi)) {
      witness = &span;
      break;
    }
  }
  if (witness == nullptr) return out;  // hash missed every validated span
  out.coverage = DenialKind::kNxDomain;
  out.origin = ProofOrigin::kSynthesized;
  out.expires_us = witness->expires_us;
  return out;
}

ProofResult ResolverCache::find_denial(const dns::Name& zone_apex,
                                       const dns::Name& qname,
                                       dns::RRType qtype, unsigned sources) {
  ProofResult out;
  if ((sources & DenialSources::kNegative) != 0) {
    std::uint64_t expires = 0;
    const NegativeEntry negative = negative_lookup(qname, qtype, &expires);
    if (negative != NegativeEntry::kNone) {
      out.coverage = negative == NegativeEntry::kNxDomain
                         ? DenialKind::kNxDomain
                         : DenialKind::kNoData;
      out.origin = ProofOrigin::kLocal;
      out.expires_us = expires;
      return out;
    }
  }
  if ((sources & DenialSources::kSpans) != 0) {
    std::uint64_t expires = 0;
    bool from_shared = false;
    const NsecCoverage coverage =
        nsec_lookup(zone_apex, qname, qtype, &expires, &from_shared);
    if (coverage != NsecCoverage::kNoProof) {
      out.coverage = coverage == NsecCoverage::kNameCovered
                         ? DenialKind::kNxDomain
                         : DenialKind::kNoData;
      // A span hit with no exact entry *is* RFC 8198 synthesis; the shared
      // origin additionally tells attribution that a sibling proved it.
      out.origin =
          from_shared ? ProofOrigin::kShared : ProofOrigin::kSynthesized;
      out.expires_us = expires;
      return out;
    }
  }
  if ((sources & DenialSources::kNsec3) != 0) {
    return nsec3_synth_lookup(zone_apex, qname);
  }
  return out;
}

std::size_t ResolverCache::nsec_count(const dns::Name& zone_apex) const {
  // With a shared store attached the shared chain is the union across all
  // shards (private stores write through), so it is the authoritative count.
  if (shared_ != nullptr) return shared_->nsec_count(zone_apex);
  const NsecZone* zone = nsec_by_zone_.find(zone_apex);
  return zone == nullptr ? 0 : zone->chain.size();
}

// -- Zone-cut cache ----------------------------------------------------------

void ResolverCache::store_zone_cut(const dns::Name& apex, std::uint32_t ttl) {
  const std::uint64_t expires_us = ttl_to_deadline(now(), ttl);
  ZoneCutRecord& record = zone_cuts_.get_or_insert(apex, expires_us);
  if (record.expires_us == 0) charge(zone_cut_cost(apex));
  record.expires_us = expires_us;
  record.referenced = false;
  if (shared_ != nullptr) {
    shared_->store_zone_cut(apex, record.expires_us, shard_id_);
  }
}

dns::Name ResolverCache::deepest_known_cut(const dns::Name& qname) {
  dns::Name candidate = qname;
  for (;;) {
    if (ZoneCutRecord* record = zone_cuts_.find(candidate)) {
      if (record->expires_us > now()) {
        record->referenced = true;
        return candidate;
      }
      release(zone_cut_cost(candidate));
      zone_cuts_.erase(candidate);
    }
    // A sibling's published cut is as good as our own: iteration can start
    // at the deepest cut *any* shard has proven.
    if (shared_ != nullptr &&
        shared_->has_zone_cut(candidate, now(), shard_id_)) {
      return candidate;
    }
    if (candidate.is_root()) return candidate;
    candidate = candidate.parent();
  }
}

// -- Lifecycle: sweep + eviction ---------------------------------------------

std::size_t ResolverCache::sweep_section(Section section, std::size_t budget) {
  // Only slots due by now can hold an expired entry; the walk passes the
  // rest with one load of their due time. Each visit leaves the slot due at
  // the earliest expiry that survives it.
  const std::uint64_t now_us = now();
  std::size_t reclaimed = 0;
  dns::NameMapSweepCursor* cursor = &sweep_cursor_[section];
  // One visit to a name's typed slots (positive, negative or SERVFAIL).
  const auto sweep_slots = [&](const dns::Name& name, auto& slots,
                               std::uint64_t& due) {
    std::size_t write = 0;
    due = dns::kSweepAll;
    for (std::size_t read = 0; read < slots.size(); ++read) {
      auto& slot = slots[read];
      const auto& entry = slot_entry(slot.second);
      if (entry.expires_us <= now_us) {
        release(entry_cost(name, entry));
        ++reclaimed;
        continue;
      }
      due = std::min(due, entry.expires_us);
      if (write != read) slots[write] = std::move(slot);
      ++write;
    }
    slots.resize(write);
    return slots.empty();  // erase the name when nothing survives
  };
  switch (section) {
    case kPositive:
      positive_.sweep(cursor, budget, now_us, sweep_slots);
      break;
    case kNegative:
      negative_.sweep(cursor, budget, now_us, sweep_slots);
      break;
    case kServfail:
      servfail_.sweep(cursor, budget, now_us, sweep_slots);
      break;
    case kNsec:
      // Budget counts chain entries here, not hash slots: one DLV zone can
      // hold a 100k-entry chain, and visiting a whole chain per tick would
      // defeat the amortization. The per-zone `hand` resumes mid-chain. A
      // visit always moves the hand, which eviction shares, so a zone's
      // slot is never skipped: its due time stays 0.
      nsec_by_zone_.sweep(cursor, 1, now_us, [&](const dns::Name&,
                                                 NsecZone& zone,
                                                 std::uint64_t&) {
        auto it = zone.resume();
        std::size_t visited = 0;
        while (it != zone.chain.end() && visited < budget) {
          ++visited;
          if (it->second.expires_us <= now_us) {
            release(it->second.cost);
            ++reclaimed;
            it = zone.chain.erase(it);
          } else {
            ++it;
          }
        }
        zone.park(it);
        return zone.chain.empty();
      });
      break;
    case kZoneCut:
      zone_cuts_.sweep(cursor, budget, now_us, [&](const dns::Name& apex,
                                                   ZoneCutRecord& record,
                                                   std::uint64_t& due) {
        if (record.expires_us > now_us) {
          due = record.expires_us;
          return false;
        }
        release(zone_cut_cost(apex));
        ++reclaimed;
        return true;
      });
      break;
    default:
      break;
  }
  return reclaimed;
}

std::size_t ResolverCache::sweep_expired(std::size_t max_slots) {
  std::size_t reclaimed = 0;
  // Rotate one section per call; empty sections cost nothing, so skip
  // through them without burning the budget.
  for (std::size_t attempt = 0; attempt < kSectionCount; ++attempt) {
    const auto section = static_cast<Section>(sweep_section_index_);
    sweep_section_index_ = (sweep_section_index_ + 1) % kSectionCount;
    if (section_empty(section)) continue;
    reclaimed = sweep_section(section, max_slots);
    break;
  }
  counts_.expired_swept += reclaimed;
  return reclaimed;
}

bool ResolverCache::section_empty(Section section) const {
  switch (section) {
    case kPositive: return positive_.empty();
    case kNegative: return negative_.empty();
    case kServfail: return servfail_.empty();
    case kNsec: return nsec_by_zone_.empty();
    case kZoneCut: return zone_cuts_.empty();
    default: return false;
  }
}

void ResolverCache::trace_eviction(Section section, const dns::Name& owner) {
  if (tracer_ == nullptr) return;
  obs::Event event;
  event.kind = obs::EventKind::kCacheEvicted;
  event.name = owner.to_text();
  event.detail = section_name(section);
  tracer_->emit(std::move(event));
}

bool ResolverCache::evict_step(Section section, std::size_t budget) {
  dns::NameMapSweepCursor* cursor = &evict_cursor_[section];
  std::size_t evicted = 0;
  // Second chance for a name's typed slots (positive, negative or
  // SERVFAIL) is per name: any referenced entry spares the whole slot this
  // pass (and spends the reference bits).
  const auto evict_slots = [&](const dns::Name& name, auto& slots,
                               std::uint64_t&) {
    if (evicted > 0) return false;  // one victim per step
    bool spared = false;
    for (auto& slot : slots) {
      auto& entry = slot_entry(slot.second);
      if (entry.referenced) {
        entry.referenced = false;
        spared = true;
      }
    }
    if (spared) return false;
    for (auto& slot : slots) release(entry_cost(name, slot_entry(slot.second)));
    evicted = slots.size();
    trace_eviction(section, name);
    return true;
  };
  switch (section) {
    case kPositive:
      positive_.sweep(cursor, budget, dns::kSweepAll, evict_slots);
      break;
    case kNegative:
      negative_.sweep(cursor, budget, dns::kSweepAll, evict_slots);
      break;
    case kServfail:
      servfail_.sweep(cursor, budget, dns::kSweepAll, evict_slots);
      break;
    case kNsec:
      nsec_by_zone_.sweep(cursor, 1, dns::kSweepAll,
                          [&](const dns::Name&, NsecZone& zone,
                              std::uint64_t&) {
        auto it = zone.resume();
        std::size_t visited = 0;
        while (it != zone.chain.end() && visited < budget && evicted == 0) {
          ++visited;
          if (it->second.referenced) {
            it->second.referenced = false;
            ++it;
          } else if (it->second.chances > 0) {
            // Load-bearing span under the RFC 8198 profile: burn one of its
            // earned chances instead of evicting (see CacheLimits).
            --it->second.chances;
            ++it;
          } else {
            release(it->second.cost);
            evicted = 1;
            trace_eviction(kNsec, it->first);
            it = zone.chain.erase(it);
          }
        }
        zone.park(it);
        return zone.chain.empty();
      });
      break;
    case kZoneCut:
      zone_cuts_.sweep(cursor, budget, dns::kSweepAll,
                       [&](const dns::Name& apex, ZoneCutRecord& record,
                           std::uint64_t&) {
        if (evicted > 0) return false;
        if (record.referenced) {
          record.referenced = false;
          return false;
        }
        release(zone_cut_cost(apex));
        evicted = 1;
        trace_eviction(kZoneCut, apex);
        return true;
      });
      break;
    default:
      break;
  }
  counts_.evicted[section] += evicted;
  return evicted > 0;
}

void ResolverCache::maintain() {
  sweep_expired(kSweepStep);
  if (limits_.max_bytes == 0 || bytes_ <= limits_.max_bytes) return;
  // Second-chance eviction until under the cap. The clock hand rotates
  // across sections so pressure lands proportionally on whichever stores
  // hold data; each step scans a bounded window. The pass guard bounds the
  // worst case (every entry referenced ⇒ one full spare-everything pass,
  // then victims on the second) so a cap smaller than one entry cannot spin.
  const std::size_t total_slots =
      positive_.slot_count() + negative_.slot_count() +
      servfail_.slot_count() + nsec_by_zone_.slot_count() +
      zone_cuts_.slot_count() + nsec_by_zone_.size();
  // The guard bounds consecutive *victimless* work: at most ~4 full table
  // walks (enough to spend every second-chance bit) before concluding no
  // further eviction is possible — which only happens if the accounting
  // says over-cap while the stores are empty. Progress replenishes it, so
  // an arbitrarily deep purge still terminates: every eviction removes at
  // least one entry and entries cannot appear mid-maintain.
  const std::size_t initial_guard = 4 * (total_slots + kSectionCount);
  std::size_t guard = initial_guard;
  while (bytes_ > limits_.max_bytes && guard > 0) {
    const auto section = static_cast<Section>(evict_section_index_);
    evict_section_index_ = (evict_section_index_ + 1) % kSectionCount;
    if (section_empty(section)) {
      --guard;
      continue;
    }
    if (evict_step(section, kSweepStep)) {
      guard = initial_guard;
      continue;
    }
    // Charge the hash slots the step walked: kSweepStep, or the one zone
    // slot an NSEC step visits (with part of that zone's chain).
    const std::size_t walked = section == kNsec ? 1 : kSweepStep;
    guard = guard > walked ? guard - walked : 0;
  }
}

void ResolverCache::clear() {
  positive_.clear();
  negative_.clear();
  servfail_.clear();
  nsec_by_zone_.clear();
  nsec3_evidence_.clear();
  zone_cuts_.clear();
  bytes_ = 0;
  peak_bytes_ = 0;
  sweep_section_index_ = 0;
  evict_section_index_ = 0;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    sweep_cursor_[i] = dns::NameMapSweepCursor{};
    evict_cursor_[i] = dns::NameMapSweepCursor{};
  }
}

}  // namespace lookaside::resolver
