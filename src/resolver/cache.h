// Resolver caches: positive RRset cache, RFC 2308 negative cache, the
// aggressive NSEC cache (RFC 8198 / RFC 5074 §5), and known-zone-cut cache.
//
// The aggressive NSEC cache is load-bearing for the paper: it is the only
// reason leaked-domain counts grow sub-linearly (Figs. 8-9), and shuffling
// the query order changes which domains leak (§5.1 "Order Matters").
//
// Lifecycle (DESIGN.md §4f): every entry is byte-accounted at store time,
// an incremental amortized sweep reclaims expired entries instead of
// leaving them to linger until probed, and an optional byte cap
// (CacheLimits.max_bytes — BIND max-cache-size / Unbound msg-cache-size
// analogue) is enforced by second-chance (clock) eviction across all five
// stores. Evicting aggressive-NSEC proofs under memory pressure re-opens
// the paper's Case-2 leakage channel — bench_cache_churn measures exactly
// that.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/bytes.h"
#include "dns/name.h"
#include "dns/name_map.h"
#include "dns/record.h"
#include "metrics/counters.h"
#include "resolver/denial.h"
#include "sim/clock.h"

namespace lookaside::obs {
class Tracer;
}

namespace lookaside::resolver {

class SharedProofStore;

/// Negative-cache lookup outcome.
enum class NegativeEntry {
  kNone,      // nothing cached
  kNoData,    // name exists, type doesn't
  kNxDomain,  // name doesn't exist
};

/// Lifecycle limits for one ResolverCache (DESIGN.md §4f).
struct CacheLimits {
  /// Approximate cap on the cache's total footprint in bytes; 0 means
  /// unbounded (the paper-era BIND default).
  std::uint64_t max_bytes = 0;
  /// Extra clock-eviction chances granted to an NSEC span each time it
  /// proves a denial. 0 keeps the paper-era single second chance. The
  /// RFC 8198 profile sets this > 0: once synthesis elides exact negative
  /// entries, the spans become load-bearing answer material, and losing
  /// one to mid-pressure eviction re-opens a whole range of Case-2 leaks
  /// rather than a single name.
  std::uint8_t nsec_extra_chances = 0;
};

/// All resolver-side caches, sharing one virtual clock.
class ResolverCache {
 public:
  explicit ResolverCache(const sim::SimClock& clock) : clock_(&clock) {}

  // -- Positive cache -------------------------------------------------------

  /// A cached RRset together with its DNSSEC state.
  struct Entry {
    const dns::RRset* rrset = nullptr;
    bool validated = false;
    const std::vector<dns::ResourceRecord>* rrsigs = nullptr;
  };

  /// Stores an RRset for its TTL. `validated` marks DNSSEC-validated data;
  /// `rrsigs` keeps covering signatures so cached data can be re-validated.
  void store(const dns::RRset& rrset, bool validated,
             std::vector<dns::ResourceRecord> rrsigs = {});

  /// Unexpired cached RRset or nullptr. Counts hits/misses.
  [[nodiscard]] const dns::RRset* find(const dns::Name& name,
                                       dns::RRType type);

  /// Like find() but exposing validation state and stored signatures.
  [[nodiscard]] std::optional<Entry> find_entry(const dns::Name& name,
                                                dns::RRType type);

  /// Cached RRset only if it was stored as validated.
  [[nodiscard]] const dns::RRset* find_validated(const dns::Name& name,
                                                 dns::RRType type);

  /// Upgrades an existing entry to validated (after post-hoc validation).
  void mark_validated(const dns::Name& name, dns::RRType type);

  /// Drops the positive and the negative entry for exactly (name, type):
  /// data that failed validation, which a later probe would otherwise
  /// serve as insecure.
  void forget(const dns::Name& name, dns::RRType type);

  // -- Negative cache (RFC 2308) -------------------------------------------

  void store_negative(const dns::Name& name, dns::RRType type,
                      std::uint32_t ttl, bool nxdomain);

  // -- Unified denial lookup (DESIGN.md §4j) ---------------------------------

  /// The one denial entry point: the strongest available proof that
  /// (qname, qtype) is absent under `zone_apex`, from already-validated
  /// material, consulting only the proof classes `sources` enables.
  /// Precedence on multiple hits: exact negative entry, then the private
  /// NSEC chain, then the shared store, then hash-gated NSEC3 synthesis
  /// (cheapest-to-verify first). Both NSEC sources judge their span with
  /// the one rule, nsec_denial. Exact-negative hits count
  /// "cache.negative_hit".
  [[nodiscard]] ProofResult find_denial(const dns::Name& zone_apex,
                                        const dns::Name& qname,
                                        dns::RRType qtype,
                                        unsigned sources = DenialSources::kAll);

  // -- SERVFAIL cache (RFC 2308 §7) ------------------------------------------

  /// Remembers that (name, type) recently ended in SERVFAIL so repeated
  /// queries do not re-traverse a failing hierarchy.
  void store_servfail(const dns::Name& name, dns::RRType type,
                      std::uint32_t ttl);
  [[nodiscard]] bool find_servfail(const dns::Name& name, dns::RRType type);

  // -- Aggressive NSEC cache (RFC 8198; required by RFC 5074 validators) ----

  /// Stores a validated NSEC record belonging to `zone_apex`.
  void store_nsec(const dns::Name& zone_apex,
                  const dns::ResourceRecord& nsec_record);

  // -- NSEC3 closest-encloser evidence (RFC 8198 over RFC 5155) --------------

  /// Verified material from one NSEC3 denial proof, fed back by the
  /// resolver after validation so later queries can synthesize denials
  /// without contacting authorities: the proven closest encloser (whose
  /// wildcard was also proven absent), the zone's hash parameters, and the
  /// validated hashed spans.
  struct Nsec3Evidence {
    crypto::Bytes salt;
    std::uint16_t iterations = 0;
    dns::Name closest_encloser;
    /// Validated [owner_hash, next_hashed) spans (raw 20-byte digests).
    std::vector<std::pair<crypto::Bytes, crypto::Bytes>> spans;
    std::uint64_t expires_us = 0;
  };

  /// Records evidence for `zone_apex`. A salt/iteration change (parameter
  /// rollover) drops all prior evidence for the zone; per-zone span count
  /// is capped (kMaxNsec3SpansPerZone) so evidence stays bounded metadata
  /// outside the byte-cap eviction loop.
  void store_nsec3_evidence(const dns::Name& zone_apex,
                            const Nsec3Evidence& evidence);

  /// Cached-evidence introspection for tests/benches.
  [[nodiscard]] std::size_t nsec3_evidence_spans(
      const dns::Name& zone_apex) const;

  static constexpr std::size_t kMaxNsec3SpansPerZone = 512;

  /// Number of NSEC entries known for `zone_apex`. With a shared proof
  /// store attached this is the *shared* chain size — the union across all
  /// shards (private entries are written through, so they are a subset) —
  /// which keeps leak-cause attribution ("nsec-gap" vs "cold-miss")
  /// invariant across shard counts.
  [[nodiscard]] std::size_t nsec_count(const dns::Name& zone_apex) const;

  // -- Zone-cut cache ---------------------------------------------------------

  /// Remembers that `apex` is a zone cut (so iteration can start there).
  void store_zone_cut(const dns::Name& apex, std::uint32_t ttl);

  /// Deepest unexpired known cut enclosing `qname`; root when none.
  [[nodiscard]] dns::Name deepest_known_cut(const dns::Name& qname);

  // -- Shared proof store (multi-shard serving, DESIGN.md §4i) ----------------

  /// Attaches the shared NSEC/zone-cut store (nullable to detach).
  /// Afterwards this cache consults the store whenever its private NSEC
  /// chain or zone-cut table misses, and writes every validated NSEC span
  /// and zone cut through so sibling shards can suppress the same upstream
  /// queries. `shard_id` labels published entries for the cross-shard
  /// suppressed-leak accounting.
  void attach_shared(SharedProofStore* store, std::uint32_t shard_id = 0) {
    shared_ = store;
    shard_id_ = shard_id;
  }

  // -- Lifecycle (accounting / sweep / eviction) ------------------------------

  /// Attaches a tracer (nullable): pressure evictions then emit
  /// cache_evicted events (detail = section), making churn visible on
  /// timelines and attributable in the leak ledger.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Installs the byte cap and the NSEC eviction chances.
  void set_limits(const CacheLimits& limits) { limits_ = limits; }

  /// Approximate current footprint in bytes across all five stores. The
  /// accounting formulas are frozen: they decide eviction order, which the
  /// cap-sweep Case-2 series in BENCH_cache.json pins.
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  /// High-water mark of bytes() since construction (or clear()).
  [[nodiscard]] std::uint64_t peak_bytes() const { return peak_bytes_; }

  /// Incremental expiry sweep: visits up to `max_slots` slots, resuming
  /// where the previous sweep stopped and rotating across the five stores,
  /// and reclaims every expired entry found. Counts "cache.expired_swept".
  /// Returns the number of entries reclaimed by this call.
  std::size_t sweep_expired(std::size_t max_slots);

  /// One maintenance tick, called by the resolver at resolution boundaries
  /// (never mid-resolution: eviction frees boxed entries, so handed-out
  /// Entry pointers are only guaranteed stable within one resolution once a
  /// cap is set): a kSweepStep-slot expiry sweep plus second-chance
  /// eviction while over the byte cap. Counts "cache.evicted" (+ per-store
  /// breakdowns).
  void maintain();

  /// Slots one maintain() tick sweeps, and the window one eviction step
  /// scans.
  static constexpr std::size_t kSweepStep = 32;

  // -- Maintenance ------------------------------------------------------------

  void clear();

  /// Counters: "cache.hit", "cache.miss", "cache.negative_hit",
  /// "cache.servfail_hit", "cache.expired_swept", "cache.evicted",
  /// "cache.evicted.positive|negative|servfail|nsec|zone_cut". A snapshot
  /// built from typed fields; a name with a zero count is absent.
  [[nodiscard]] const metrics::CounterSet counters() const;

 private:
  struct PositiveEntry {
    dns::RRset rrset;
    std::uint64_t expires_us = 0;
    bool validated = false;
    bool referenced = false;  // second-chance bit, set on hit
    std::uint32_t cost = 0;   // accounted bytes
    std::vector<dns::ResourceRecord> rrsigs;
  };
  struct NegativeRecord {
    std::uint64_t expires_us = 0;
    bool nxdomain = false;
    bool referenced = false;
  };
  struct ServfailRecord {
    std::uint64_t expires_us = 0;
    bool referenced = false;
  };
  struct NsecEntry {
    dns::Name next;
    std::vector<dns::RRType> types;
    std::uint64_t expires_us = 0;
    bool referenced = false;
    std::uint8_t chances = 0;  // refilled on hit from nsec_extra_chances
    std::uint32_t cost = 0;
  };
  struct ZoneCutRecord {
    std::uint64_t expires_us = 0;
    bool referenced = false;
  };

  // Per-name slot lists: one hash probe finds every type cached under a
  // name (typically 1-3 entries), so probes do no (Name, RRType) pair-key
  // construction and the NXDOMAIN any-type scan is a tiny linear walk
  // instead of a map range scan. Positive entries are boxed so handed-out
  // Entry pointers survive rehashes, matching std::map pointer stability.
  template <typename V>
  using TypeSlots = std::vector<std::pair<dns::RRType, V>>;
  using PositiveSlots = TypeSlots<std::unique_ptr<PositiveEntry>>;
  // NSEC chains stay ordered: coverage checks need the greatest owner
  // <= qname (predecessor query), which a hash table cannot answer, and one
  // O(log n) walk down the chain answers every span lookup. The wrapper
  // carries the per-zone resume hand for incremental sweeps, so a
  // 100k-entry DLV chain is reclaimed a few entries per tick instead of in
  // one stall.
  using NsecChain = std::map<dns::Name, NsecEntry>;
  struct NsecZone {
    NsecChain chain;
    // Sweep/eviction resume position, shared by the expiry sweep and the
    // eviction clock: the next visit starts at lower_bound(hand), and a
    // root hand means begin().
    dns::Name hand;

    [[nodiscard]] NsecChain::iterator resume() {
      return hand.is_root() ? chain.begin() : chain.lower_bound(hand);
    }
    /// Parks the hand at `it`; parking at end() wraps it to the root.
    void park(NsecChain::iterator it) {
      hand = it == chain.end() ? dns::Name{} : it->first;
    }
  };
  struct Nsec3ZoneEvidence {
    crypto::Bytes salt;
    std::uint16_t iterations = 0;
    /// Proven closest enclosers (wildcard absence included) -> expiry.
    std::map<dns::Name, std::uint64_t> enclosers;
    struct HashedSpan {
      crypto::Bytes lo;  // owner hash
      crypto::Bytes hi;  // next_hashed
      std::uint64_t expires_us = 0;
    };
    std::vector<HashedSpan> spans;  // sorted by lo, deduped
  };

  /// The five stores, as clock-hand / sweep-rotation indices.
  enum Section : std::size_t {
    kPositive = 0,
    kNegative,
    kServfail,
    kNsec,
    kZoneCut,
    kSectionCount,
  };
  static const char* section_name(Section section);

  [[nodiscard]] std::uint64_t now() const { return clock_->now_us(); }
  [[nodiscard]] static std::uint64_t ttl_to_deadline(std::uint64_t now_us,
                                                     std::uint32_t ttl) {
    return now_us + static_cast<std::uint64_t>(ttl) * 1'000'000ULL;
  }

  // -- Byte accounting (approximate, deterministic) --------------------------

  [[nodiscard]] static std::size_t name_cost(const dns::Name& name);
  [[nodiscard]] static std::size_t record_cost(const dns::ResourceRecord& r);
  [[nodiscard]] static std::size_t positive_cost(const PositiveEntry& entry);
  [[nodiscard]] static std::size_t negative_cost(const dns::Name& name);
  [[nodiscard]] static std::size_t servfail_cost(const dns::Name& name);
  [[nodiscard]] static std::size_t nsec_cost(const dns::Name& owner,
                                             const NsecEntry& entry);
  [[nodiscard]] static std::size_t zone_cut_cost(const dns::Name& apex);

  void charge(std::size_t cost);
  void release(std::size_t cost);

  // What one entry of a typed-slot section (positive, negative, SERVFAIL)
  // releases, so the three share one sweep and one second-chance callback.
  [[nodiscard]] static std::size_t entry_cost(const dns::Name& name,
                                              const PositiveEntry& entry);
  [[nodiscard]] static std::size_t entry_cost(const dns::Name& name,
                                              const NegativeRecord& entry);
  [[nodiscard]] static std::size_t entry_cost(const dns::Name& name,
                                              const ServfailRecord& entry);

  // -- Unified denial internals (DESIGN.md §4j) ------------------------------
  // The per-class lookups find_denial() composes.

  [[nodiscard]] NegativeEntry negative_lookup(const dns::Name& name,
                                              dns::RRType type,
                                              std::uint64_t* expires_us);
  /// Span lookup: one predecessor walk over the private chain, reclaiming
  /// the expired entries it meets, judged by nsec_denial; when the chain
  /// has no proof, the shared store (when attached). On a hit `*expires_us`
  /// receives the proof deadline and `*from_shared` whether the span came
  /// from the shared store.
  [[nodiscard]] NsecCoverage nsec_lookup(const dns::Name& zone_apex,
                                         const dns::Name& qname,
                                         dns::RRType qtype,
                                         std::uint64_t* expires_us,
                                         bool* from_shared);
  /// Hash-gated NSEC3 synthesis (RFC 8198 over cached closest-encloser
  /// evidence). Hashes at most one name (the next closer) and only when
  /// qname sits under a proven encloser; hash_ops is reported even on a
  /// miss — the probe burned the CPU either way.
  [[nodiscard]] ProofResult nsec3_synth_lookup(const dns::Name& zone_apex,
                                               const dns::Name& qname);

  // -- Sweep / eviction internals --------------------------------------------

  /// Sweeps up to `budget` slots of `section` for expired entries;
  /// returns entries reclaimed.
  std::size_t sweep_section(Section section, std::size_t budget);
  /// One clock step in `section`: visits up to `budget` slots; gives
  /// referenced entries a second chance (clearing the bit) and evicts the
  /// first unreferenced one. Returns true when something was evicted.
  bool evict_step(Section section, std::size_t budget);
  void trace_eviction(Section section, const dns::Name& owner);
  [[nodiscard]] bool section_empty(Section section) const;

  const sim::SimClock* clock_;
  obs::Tracer* tracer_ = nullptr;
  SharedProofStore* shared_ = nullptr;  // nullable; not owned
  std::uint32_t shard_id_ = 0;
  // What counters() exports; "cache.evicted" is the sum of the sections'.
  struct Counts {
    std::uint64_t hit = 0;
    std::uint64_t miss = 0;
    std::uint64_t negative_hit = 0;
    std::uint64_t servfail_hit = 0;
    std::uint64_t expired_swept = 0;
    std::uint64_t evicted[kSectionCount] = {};
  };
  Counts counts_;
  CacheLimits limits_;
  std::uint64_t bytes_ = 0;
  std::uint64_t peak_bytes_ = 0;
  dns::NameHashMap<PositiveSlots> positive_;
  dns::NameHashMap<TypeSlots<NegativeRecord>> negative_;
  dns::NameHashMap<TypeSlots<ServfailRecord>> servfail_;
  dns::NameHashMap<NsecZone> nsec_by_zone_;
  dns::NameHashMap<Nsec3ZoneEvidence> nsec3_evidence_;
  dns::NameHashMap<ZoneCutRecord> zone_cuts_;
  // Sweep rotation state: which section the next sweep tick works on, plus
  // one resume cursor per section. Cursors carry the table generation they
  // were taken under (NameMapSweepCursor), so a rehash between sweep steps
  // restarts that section's walk instead of resuming into a reshuffled
  // slot ordering.
  std::size_t sweep_section_index_ = 0;
  dns::NameMapSweepCursor sweep_cursor_[kSectionCount] = {};
  // Eviction clock state: independent hands so pressure eviction does not
  // perturb the expiry sweep's coverage.
  std::size_t evict_section_index_ = 0;
  dns::NameMapSweepCursor evict_cursor_[kSectionCount] = {};
};

}  // namespace lookaside::resolver
