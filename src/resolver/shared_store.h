// Striped shared proof store for multi-shard serving (DESIGN.md §4i).
//
// In the thread-per-resolver serving model every shard owns a private
// ResolverCache, so two shards that resolve names in the same DLV-covered
// span would each query the registry once — the second query is a fresh
// Case-2 leak the single-resolver deployment never makes. This store lets
// sibling shards share exactly the two proof kinds that suppress upstream
// queries without carrying answer data: validated aggressive-NSEC spans
// (RFC 8198 / RFC 5074 §5) and known zone cuts. A shard that finds a
// sibling's span here skips the registry round trip entirely, restoring the
// aggregation privacy profile of one big shared cache while keeping the hot
// positive/negative paths shard-private and lock-free. Signature verdicts
// stay shard-private too, in each validator's own cache (DESIGN.md §4j).
//
// Concurrency: lock striping keyed by name hash over kStripes stripes.
// NSEC chains stripe by *zone apex* — a coverage check is a predecessor
// search over one zone's ordered chain, so the whole chain must live under
// a single stripe's lock (striping by owner would split the chain and
// break the walk). Zone cuts are point lookups and stripe by the cut name
// itself, spreading the much hotter per-level probes of deepest_known_cut.
// Each stripe carries a std::shared_mutex: checks take shared locks
// (concurrent readers), stores take exclusive locks. dns::Name computes its
// canonical hash eagerly at construction, so concurrently read keys never
// race on memoization.
//
// Every entry records the shard that published it; a hit whose publisher
// differs from the probing shard is counted as a *sibling* hit — the
// cross-shard suppressed-leak metric BENCH_serve v3 reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "dns/name.h"
#include "dns/rr_type.h"
#include "resolver/denial.h"

namespace lookaside::resolver {

/// Thread-safe shared NSEC/zone-cut proof store for N resolver shards.
class SharedProofStore {
 public:
  /// Lock stripes; a power of two, so a hash's low bits pick one.
  static constexpr std::size_t kStripes = 16;

  /// One validated NSEC span: owner (the map key) -> next, plus the type
  /// bitmap and expiry. `shard` is the publisher, for sibling accounting.
  struct NsecProof {
    dns::Name next;
    std::vector<dns::RRType> types;
    std::uint64_t expires_us = 0;
    std::uint32_t shard = 0;
  };

  /// Atomic counter snapshot (sums across stripes).
  struct Stats {
    std::uint64_t nsec_stores = 0;
    std::uint64_t nsec_hits = 0;
    std::uint64_t nsec_sibling_hits = 0;  // hits on another shard's proof
    std::uint64_t cut_stores = 0;
    std::uint64_t cut_hits = 0;
    std::uint64_t cut_sibling_hits = 0;
  };

  SharedProofStore();

  // -- Aggressive NSEC spans -------------------------------------------------

  /// Publishes a validated NSEC span for `zone_apex`. Overwrites any
  /// existing entry at the same owner (refreshed proof wins).
  void store_nsec(const dns::Name& zone_apex, const dns::Name& owner,
                  NsecProof proof);

  /// Whether published spans prove (qname, qtype) absent within
  /// `zone_apex` at `now_us`, judged by nsec_denial. Expired entries met on
  /// the predecessor walk are skipped (not reclaimed — reads hold only a
  /// shared lock); a stale closer entry must not shadow a live covering
  /// proof. On a hit,
  /// `*expires_us` receives the proof deadline and `*cross_shard` reports
  /// whether a *different* shard published it.
  [[nodiscard]] NsecCoverage check_nsec(const dns::Name& zone_apex,
                                        const dns::Name& qname,
                                        dns::RRType qtype,
                                        std::uint64_t now_us,
                                        std::uint32_t probing_shard,
                                        std::uint64_t* expires_us = nullptr,
                                        bool* cross_shard = nullptr);

  /// Published span count for `zone_apex`, live and expired: no serving
  /// path purges the store, so an expired span stays counted until
  /// purge_expired runs. Used for leak-cause attribution: "does the
  /// resolver know *anything* about this zone's chain".
  [[nodiscard]] std::size_t nsec_count(const dns::Name& zone_apex) const;

  // -- Zone cuts -------------------------------------------------------------

  /// Publishes that `apex` is a zone cut, valid until `expires_us`.
  void store_zone_cut(const dns::Name& apex, std::uint64_t expires_us,
                      std::uint32_t shard);

  /// Whether a live published cut exists at `apex`.
  [[nodiscard]] bool has_zone_cut(const dns::Name& apex, std::uint64_t now_us,
                                  std::uint32_t probing_shard);

  // -- Maintenance -----------------------------------------------------------

  /// Reclaims every entry expired at `now_us` (exclusive locks, stripe by
  /// stripe). Returns entries reclaimed. Virtual-clock runs never expire
  /// in-run (TTLs dwarf the makespan), so this is a tool for long-lived
  /// deployments and tests, not the serve hot path.
  std::size_t purge_expired(std::uint64_t now_us);

  [[nodiscard]] Stats stats() const;

 private:
  using NsecChain = std::map<dns::Name, NsecProof>;
  struct CutEntry {
    std::uint64_t expires_us = 0;
    std::uint32_t shard = 0;
  };
  /// One lock stripe. NSEC chains keyed by zone apex live whole in the
  /// apex's stripe; cuts keyed by the cut name live in the name's stripe.
  struct Stripe {
    mutable std::shared_mutex mutex;
    std::map<dns::Name, NsecChain> nsec;
    std::map<dns::Name, CutEntry> cuts;
  };

  [[nodiscard]] Stripe& stripe_for(const dns::Name& name) {
    return *stripes_[name.hash() & (kStripes - 1)];
  }
  [[nodiscard]] const Stripe& stripe_for(const dns::Name& name) const {
    return *stripes_[name.hash() & (kStripes - 1)];
  }

  // Stripes are boxed: shared_mutex is immovable and the vector is sized
  // once at construction.
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<std::uint64_t> nsec_stores_{0};
  std::atomic<std::uint64_t> nsec_hits_{0};
  std::atomic<std::uint64_t> nsec_sibling_hits_{0};
  std::atomic<std::uint64_t> cut_stores_{0};
  std::atomic<std::uint64_t> cut_hits_{0};
  std::atomic<std::uint64_t> cut_sibling_hits_{0};
};

}  // namespace lookaside::resolver
