// Shared proof store for multi-shard serving (DESIGN.md §4i).
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
// positive/negative paths shard-private. Signature verdicts stay
// shard-private too, in each validator's own cache (DESIGN.md §4j).
//
// Threading: none. Whether one shard sees another's proof depends on
// execution order, so the shared-store mode of ShardedServeScenario
// dispatches every arrival in global order on the calling thread; that is
// the store's only reader and writer. Stacks built on worker threads only
// store the pointer.
//
// Expired entries are reclaimed on probe, as in the private cache: a
// coverage check erases the expired spans its predecessor walk meets, and a
// zone-cut check erases an expired cut it finds. The store has no byte cap.
//
// Every entry records the shard that published it; a hit whose publisher
// differs from the probing shard is counted as a *sibling* hit — the
// cross-shard suppressed-leak metric BENCH_serve v3 reports.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "dns/name.h"
#include "dns/rr_type.h"
#include "resolver/denial.h"

namespace lookaside::resolver {

/// Shared NSEC/zone-cut proof store for N resolver shards on one thread.
class SharedProofStore {
 public:
  /// One validated NSEC span: owner (the map key) -> next, plus the type
  /// bitmap and expiry. `shard` is the publisher, for sibling accounting.
  struct NsecProof {
    dns::Name next;
    std::vector<dns::RRType> types;
    std::uint64_t expires_us = 0;
    std::uint32_t shard = 0;
  };

  struct Stats {
    std::uint64_t nsec_stores = 0;
    std::uint64_t nsec_hits = 0;
    std::uint64_t nsec_sibling_hits = 0;  // hits on another shard's proof
    std::uint64_t cut_stores = 0;
    std::uint64_t cut_hits = 0;
    std::uint64_t cut_sibling_hits = 0;
  };

  // -- Aggressive NSEC spans -------------------------------------------------

  /// Publishes a validated NSEC span for `zone_apex`. Overwrites any
  /// existing entry at the same owner (refreshed proof wins).
  void store_nsec(const dns::Name& zone_apex, const dns::Name& owner,
                  NsecProof proof);

  /// Whether published spans prove (qname, qtype) absent within
  /// `zone_apex` at `now_us`, judged by nsec_denial on the span
  /// live_predecessor finds. Expired spans met on that walk are erased, and
  /// the zone's entry with them once its chain is empty. On a hit,
  /// `*expires_us` receives the proof deadline and `*cross_shard` reports
  /// whether a *different* shard published it.
  [[nodiscard]] NsecCoverage check_nsec(const dns::Name& zone_apex,
                                        const dns::Name& qname,
                                        dns::RRType qtype,
                                        std::uint64_t now_us,
                                        std::uint32_t probing_shard,
                                        std::uint64_t* expires_us = nullptr,
                                        bool* cross_shard = nullptr);

  /// Published span count for `zone_apex`, counting expired spans no probe
  /// has met yet. Used for leak-cause attribution: "does the resolver know
  /// *anything* about this zone's chain".
  [[nodiscard]] std::size_t nsec_count(const dns::Name& zone_apex) const;

  // -- Zone cuts -------------------------------------------------------------

  /// Publishes that `apex` is a zone cut, valid until `expires_us`.
  void store_zone_cut(const dns::Name& apex, std::uint64_t expires_us,
                      std::uint32_t shard);

  /// Whether a live published cut exists at `apex`; an expired one found
  /// there is erased.
  [[nodiscard]] bool has_zone_cut(const dns::Name& apex, std::uint64_t now_us,
                                  std::uint32_t probing_shard);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  using NsecChain = std::map<dns::Name, NsecProof>;
  struct CutEntry {
    std::uint64_t expires_us = 0;
    std::uint32_t shard = 0;
  };

  std::map<dns::Name, NsecChain> nsec_;  // by zone apex
  std::map<dns::Name, CutEntry> cuts_;
  Stats stats_;
};

}  // namespace lookaside::resolver
