// Unified denial-of-existence lookup types (DESIGN.md §4j).
//
// Every denial proof class — RFC 2308 exact negatives, aggressive NSEC
// spans (RFC 8198 / RFC 5074 §5), the cross-shard shared store and NSEC3
// closest-encloser evidence — answers through one call,
// ResolverCache::find_denial, returning one ProofResult, which carries
// everything the caller's policy, accounting and leak-cause attribution
// need (what is denied, where the proof came from, until when it holds,
// and how many NSEC3 hash ops it cost).
//
// Callers express *policy* with the sources bitmask instead of choosing an
// entry point: a paper-era resolver with aggressive_negative_caching off
// passes kNegative only; the production profile passes kAll and also gets
// RFC 8198 synthesis from cached NSEC3 closest-encloser evidence.
//
// nsec_denial is the one NSEC denial rule: the private chain and the shared
// store each find their span with live_predecessor, the one walk, then let
// nsec_denial decide what the span proves.
// nsec3_covers is the one NSEC3 span rule, for proof checks and synthesis.
#pragma once

#include <cstdint>
#include <iterator>
#include <span>

#include "dns/name.h"
#include "dns/rr_type.h"

namespace lookaside::resolver {

/// What a denial proof denies.
enum class DenialKind : std::uint8_t {
  kNone,      // no proof speaks to (qname, qtype)
  kNxDomain,  // the name does not exist
  kNoData,    // the name exists but the type is absent
};

/// Where the proof came from — the leak ledger and the synthesis study key
/// their attribution off this.
enum class ProofOrigin : std::uint8_t {
  kNone,         // no proof (coverage == kNone)
  kLocal,        // exact RFC 2308 negative-cache entry in this shard
  kShared,       // a sibling shard's span via the SharedProofStore
  kSynthesized,  // synthesized from a validated span or NSEC3 evidence
                 // (RFC 8198): no exact entry for qname existed
};

/// Result of one unified denial lookup.
struct ProofResult {
  DenialKind coverage = DenialKind::kNone;
  ProofOrigin origin = ProofOrigin::kNone;
  /// Deadline until which the proof keeps suppressing queries; leak-cause
  /// attribution ("ttl-expiry" vs "eviction") needs it on every hit.
  std::uint64_t expires_us = 0;
  /// NSEC3 hash invocations this lookup spent (0 for NSEC/negative paths).
  /// Charged even when coverage == kNone: a gated synthesis probe that
  /// misses still burned the CPU.
  std::uint64_t hash_ops = 0;

  [[nodiscard]] explicit operator bool() const {
    return coverage != DenialKind::kNone;
  }
};

/// What one validated NSEC span proves about (zone, qname, qtype).
enum class NsecCoverage {
  kNoProof,       // the span does not decide the query
  kNameCovered,   // qname falls strictly inside the span: it does not exist
  kTypeAbsent,    // the span's owner is qname and its bitmap omits qtype
};

/// The NSEC denial rule (RFC 4034 §4.1, RFC 8198 §5.1) for the span whose
/// owner is the greatest live owner <= qname in `zone_apex`'s chain; `next`
/// is the span's next owner (the apex on the chain's last, wrapping span)
/// and `types` its bitmap. Two guards keep it sound:
///   - an ancestor-delegation owner (NS set, SOA clear) sits on the parent
///     side of a zone cut (RFC 6840 §4.4): at itself it denies DS only, and
///     its span covers nothing below it, which is occluded into the child;
///   - DS lives only on the parent side (RFC 4035 §2.3), so only a
///     delegation owner can deny DS.
/// `*type_listed` (when non-null) is set when the owner is qname, passes
/// both guards and lists qtype: the span says the name has the type.
[[nodiscard]] NsecCoverage nsec_denial(const dns::Name& zone_apex,
                                       const dns::Name& owner,
                                       const dns::Name& next,
                                       std::span<const dns::RRType> types,
                                       const dns::Name& qname,
                                       dns::RRType qtype,
                                       bool* type_listed = nullptr);

/// The span nsec_denial judges: in `chain`, an owner-ordered map whose
/// entries carry `expires_us`, the greatest owner <= qname whose entry is
/// live at `now_us`, or `chain.end()` when none is. Expired entries the
/// walk meets are passed to `reclaim` and erased: a stale closer entry must
/// not shadow a live covering proof further left in the chain.
template <typename Chain, typename Reclaim>
[[nodiscard]] typename Chain::iterator live_predecessor(
    Chain& chain, const dns::Name& qname, std::uint64_t now_us,
    Reclaim&& reclaim) {
  auto it = chain.upper_bound(qname);
  while (it != chain.begin()) {
    const auto prev = std::prev(it);
    if (prev->second.expires_us > now_us) return prev;
    reclaim(prev->second);
    it = chain.erase(prev);
  }
  return chain.end();
}

/// Whether `digest` falls strictly inside the hashed NSEC3 span (`lo`,
/// `hi`) (RFC 5155 §8.3). The chain's last span wraps: when `hi` <= `lo` it
/// covers everything above `lo` and everything below `hi`. Hashes compare
/// as two Bytes would, since presented hashes keep their wire length.
[[nodiscard]] bool nsec3_covers(std::span<const std::uint8_t> digest,
                                std::span<const std::uint8_t> lo,
                                std::span<const std::uint8_t> hi);

/// Bitmask selecting which proof classes a lookup may consult.
struct DenialSources {
  enum : unsigned {
    kNegative = 1u << 0,  // exact RFC 2308 negative entries
    kSpans = 1u << 1,     // validated NSEC spans, private + shared
    kNsec3 = 1u << 2,     // NSEC3 closest-encloser evidence (hash-gated)
    kAll = kNegative | kSpans | kNsec3,
  };
};

}  // namespace lookaside::resolver
