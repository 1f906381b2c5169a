// The recursive, validating, DLV-capable resolver.
//
// One engine models both BIND and Unbound: the paper found their *protocol*
// behavior identical, with leakage determined entirely by configuration
// (ResolverConfig reproduces the per-installer defaults). The engine
// implements:
//   - iterative resolution from the root with referral/zone-cut caching,
//     glue chasing and CNAME chasing;
//   - RFC 4035 chain-of-trust validation with the four statuses of paper
//     §2.2 (secure / insecure / bogus / indeterminate);
//   - RFC 5074 DLV look-aside: <domain>.<dlv-domain> queries of type 32769,
//     label stripping for enclosing records, and aggressive negative caching
//     of the DLV zone's NSEC records;
//   - the paper's §6.2 remedies (TXT dlv=0/1 signaling, Z-bit signaling,
//     hashed DLV query names).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dlv/registry.h"
#include "resolver/cache.h"
#include "resolver/config.h"
#include "resolver/validator.h"
#include "server/directory.h"
#include "sim/network.h"

namespace lookaside::obs {
class Tracer;
enum class EventKind : std::uint8_t;
}

namespace lookaside::resolver {

/// DNSSEC validation status (paper §2.2).
enum class ValidationStatus {
  kSecure,
  kInsecure,
  kBogus,
  kIndeterminate,
};

[[nodiscard]] const char* status_name(ValidationStatus status);

/// Plain-stub view of a response (DO=0, paper §2.2): clears AD and drops
/// every DNSSEC record from the answer section. The serve frontend applies
/// it to each DO=0 client's copy of a shared answer; resolve() leaves the
/// same records out of a DO=0 answer as it fills it, by the same rule, so
/// both paths strip identically.
void strip_for_plain_stub(dns::Message& response);

/// Per-query knobs a caller sets alongside the (name, type) tuple. The
/// defaults reproduce the historical resolve(name, type) behavior: a
/// DNSSEC-aware caller that wants signatures and validation.
struct QueryOptions {
  /// The DO bit. When false the stub-facing response is stripped of
  /// DNSSEC records and never carries AD (paper §2.2's plain-stub view).
  bool dnssec_ok = true;
  /// The CD bit: skip validation (and therefore DLV look-aside) and hand
  /// back whatever the servers said; status stays indeterminate.
  bool checking_disabled = false;

  friend bool operator==(const QueryOptions&, const QueryOptions&) = default;
};

/// The resolve API v2 request: everything that identifies one resolution.
struct Query {
  dns::Name name;
  dns::RRType type = dns::RRType::kA;
  QueryOptions options;

  Query() = default;
  Query(dns::Name name, dns::RRType type = dns::RRType::kA,
        QueryOptions options = {})
      : name(std::move(name)), type(type), options(options) {}

  friend bool operator==(const Query&, const Query&) = default;
};

/// Everything a caller (or experiment harness) wants to know about one
/// resolution.
struct ResolveResult {
  dns::Message response;  // stub-facing response (SERVFAIL on bogus)
  ValidationStatus status = ValidationStatus::kIndeterminate;
  bool from_cache = false;
  int upstream_exchanges = 0;   // counts every attempt, retries included
  /// Trace span of this resolution (0 when tracing is off). The serve
  /// frontend records it so coalesced waiters can join their lineage onto
  /// the shared span.
  std::uint64_t trace_span_id = 0;
  /// Modeled validator CPU charged to the virtual clock by this resolution
  /// (today: NSEC3 iterated hashing). The serve frontend bills it against
  /// the initiating client's CPU budget.
  std::uint64_t validation_cost_us = 0;

  /// Everything the DLV look-aside path did for this resolution, grouped so
  /// callers read one sub-object instead of seven loose fields.
  struct Dlv {
    bool used = false;                    // >= 1 DLV query actually sent
    std::vector<dns::Name> query_names;   // names sent to the DLV server
    bool record_found = false;
    bool suppressed_by_nsec = false;      // aggressive-negative-cache save
    bool suppressed_by_signal = false;    // TXT / Z-bit remedy save
    bool timed_out = false;  // registry unreachable / retries exhausted
    bool secured = false;    // answer validated through the DLV chain
    /// RFC 9276 strict mode rejected an over-cap NSEC3 denial; the
    /// resolution fails closed (SERVFAIL) instead of degrading.
    bool nsec3_rejected = false;
  };
  Dlv dlv;
};

/// The recursive resolver. Also a sim::Endpoint so stubs reach it over the
/// simulated network (1 ms hop) and its stub-side traffic is accounted too.
class RecursiveResolver : public sim::Endpoint {
 public:
  RecursiveResolver(sim::Network& network, server::ServerDirectory& directory,
                    ResolverConfig config);

  /// Installs the root trust-anchor material (the simulated IANA key). The
  /// configuration decides whether it is actually *used* (auto mode or an
  /// explicit include) — providing it here models the key file existing on
  /// disk, which is exactly the distinction the paper's misconfigurations
  /// hinge on.
  void set_root_trust_anchor(const dns::DnskeyRdata& anchor) {
    root_anchor_ = anchor;
  }

  /// Installs the DLV trust anchor (the registry's KSK; BIND ships this as
  /// the built-in anchor behind `dnssec-lookaside auto`).
  void set_dlv_trust_anchor(const dns::DnskeyRdata& anchor) {
    dlv_anchors_[config_.dlv_domain] = anchor;
  }

  /// Installs the trust anchor for one of the additional DLV registries
  /// (config_.additional_dlv_domains).
  void set_dlv_trust_anchor(const dns::Name& apex,
                            const dns::DnskeyRdata& anchor) {
    dlv_anchors_[apex] = anchor;
  }

  /// Resolves `query` on behalf of a stub (resolve API v2, the only
  /// resolve API since PR 9 removed the positional shim).
  [[nodiscard]] ResolveResult resolve(const Query& query);

  // -- sim::Endpoint ---------------------------------------------------------

  [[nodiscard]] std::string endpoint_id() const override { return "recursive"; }
  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override;

  // -- Introspection -----------------------------------------------------------

  [[nodiscard]] ResolverCache& cache() { return cache_; }
  [[nodiscard]] Validator& validator() { return validator_; }
  [[nodiscard]] const ResolverConfig& config() const { return config_; }

  /// Attaches a SharedProofStore (nullable) to the cache, which then
  /// publishes and consults NSEC spans and zone cuts there, so sibling
  /// shards suppress each other's registry queries (DESIGN.md §4i).
  void attach_shared(SharedProofStore* store, std::uint32_t shard_id = 0) {
    cache_.attach_shared(store, shard_id);
  }
  /// Counters: "servers.marked_dead", "servers.skipped_dead",
  /// "servfail.cached", "servfail.cache_hit", "dlv.timeout",
  /// "dlv.suppressed.synthesized", "cache.synth_answer",
  /// "cache.negative_elided", "nsec3.hash_ops". Upstream retries are
  /// counted on the network's set ("retries").
  [[nodiscard]] metrics::CounterSet& stats() { return stats_; }

  /// Attaches a structured tracer (nullable; null disables tracing). The
  /// resolver opens one span per resolution and emits stub_query,
  /// cache_hit, nsec_suppression, dlv_lookup, leak_cause, validation and
  /// stub-facing response events into it; the cache shares the tracer for
  /// its eviction events.
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    cache_.set_tracer(tracer);
  }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

 private:
  /// What one iterative fetch produced. A cache hit lends the cache's entry
  /// instead of copying it: the view stays valid until the cache stores
  /// over, forgets or evicts that (name, type), or maintain() runs at the
  /// end of resolve() (DESIGN.md §4o). Read an answer through
  /// answer_rrsets() and answer_rrsigs(), which see either the lent entry
  /// or the section fetch() grouped itself.
  struct Fetched {
    enum class Kind { kAnswer, kNxDomain, kNoData, kFail };
    Kind kind = Kind::kFail;
    GroupedSection answer;     // a fresh answer, owned
    GroupedSection authority;
    ResolverCache::Entry lent;  // a cached answer: rrset is non-null
    dns::Name auth_zone;   // apex of the zone that produced the outcome
    bool from_cache = false;
    bool cached_validated = false;
    bool z_bit = false;    // Z bit seen on the final answer (remedy §6.2.1)

    [[nodiscard]] std::span<const dns::RRset> answer_rrsets() const {
      if (lent.rrset != nullptr) return {lent.rrset, 1};
      return answer.rrsets;
    }
    [[nodiscard]] const std::vector<dns::ResourceRecord>& answer_rrsigs()
        const {
      return lent.rrset != nullptr ? *lent.rrsigs : answer.rrsigs;
    }
  };

  Fetched fetch(const dns::Name& qname, dns::RRType qtype, int depth);
  Fetched fetch_from_cache(const dns::Name& qname, dns::RRType qtype);
  /// Translates a unified denial proof into a cache-sourced Fetched.
  [[nodiscard]] static Fetched fetched_denial(const ProofResult& proof);

  // -- Retry / holddown (robustness layer) -----------------------------------

  /// One upstream exchange under `policy`: each attempt's timeout is that
  /// attempt's RTO (so a dead server costs exactly policy.total_wait_us()
  /// of virtual time), truncated responses are retried, and exhausting the
  /// schedule puts the server into holddown. Returns nullopt immediately
  /// (no attempt, no clock advance) when the server is already held down.
  std::optional<dns::Message> exchange_with_retry(sim::Endpoint& server,
                                                  const dns::Message& query,
                                                  const RetryPolicy& policy);

  /// True while `server` is inside its holddown window; a lapsed entry is
  /// erased (the virtual clock re-enables servers, never wall time).
  [[nodiscard]] bool server_dead(const std::string& server_id);
  void mark_server_dead(const std::string& server_id,
                        const dns::Question& question);

  /// Validates the chain of trust from the root anchor down to `zone`,
  /// returning the zone's validated DNSKEY RRset in `out_keys` on success.
  ValidationStatus validate_chain(const dns::Name& zone, int depth,
                                  dns::RRset* out_keys);

  /// Walks DS/DNSKEY links from `from_zone` (whose validated keys are
  /// `trusted`) down to `to_zone`; on success `out_keys` holds `to_zone`'s
  /// validated DNSKEY RRset. Shared by root-anchored and DLV-anchored paths.
  ValidationStatus validate_descent(const dns::Name& from_zone,
                                    dns::RRset trusted,
                                    const dns::Name& to_zone, int depth,
                                    dns::RRset* out_keys);

  /// Fetches `zone`'s DNSKEY RRset and verifies it against a DS (or a
  /// configured trust-anchor DNSKEY). On success caches it as validated and
  /// returns it through `out_keys`.
  ValidationStatus validate_zone_keys(const dns::Name& zone,
                                      const dns::DsRdata* ds,
                                      const dns::DnskeyRdata* anchor,
                                      int depth, dns::RRset* out_keys);

  /// Validates a fetched answer to (qname, qtype) end to end.
  ValidationStatus validate_response(const Fetched& fetched,
                                     const dns::Name& qname, dns::RRType qtype,
                                     int depth);

  /// Checks a fresh denial (NXDOMAIN when `nxdomain`, else NODATA) of
  /// (qname, qtype) by `zone_apex`, whose validated DNSKEY RRset is `keys`:
  /// the SOA and NSEC signatures, then the NSEC3 proof behind the RFC 9276
  /// cap, or one NSEC that denies (qname, qtype) itself. Secure when
  /// proven (its NSECs are then cached), insecure when an over-cap NSEC3
  /// proof was accepted unverified, bogus otherwise.
  ValidationStatus validate_denial(const GroupedSection& authority,
                                   bool nxdomain, const dns::Name& qname,
                                   dns::RRType qtype,
                                   const dns::Name& zone_apex,
                                   const dns::RRset& keys);

  /// RFC 5074 look-aside. Returns the DS found (if any); logs every DLV
  /// query into `result`. Consults the primary DLV domain, then each
  /// additional registry in order.
  struct DlvOutcome {
    bool found = false;
    dns::DsRdata ds;
    dns::Name matched_domain;
  };
  DlvOutcome dlv_lookup(const dns::Name& domain, ResolveResult& result,
                        int depth);
  DlvOutcome dlv_lookup_at(const dns::Name& apex, const dns::Name& domain,
                           ResolveResult& result, int depth);

  /// Fetches + validates one DLV zone's DNSKEY RRset (cached). Returns
  /// nullptr when unavailable or failing validation.
  const dns::RRset* dlv_zone_keys(const dns::Name& apex, int depth);

  /// Caches NSEC records from `section` into the aggressive store for
  /// `zone` when `keys` verify them: for a DLV candidate's denial, which no
  /// earlier step verified.
  void cache_validated_nsecs(const GroupedSection& section,
                             const dns::Name& zone, const dns::RRset& keys);

  /// Outcome of handle_nsec3_denial for the caller's control flow.
  enum class Nsec3Policy {
    kNone,        // no NSEC3 records present; nothing done
    kAccepted,    // proof verified (cost charged)
    kDowngraded,  // over-cap: denial accepted unverified, zone is insecure
    kRejected,    // strict over-cap or unproven denial: do not trust it
  };

  /// NSEC3 leg of denial processing: applies the RFC 9276 iteration cap
  /// *before* hashing, verifies the (qname, qtype) proof otherwise, and
  /// charges the modeled hash CPU to the virtual clock.
  Nsec3Policy handle_nsec3_denial(const GroupedSection& authority,
                                  const dns::Name& qname, dns::RRType qtype,
                                  const dns::Name& zone_apex,
                                  const dns::RRset* keys);

  /// Advances the virtual clock by the modeled CPU bill for `hash_ops` SHA-1
  /// invocations and accounts it on the in-flight result.
  void charge_nsec3_cost(std::uint64_t hash_ops);

  /// Denial-proof classes the configuration lets lookups consult: exact
  /// negatives always; NSEC spans under aggressive_negative_caching
  /// (RFC 5074 §5); NSEC3 evidence synthesis under aggressive_synthesis
  /// (RFC 8198).
  [[nodiscard]] unsigned denial_sources() const {
    unsigned sources = DenialSources::kNegative;
    if (config_.aggressive_negative_caching) sources |= DenialSources::kSpans;
    if (config_.aggressive_synthesis) sources |= DenialSources::kNsec3;
    return sources;
  }

  /// §6.2.1 TXT remedy: returns the signal for `domain`
  /// (true=deposit exists, false=none, nullopt=no TXT record configured).
  std::optional<bool> fetch_txt_signal(const dns::Name& domain, int depth);

  /// Deterministic per-name coin flip for NS refresh fetches.
  [[nodiscard]] bool ns_fetch_coin(const dns::Name& zone) const;

  /// Emits a trace event when a tracer is attached (no-op otherwise).
  void trace_event(obs::EventKind kind, const dns::Name& name,
                   dns::RRType qtype, std::string detail,
                   std::string server = {}) const;

  sim::Network* network_;
  server::ServerDirectory* directory_;
  ResolverConfig config_;
  std::optional<dns::DnskeyRdata> root_anchor_;
  std::map<dns::Name, dns::DnskeyRdata> dlv_anchors_;
  ResolverCache cache_;
  Validator validator_;
  metrics::CounterSet stats_;
  obs::Tracer* tracer_ = nullptr;
  ResolveResult* current_ = nullptr;  // in-flight result for nested counting
  std::uint16_t next_id_ = 1;
  // Leak-cause memo: DLV candidate name -> expiry deadline of the last
  // denial proof (negative-cache or NSEC) known to cover it. At DLV send
  // time this discriminates ttl-expiry (deadline passed) from eviction
  // (deadline still in the future but the proof is gone).
  dns::NameHashMap<std::uint64_t> dlv_denial_deadline_;
  // Zone apexes observed serving NSEC3 denial (set on the first NSEC3 proof
  // seen from each). Leak-cause events for later queries against these
  // zones carry an "-nsec3" suffix so the ledger's per-cause accounting
  // distinguishes NSEC from NSEC3 registries.
  dns::NameHashMap<bool> nsec3_apexes_;
  // Lame/dead-server holddown: endpoint id -> virtual time the entry lapses.
  std::unordered_map<std::string, std::uint64_t> dead_until_us_;
};

}  // namespace lookaside::resolver
