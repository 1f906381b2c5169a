// Resolver configuration surface, modeled on BIND's named.conf options and
// Unbound's anchor-file style (paper §2.4, §4.3, §4.4).
//
// The paper's central finding is that *these knobs*, as shipped by different
// installers, decide whether a resolver leaks every query to a DLV server.
// The factory functions reproduce the exact default configurations of
// Figs. 4-7 and Table 2, including the ones that contradict BIND's
// administrator manual.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rdata.h"

namespace lookaside::resolver {

/// BIND's dnssec-validation option values.
enum class ValidationMode {
  kNo,    // validation disabled
  kYes,   // validate, trust anchor must be configured manually
  kAuto,  // validate with the built-in trust anchor
};

/// Retransmission schedule for upstream exchanges: `max_retries` resends
/// after the first attempt, waiting an exponentially backed-off RTO per
/// attempt. Defaults follow BIND's resolver-query-timeout shape (~800 ms
/// initial, doubling, capped); the Unbound factories use its ~376 ms
/// initial RTO instead. All waits are virtual time.
struct RetryPolicy {
  int max_retries = 2;                    // resends after the first attempt
  std::uint64_t initial_rto_us = 800'000; // attempt 0's timeout
  double backoff_factor = 2.0;            // RTO multiplier per retry
  std::uint64_t max_rto_us = 8'000'000;   // RTO cap

  /// RTO charged for `attempt` (0-based): min(initial*factor^n, cap).
  [[nodiscard]] std::uint64_t rto_for_attempt(int attempt) const;

  /// Closed-form worst case: virtual time burned when every attempt times
  /// out (the §8.4 "added latency" bound for a dead server).
  [[nodiscard]] std::uint64_t total_wait_us() const;

  /// Single attempt, no resends (the pre-resilience fire-once behavior).
  [[nodiscard]] static RetryPolicy none() {
    RetryPolicy policy;
    policy.max_retries = 0;
    return policy;
  }
};

/// A resolver configuration. Field names follow BIND's option names; the
/// Unbound factories map Unbound's implicit style onto the same fields.
struct ResolverConfig {
  /// BIND `dnssec-enable`.
  bool dnssec_enable = true;

  /// BIND `dnssec-validation` (yes requires `root_trust_anchor_included`).
  ValidationMode dnssec_validation = ValidationMode::kYes;

  /// BIND `dnssec-lookaside auto`.
  bool dnssec_lookaside = false;

  /// Whether the configuration file includes the root trust anchor
  /// (`include "/etc/bind.keys"` / Unbound `auto-trust-anchor-file`).
  bool root_trust_anchor_included = false;

  /// Whether the DLV trust anchor is configured
  /// (bind.keys DLV section / Unbound `dlv-anchor-file`).
  bool dlv_trust_anchor_included = false;

  /// The DLV domain to use ("dlv.isc.org" by ISC convention).
  dns::Name dlv_domain = dns::Name::parse("dlv.isc.org");

  /// Additional DLV registries, consulted in order when earlier ones have
  /// no record (RFC 5074 permits several; the paper lists
  /// dlv.secspider.cs.ucla.edu, dlv.trusted-keys.de, dlv.cert.ru, ... and
  /// notes "ISC is only one of many used in the wild", §7.3.2). Every
  /// registry consulted is an additional third party observing the query.
  std::vector<dns::Name> additional_dlv_domains;

  /// RFC 5074 §5: validators implement aggressive negative caching against
  /// the DLV zone's NSEC records. Turn off to model NSEC3/NSEC5 registries
  /// (paper §7.3), where every query hits the DLV server.
  bool aggressive_negative_caching = true;

  /// §6.2.1 remedies: only send a DLV query when the authoritative side
  /// signaled a deposited DLV record.
  bool honor_txt_dlv_signal = false;  // TXT "dlv=1"/"dlv=0"
  bool honor_z_bit_signal = false;    // spare header bit

  /// §6.2.2 remedy: query hash(domain).<dlv_domain> instead of the name.
  bool hashed_dlv_queries = false;

  /// RFC 7816 qname minimization (referenced in the paper's threat model
  /// §3): iterative queries to non-terminal authorities carry only the
  /// label needed for the next referral (qtype NS), so the root and TLDs
  /// never see full names. Note the asymmetry this exposes: minimization
  /// protects against *on-path* observers but does nothing about the DLV
  /// leak — the look-aside query still carries the full domain.
  bool qname_minimization = false;

  /// Probability of refreshing a delegation's NS RRset after resolving
  /// through it (models BIND's NS fetches; contributes Table 4's NS query
  /// counts). Deterministic per-domain hash, not random.
  double ns_fetch_probability = 0.0;

  // -- Resilience (retry / holddown / failure caching) ----------------------

  /// Retransmission schedule for authoritative exchanges. With no faults
  /// injected the first attempt always succeeds, so enabling retries is
  /// behavior-neutral on a healthy network.
  RetryPolicy retry;

  /// Separate, bounded budget for DLV registry exchanges (RFC 5074 gives
  /// the look-aside path no availability guarantee; a dead registry must
  /// degrade, not stall every resolution — §8.4).
  RetryPolicy dlv_retry{.max_retries = 1};

  /// Lame/dead-server holddown: after a server exhausts its retry
  /// schedule it is skipped for this long (virtual time) before being
  /// probed again (BIND's lame-ttl shape). 0 disables tracking.
  std::uint64_t server_holddown_us = 600'000'000;  // 10 min

  /// RFC 2308 §7 SERVFAIL caching: resolutions that fail against dead
  /// servers are cached for this many seconds so repeated queries do not
  /// re-traverse the hierarchy. 0 disables (BIND default is 1 s).
  std::uint32_t servfail_ttl = 1;

  /// BIND's `dnssec-must-be-secure` semantics for the look-aside path:
  /// when the DLV registry is unreachable, answer SERVFAIL instead of
  /// degrading to insecure (§8.4's strict-policy column).
  bool dlv_must_be_secure = false;

  // -- NSEC3 validation policy (RFC 5155 / RFC 9276, DESIGN.md §4h) ---------

  /// RFC 9276 §3.2 iteration limit. NSEC3 proofs whose iteration count
  /// exceeds the cap are not hashed at all: the zone is treated as insecure
  /// (default, matching BIND/Unbound since 2021) or answered SERVFAIL when
  /// `nsec3_strict` is set. 0 means no cap — the pre-RFC-9276 behavior the
  /// exhaustion attack needs.
  std::uint16_t nsec3_iteration_cap = 0;

  /// Over-cap proofs fail hard (SERVFAIL) instead of downgrading the zone
  /// to insecure.
  bool nsec3_strict = false;

  /// Modeled validator CPU cost per SHA-1 invocation while verifying NSEC3
  /// proofs, charged to the virtual clock (so attacker-inflated iteration
  /// counts surface as real latency and queue pressure downstream). The
  /// default approximates one SHA-1 compression on commodity hardware.
  std::uint64_t nsec3_hash_cost_ns = 1000;

  // -- Cache lifecycle (DESIGN.md §4f) --------------------------------------

  /// Approximate cache byte cap (BIND `max-cache-size` / the sum of
  /// Unbound's `msg-cache-size` + `rrset-cache-size`). 0 means unlimited —
  /// the paper-era BIND default, and what every factory ships so the
  /// Table 2 / Figs. 8-9 reproductions are unaffected. Production-style
  /// caps are opt-in via Environment::production_config() or directly.
  std::uint64_t max_cache_bytes = 0;

  /// Unbound's shipped default: 4 MiB message cache + 4 MiB RRset cache.
  static constexpr std::uint64_t kUnboundDefaultCacheBytes = 8ull << 20;

  // -- RFC 8198 synthesis + vState verdict caching (DESIGN.md §4j) ----------

  /// Full RFC 8198 aggressive use of validated denial proofs: synthesize
  /// NXDOMAIN/NODATA from cached NSEC spans for *any* query (not just DLV
  /// probes), synthesize NXDOMAIN from cached NSEC3 closest-encloser
  /// evidence (hash-gated), and elide redundant exact negative entries for
  /// DLV candidates already covered by a live span. Off is the paper-era
  /// behavior (RFC 5074 §5 aggressive caching only); production turns it
  /// on via Environment::production_config().
  bool aggressive_synthesis = false;

  /// Capacity of the validator's signature-verdict cache (the vState
  /// idiom): repeat verifications of an identical (signed data, signature,
  /// key) tuple skip RSA entirely. 0 disables it — the paper-era default;
  /// production uses kDefaultVerdictCacheEntries.
  std::size_t verdict_cache_entries = 0;
  static constexpr std::size_t kDefaultVerdictCacheEntries = 1u << 16;

  // -- Effective behavior (what the knobs combine to) -----------------------

  /// Validation is attempted at all.
  [[nodiscard]] bool validation_enabled() const {
    return dnssec_enable && dnssec_validation != ValidationMode::kNo;
  }

  /// A usable root trust anchor is available (auto mode ships one; yes mode
  /// needs the include).
  [[nodiscard]] bool root_anchor_available() const {
    return validation_enabled() &&
           (dnssec_validation == ValidationMode::kAuto ||
            root_trust_anchor_included);
  }

  /// DLV look-aside will be used (the paper's leak precondition). BIND's
  /// `dnssec-lookaside auto` ships a built-in DLV anchor, so either the
  /// option or an explicit DLV anchor (Unbound style) enables it.
  [[nodiscard]] bool dlv_enabled() const {
    return validation_enabled() &&
           (dnssec_lookaside || dlv_trust_anchor_included);
  }

  /// Short human-readable summary for experiment tables.
  [[nodiscard]] std::string summary() const;

  // -- Paper defaults (Figs. 4-7, Table 2) ----------------------------------

  /// Fig. 4: Debian/Ubuntu `apt-get install bind9`. `dnssec-validation
  /// auto`, no DLV, no explicit anchor (auto provides one). Non-compliant
  /// with the ARM (which documents a default of `yes`).
  static ResolverConfig bind_apt_get();

  /// Table 3's "apt-get†": the user read the ARM and changed
  /// dnssec-validation to `yes` — but the anchor include is still missing —
  /// and enabled DLV to use look-aside.
  static ResolverConfig bind_apt_get_dagger();

  /// Fig. 5: CentOS/Fedora `yum install bind`. Validation yes + bind.keys
  /// included + `dnssec-lookaside auto`. Non-compliant with the ARM
  /// (which documents DLV off by default).
  static ResolverConfig bind_yum();

  /// Fig. 6's starting point: manual source install, user-written config
  /// with DLV enabled but no trust-anchor include.
  static ResolverConfig bind_manual();

  /// Fig. 6 done right: anchors included, DLV enabled.
  static ResolverConfig bind_manual_correct();

  /// Unbound via package installer: DNSSEC on via anchor file; DLV off until
  /// the dlv-anchor-file line is added.
  static ResolverConfig unbound_package();

  /// Unbound manual install: everything commented out until the user acts.
  static ResolverConfig unbound_manual();

  /// Fig. 7: Unbound with both anchor files configured.
  static ResolverConfig unbound_correct();
};

}  // namespace lookaside::resolver
