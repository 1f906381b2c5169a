// DNSSEC validation primitives: RRSIG verification against DNSKEY RRsets,
// DS/DNSKEY matching, and RRset grouping of message sections.
//
// Public keys parse into Montgomery-ready RSA contexts, which is expensive;
// the Validator memoizes parsed keys by their wire image so million-domain
// simulations pay the cost once per distinct key.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/rsa.h"
#include "dns/message.h"
#include "dns/record.h"
#include "metrics/counters.h"
#include "sim/clock.h"

namespace lookaside::resolver {

/// Outcome of verifying one RRset.
enum class SigCheck {
  kValid,
  kNoSignature,   // no covering RRSIG present
  kNoMatchingKey, // RRSIG names a key tag absent from the DNSKEY set
  kInvalid,       // cryptographic verification failed
  kExpired,       // outside the RRSIG validity window
  kUnsupported,   // unknown algorithm
};

struct GroupedSection;

/// Outcome of checking an NSEC3 denial proof (RFC 5155 §8). `hash_ops` is
/// the number of SHA-1 invocations the check spent — the attacker-controlled
/// CPU bill the resolver charges to the virtual clock.
struct Nsec3Check {
  bool proven = false;
  std::uint16_t iterations = 0;
  std::uint64_t hash_ops = 0;
  /// Synthesis evidence (DESIGN.md §4j), filled on proven NXDOMAIN proofs:
  /// the discovered closest encloser (whose wildcard was proven absent),
  /// the zone's hash parameters, and every signature-verified hashed span
  /// in the proof. The resolver feeds this to
  /// ResolverCache::store_nsec3_evidence so later queries under the same
  /// encloser synthesize denials with a single hash.
  bool has_evidence = false;
  dns::Name closest_encloser;
  crypto::Bytes salt;
  std::vector<std::pair<crypto::Bytes, crypto::Bytes>> spans;
};

/// Stateless checks plus a parsed-key cache and an optional bounded
/// verdict cache (the vState idiom): repeat verifications of the same
/// (signed data, signature, key) tuple skip RSA entirely.
class Validator {
 public:
  explicit Validator(const sim::SimClock& clock) : clock_(&clock) {}

  /// Enables the verdict cache with room for `entries` verdicts (0
  /// disables it). Eviction is a deterministic epoch flush: when full, the
  /// whole table is cleared ("verdict.flush") — no LRU ordering to keep in
  /// sync across replays.
  void set_verdict_cache_entries(std::size_t entries) {
    verdict_capacity_ = entries;
    if (entries == 0) verdicts_.clear();
  }

  /// Counters: "verdict.rsa_skipped" (cache hits that skipped an RSA
  /// verify), "verdict.miss", "verdict.flush", and "verify.batch_unique",
  /// the number of RSA verifications executed (the name perfbench reads).
  [[nodiscard]] const metrics::CounterSet& counters() const {
    return counters_;
  }

  /// 64-bit content key for one verification: FNV-1a over the signed data,
  /// the signature bytes and the key material. Key rollover invalidates by
  /// construction — a new key (or new signature) hashes to a new verdict.
  [[nodiscard]] static std::uint64_t verdict_key(
      const dns::Bytes& signed_data, const crypto::Bytes& signature,
      const dns::DnskeyRdata& key);

  /// Verifies `rrset` against any covering RRSIG in `rrsigs` using keys from
  /// `dnskeys`. Returns the best outcome across candidate signatures.
  [[nodiscard]] SigCheck verify_rrset(
      const dns::RRset& rrset, const std::vector<dns::ResourceRecord>& rrsigs,
      const dns::RRset& dnskeys);

  /// True when `key` at `owner` hashes to `ds` (RFC 4034 §5.1.4).
  [[nodiscard]] static bool key_matches_ds(const dns::Name& owner,
                                           const dns::DnskeyRdata& key,
                                           const dns::DsRdata& ds);

  /// Finds the DNSKEY in `dnskeys` that `ds` endorses, or nullptr.
  [[nodiscard]] static const dns::DnskeyRdata* find_ds_endorsed_key(
      const dns::Name& owner, const dns::RRset& dnskeys,
      const dns::DsRdata& ds);

  /// Parses (and caches) the RSA public key of a DNSKEY. Returns nullptr for
  /// malformed key material.
  [[nodiscard]] const crypto::RsaPublicKey* parse_key(
      const dns::DnskeyRdata& key);

  /// First NSEC3 RDATA in `authority`, or nullptr — the cheap peek RFC 9276
  /// needs to apply its iteration cap *before* any hashing happens.
  [[nodiscard]] static const dns::Nsec3Rdata* first_nsec3(
      const GroupedSection& authority);

  /// Verifies an NSEC3 denial for (`qname`, `qtype`) (RFC 5155 §8.4-§8.7):
  /// signature checks over every NSEC3 RRset, closest-encloser discovery by
  /// hashing qname's ancestor chain, a covering span for the next-closer
  /// name and for the wildcard at the closest encloser. A NSEC3 matching
  /// qname proves NODATA only when its bitmap lists neither qtype nor
  /// CNAME (§8.5).
  [[nodiscard]] Nsec3Check check_nsec3_denial(const GroupedSection& authority,
                                              const dns::Name& qname,
                                              dns::RRType qtype,
                                              const dns::Name& zone_apex,
                                              const dns::RRset& dnskeys);

 private:
  struct Verdict {
    bool valid = false;
    std::uint64_t expires_us = 0;  // the RRSIG expiration
  };

  /// Cached verdict for `key` live at `now_us`, else nullopt.
  [[nodiscard]] std::optional<bool> verdict_probe(std::uint64_t key,
                                                  std::uint64_t now_us);
  void verdict_insert(std::uint64_t key, bool valid, std::uint64_t expires_us);

  const sim::SimClock* clock_;
  std::unordered_map<std::string, std::unique_ptr<crypto::RsaPublicKey>>
      key_cache_;
  std::unordered_map<std::uint64_t, Verdict> verdicts_;
  std::size_t verdict_capacity_ = 0;
  metrics::CounterSet counters_;
};

/// Groups a message section into RRsets, preserving section order of first
/// appearance; RRSIG records are returned separately. Each record is moved
/// into its group, so callers pass a section they are done with by
/// std::move.
struct GroupedSection {
  std::vector<dns::RRset> rrsets;
  std::vector<dns::ResourceRecord> rrsigs;
};
[[nodiscard]] GroupedSection group_section(
    std::vector<dns::ResourceRecord> section);

/// First RRset with (name, type) within a grouped section, or nullptr.
[[nodiscard]] const dns::RRset* find_rrset(const GroupedSection& section,
                                           const dns::Name& name,
                                           dns::RRType type);

}  // namespace lookaside::resolver
