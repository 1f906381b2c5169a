#include "resolver/validator.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/dnssec_algo.h"
#include "crypto/fnv.h"
#include "resolver/denial.h"
#include "zone/keys.h"
#include "zone/nsec3.h"

namespace lookaside::resolver {

std::uint64_t Validator::verdict_key(const dns::Bytes& signed_data,
                                     const crypto::Bytes& signature,
                                     const dns::DnskeyRdata& key) {
  std::uint64_t hash = crypto::fnv1a(signed_data);
  hash = crypto::fnv1a(signature, hash);
  hash = crypto::fnv1a(key.public_key, hash);
  const std::uint16_t tag = key.key_tag();
  const std::uint8_t tag_bytes[2] = {static_cast<std::uint8_t>(tag >> 8),
                                     static_cast<std::uint8_t>(tag & 0xFF)};
  return crypto::fnv1a(tag_bytes, hash);
}

std::optional<bool> Validator::verdict_probe(std::uint64_t key,
                                             std::uint64_t now_us) {
  const auto it = verdicts_.find(key);
  if (it != verdicts_.end()) {
    if (it->second.expires_us > now_us) {
      counters_.add("verdict.rsa_skipped");
      return it->second.valid;
    }
    verdicts_.erase(it);
  }
  counters_.add("verdict.miss");
  return std::nullopt;
}

void Validator::verdict_insert(std::uint64_t key, bool valid,
                               std::uint64_t expires_us) {
  if (verdicts_.size() >= verdict_capacity_ &&
      verdicts_.find(key) == verdicts_.end()) {
    // Deterministic epoch flush: cheaper and replay-stable vs LRU chains.
    verdicts_.clear();
    counters_.add("verdict.flush");
  }
  verdicts_[key] = Verdict{valid, expires_us};
}

SigCheck Validator::verify_rrset(
    const dns::RRset& rrset, const std::vector<dns::ResourceRecord>& rrsigs,
    const dns::RRset& dnskeys) {
  SigCheck best = SigCheck::kNoSignature;
  auto better = [&best](SigCheck candidate) {
    // kValid short-circuits; otherwise keep the most informative failure.
    if (static_cast<int>(candidate) < static_cast<int>(best) ||
        best == SigCheck::kNoSignature) {
      best = candidate;
    }
  };

  const auto now_seconds =
      static_cast<std::uint32_t>(clock_->now_us() / 1'000'000ULL);

  for (const dns::ResourceRecord& record : rrsigs) {
    const auto* sig = std::get_if<dns::RrsigRdata>(&record.rdata);
    if (sig == nullptr) continue;
    if (record.name != rrset.name()) continue;
    if (sig->type_covered != rrset.type()) continue;

    if (!crypto::algorithm_supported(sig->algorithm)) {
      better(SigCheck::kUnsupported);
      continue;
    }
    if (now_seconds < sig->inception || now_seconds > sig->expiration) {
      better(SigCheck::kExpired);
      continue;
    }

    bool key_found = false;
    for (const dns::ResourceRecord& key_record : dnskeys.records()) {
      const auto* key = std::get_if<dns::DnskeyRdata>(&key_record.rdata);
      if (key == nullptr) continue;
      if (key->algorithm != sig->algorithm) continue;
      if (key->key_tag() != sig->key_tag) continue;
      key_found = true;
      const crypto::RsaPublicKey* rsa = parse_key(*key);
      if (rsa == nullptr) continue;
      const dns::Bytes signed_data = dns::rrsig_signed_data(*sig, rrset);
      const std::uint64_t sig_expires_us =
          static_cast<std::uint64_t>(sig->expiration) * 1'000'000ULL;
      // vState verdict cache (DESIGN.md §4j): a remembered outcome for this
      // exact (signed data, signature, key) tuple skips the RSA verify.
      // Bounded by the RRSIG expiration — the window check above already
      // rejected expired signatures, so a live verdict can never outlast
      // the signature it memoizes. RSA verification is host CPU, not
      // virtual-clock time, so the cache cannot perturb leak determinism.
      std::uint64_t vkey = 0;
      if (verdict_capacity_ > 0) {
        vkey = verdict_key(signed_data, sig->signature, *key);
        if (const auto cached = verdict_probe(vkey, clock_->now_us())) {
          if (*cached) return SigCheck::kValid;
          better(SigCheck::kInvalid);
          continue;
        }
      }
      const bool verified =
          crypto::verify_message(*rsa, signed_data, sig->signature);
      counters_.add("verify.batch_unique");
      if (verdict_capacity_ > 0) {
        verdict_insert(vkey, verified, sig_expires_us);
      }
      if (verified) return SigCheck::kValid;
      better(SigCheck::kInvalid);
    }
    if (!key_found) better(SigCheck::kNoMatchingKey);
  }
  return best;
}

bool Validator::key_matches_ds(const dns::Name& owner,
                               const dns::DnskeyRdata& key,
                               const dns::DsRdata& ds) {
  if (key.algorithm != ds.algorithm) return false;
  if (key.key_tag() != ds.key_tag) return false;
  if (ds.digest_type != 2) return false;  // only SHA-256 DS in this library
  return zone::make_ds(owner, key).digest == ds.digest;
}

const dns::DnskeyRdata* Validator::find_ds_endorsed_key(
    const dns::Name& owner, const dns::RRset& dnskeys,
    const dns::DsRdata& ds) {
  for (const dns::ResourceRecord& record : dnskeys.records()) {
    const auto* key = std::get_if<dns::DnskeyRdata>(&record.rdata);
    if (key != nullptr && key_matches_ds(owner, *key, ds)) return key;
  }
  return nullptr;
}

const crypto::RsaPublicKey* Validator::parse_key(const dns::DnskeyRdata& key) {
  const std::string cache_key(key.public_key.begin(), key.public_key.end());
  const auto it = key_cache_.find(cache_key);
  if (it != key_cache_.end()) return it->second.get();
  auto parsed = crypto::RsaPublicKey::from_wire(key.public_key);
  if (!parsed.has_value()) {
    key_cache_.emplace(cache_key, nullptr);
    return nullptr;
  }
  auto owned = std::make_unique<crypto::RsaPublicKey>(std::move(*parsed));
  const crypto::RsaPublicKey* raw = owned.get();
  key_cache_.emplace(cache_key, std::move(owned));
  return raw;
}

GroupedSection group_section(std::vector<dns::ResourceRecord> section) {
  GroupedSection out;
  for (dns::ResourceRecord& record : section) {
    if (record.type == dns::RRType::kRrsig) {
      out.rrsigs.push_back(std::move(record));
      continue;
    }
    dns::RRset* target = nullptr;
    for (dns::RRset& existing : out.rrsets) {
      if (existing.name() == record.name && existing.type() == record.type) {
        target = &existing;
        break;
      }
    }
    if (target == nullptr) {
      out.rrsets.emplace_back(record.name, record.type);
      target = &out.rrsets.back();
    }
    target->add(std::move(record));
  }
  return out;
}

const dns::RRset* find_rrset(const GroupedSection& section,
                             const dns::Name& name, dns::RRType type) {
  for (const dns::RRset& rrset : section.rrsets) {
    if (rrset.name() == name && rrset.type() == type) return &rrset;
  }
  return nullptr;
}

const dns::Nsec3Rdata* Validator::first_nsec3(const GroupedSection& authority) {
  for (const dns::RRset& rrset : authority.rrsets) {
    if (rrset.type() != dns::RRType::kNsec3 || rrset.empty()) continue;
    if (const auto* rdata =
            std::get_if<dns::Nsec3Rdata>(&rrset.records().front().rdata)) {
      return rdata;
    }
  }
  return nullptr;
}

Nsec3Check Validator::check_nsec3_denial(const GroupedSection& authority,
                                         const dns::Name& qname,
                                         dns::RRType qtype,
                                         const dns::Name& zone_apex,
                                         const dns::RRset& dnskeys) {
  Nsec3Check out;
  const dns::Nsec3Rdata* params = first_nsec3(authority);
  if (params == nullptr) return out;
  out.iterations = params->iterations;

  // One hashed span per presented NSEC3 record: [owner_hash, next_hashed).
  struct Span {
    crypto::Bytes owner_hash;
    const dns::Nsec3Rdata* rdata = nullptr;
  };
  std::vector<Span> spans;
  for (const dns::RRset& rrset : authority.rrsets) {
    if (rrset.type() != dns::RRType::kNsec3) continue;
    if (verify_rrset(rrset, authority.rrsigs, dnskeys) != SigCheck::kValid) {
      return out;
    }
    if (rrset.name().label_count() == 0) return out;
    crypto::Bytes owner_hash;
    try {
      owner_hash = zone::base32hex_decode(rrset.name().label(0));
    } catch (const std::invalid_argument&) {
      return out;
    }
    for (const dns::ResourceRecord& record : rrset.records()) {
      const auto* rdata = std::get_if<dns::Nsec3Rdata>(&record.rdata);
      if (rdata == nullptr || rdata->iterations != params->iterations ||
          rdata->salt != params->salt) {
        return out;  // mixed parameters: reject the whole proof
      }
      spans.push_back(Span{owner_hash, rdata});
    }
  }
  if (spans.empty()) return out;

  // Presented hashes keep their wire length; compare_hashes orders a
  // digest against them as two Bytes would compare. `matches` returns the
  // NSEC3 whose owner hash is the digest, or nullptr.
  const auto matches =
      [&spans](const crypto::Sha1::Digest& digest) -> const dns::Nsec3Rdata* {
    for (const Span& span : spans) {
      if (zone::compare_hashes(digest, span.owner_hash) == 0) {
        return span.rdata;
      }
    }
    return nullptr;
  };
  const auto covered = [&spans](const crypto::Sha1::Digest& digest) {
    for (const Span& span : spans) {
      if (nsec3_covers(digest, span.owner_hash, span.rdata->next_hashed)) {
        return true;
      }
    }
    return false;
  };
  const auto hash_name = [&](const dns::Name& name) {
    out.hash_ops += zone::nsec3_hash_ops(params->iterations);
    return zone::nsec3_hash(name, params->salt, params->iterations);
  };

  // RFC 5155 §8.4 closest-encloser discovery: hash qname, then each ancestor
  // up to the apex, until a matching NSEC3 is found. Every probe is a full
  // iterated hash — this loop is where the attacker's CPU bill lands.
  if (!qname.is_subdomain_of(zone_apex)) return out;
  const crypto::Sha1::Digest qname_hash = hash_name(qname);
  if (const dns::Nsec3Rdata* match = matches(qname_hash)) {
    // NODATA (RFC 5155 §8.5): qname exists, and the matching NSEC3's
    // bitmap must list neither qtype nor CNAME.
    const auto lists = [match](dns::RRType type) {
      return std::find(match->types.begin(), match->types.end(), type) !=
             match->types.end();
    };
    out.proven = !lists(qtype) && !lists(dns::RRType::kCname);
    return out;
  }
  dns::Name closest = qname;
  crypto::Sha1::Digest next_closer_hash = qname_hash;
  bool found_closest = false;
  while (closest.label_count() > zone_apex.label_count()) {
    const dns::Name parent = closest.parent();
    const crypto::Sha1::Digest parent_hash = hash_name(parent);
    if (matches(parent_hash)) {
      found_closest = true;
      break;
    }
    closest = parent;
    next_closer_hash = parent_hash;
  }
  if (!found_closest) return out;
  if (!covered(next_closer_hash)) return out;
  const dns::Name closest_encloser = closest.parent();
  const crypto::Sha1::Digest wildcard_hash =
      hash_name(closest_encloser.with_prefix_label("*"));
  out.proven = covered(wildcard_hash) || matches(wildcard_hash);
  if (out.proven) {
    // Export synthesis evidence: the encloser is proven to exist with its
    // wildcard proven absent, and every span came from a verified RRset —
    // exactly what hash-gated RFC 8198 synthesis needs later.
    out.has_evidence = true;
    out.closest_encloser = closest_encloser;
    out.salt = params->salt;
    out.spans.reserve(spans.size());
    for (const Span& span : spans) {
      out.spans.emplace_back(span.owner_hash, span.rdata->next_hashed);
    }
  }
  return out;
}

}  // namespace lookaside::resolver
