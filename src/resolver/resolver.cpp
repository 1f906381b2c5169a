#include "resolver/resolver.h"

#include <algorithm>
#include <iterator>

#include "crypto/fnv.h"
#include "obs/tracer.h"

namespace lookaside::resolver {

namespace {

constexpr int kMaxFetchDepth = 12;
constexpr int kMaxReferralHops = 16;
constexpr int kMaxCnameDepth = 8;
constexpr std::uint32_t kDefaultNegativeTtl = 3600;

std::uint32_t soa_negative_ttl(const GroupedSection& authority) {
  for (const dns::RRset& rrset : authority.rrsets) {
    if (rrset.type() != dns::RRType::kSoa || rrset.empty()) continue;
    const auto* soa =
        std::get_if<dns::SoaRdata>(&rrset.records().front().rdata);
    if (soa != nullptr) return soa->minimum_ttl;
  }
  return kDefaultNegativeTtl;
}

/// Whether one NSEC record in `authority` proves `wanted` for (qname,
/// qtype) under `zone_apex` by the one NSEC denial rule. nsec_denial judges
/// a span whose owner sorts at or before qname (a chain walk finds no
/// other), so a record that sorts after qname proves nothing here either.
bool nsec_proves(const GroupedSection& authority, const dns::Name& zone_apex,
                 const dns::Name& qname, dns::RRType qtype,
                 NsecCoverage wanted) {
  for (const dns::RRset& rrset : authority.rrsets) {
    if (rrset.type() != dns::RRType::kNsec) continue;
    for (const dns::ResourceRecord& record : rrset.records()) {
      const auto* nsec = std::get_if<dns::NsecRdata>(&record.rdata);
      if (nsec != nullptr && record.name.canonical_compare(qname) <= 0 &&
          nsec_denial(zone_apex, record.name, nsec->next, nsec->types, qname,
                      qtype) == wanted) {
        return true;
      }
    }
  }
  return false;
}

/// DNSSEC records, which a plain stub (DO=0) is never shown.
bool hidden_from_plain_stub(dns::RRType type) {
  return type == dns::RRType::kRrsig || type == dns::RRType::kNsec ||
         type == dns::RRType::kNsec3 || type == dns::RRType::kNsec3Param;
}

/// Appends `records` to `out`: copies what is lent, moves what is owned.
void append(std::vector<dns::ResourceRecord>& out,
            const std::vector<dns::ResourceRecord>& records) {
  out.insert(out.end(), records.begin(), records.end());
}

void append(std::vector<dns::ResourceRecord>& out,
            std::vector<dns::ResourceRecord>&& records) {
  out.insert(out.end(), std::make_move_iterator(records.begin()),
             std::make_move_iterator(records.end()));
}

}  // namespace

void strip_for_plain_stub(dns::Message& response) {
  response.header.ad = false;
  std::erase_if(response.answers, [](const dns::ResourceRecord& record) {
    return hidden_from_plain_stub(record.type);
  });
}

const char* status_name(ValidationStatus status) {
  switch (status) {
    case ValidationStatus::kSecure: return "secure";
    case ValidationStatus::kInsecure: return "insecure";
    case ValidationStatus::kBogus: return "bogus";
    case ValidationStatus::kIndeterminate: return "indeterminate";
  }
  return "?";
}

RecursiveResolver::RecursiveResolver(sim::Network& network,
                                     server::ServerDirectory& directory,
                                     ResolverConfig config)
    : network_(&network),
      directory_(&directory),
      config_(std::move(config)),
      cache_(network.clock()),
      validator_(network.clock()) {
  CacheLimits limits{.max_bytes = config_.max_cache_bytes};
  // Under aggressive synthesis the spans answer (and elide) denials, so
  // the replacement policy protects hot spans harder than one clock pass.
  if (config_.aggressive_synthesis) limits.nsec_extra_chances = 2;
  cache_.set_limits(limits);
  validator_.set_verdict_cache_entries(config_.verdict_cache_entries);
}

void RecursiveResolver::trace_event(obs::EventKind kind,
                                    const dns::Name& name, dns::RRType qtype,
                                    std::string detail,
                                    std::string server) const {
  if (tracer_ == nullptr) return;
  obs::Event event;
  event.kind = kind;
  event.name = name.to_text();
  event.qtype = qtype;
  event.detail = std::move(detail);
  event.server = std::move(server);
  tracer_->emit(std::move(event));
}

bool RecursiveResolver::ns_fetch_coin(const dns::Name& zone) const {
  return config_.ns_fetch_probability > 0.0 &&
         crypto::fnv1a_unit(zone.internal_text()) <
             config_.ns_fetch_probability;
}

// ---------------------------------------------------------------------------
// Retry / holddown (robustness layer)
// ---------------------------------------------------------------------------

bool RecursiveResolver::server_dead(const std::string& server_id) {
  const auto it = dead_until_us_.find(server_id);
  if (it == dead_until_us_.end()) return false;
  if (it->second <= network_->clock().now_us()) {
    dead_until_us_.erase(it);  // holddown lapsed; probe the server again
    return false;
  }
  return true;
}

void RecursiveResolver::mark_server_dead(const std::string& server_id,
                                         const dns::Question& question) {
  if (config_.server_holddown_us == 0) return;
  dead_until_us_[server_id] =
      network_->clock().now_us() + config_.server_holddown_us;
  stats_.add("servers.marked_dead");
  trace_event(obs::EventKind::kServerMarkedDead, question.name, question.type,
              "holddown", server_id);
}

std::optional<dns::Message> RecursiveResolver::exchange_with_retry(
    sim::Endpoint& server, const dns::Message& query,
    const RetryPolicy& policy) {
  const std::string server_id = server.endpoint_id();
  if (server_dead(server_id)) {
    stats_.add("servers.skipped_dead");
    return std::nullopt;
  }
  const dns::Question& question = query.question();
  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    if (attempt > 0) {
      network_->count_retry();
      trace_event(obs::EventKind::kRetry, question.name, question.type,
                  "attempt=" + std::to_string(attempt), server_id);
    }
    auto response = network_->exchange(endpoint_id(), server, query,
                                       policy.rto_for_attempt(attempt));
    if (current_ != nullptr) ++current_->upstream_exchanges;
    if (!response.has_value()) continue;
    // A truncated response is useless over simulated UDP: treat it like a
    // loss and re-ask (models the retry-over-TCP round trip as a re-query).
    if (response->header.tc) continue;
    return response;
  }
  mark_server_dead(server_id, question);
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Iterative fetching
// ---------------------------------------------------------------------------

RecursiveResolver::Fetched RecursiveResolver::fetched_denial(
    const ProofResult& proof) {
  Fetched out;
  out.kind = proof.coverage == DenialKind::kNxDomain ? Fetched::Kind::kNxDomain
                                                     : Fetched::Kind::kNoData;
  out.from_cache = true;
  // A denial synthesized from validated spans (RFC 8198) is itself
  // validated material; an exact negative entry keeps its legacy
  // unvalidated treatment.
  out.cached_validated = proof.origin != ProofOrigin::kLocal;
  return out;
}

RecursiveResolver::Fetched RecursiveResolver::fetch_from_cache(
    const dns::Name& qname, dns::RRType qtype) {
  Fetched out;
  if (config_.aggressive_synthesis) {
    // RFC 8198 for every query class, not just DLV probes: any cached
    // validated span (or NSEC3 evidence) covering qname answers without
    // contacting authorities. The zone scope is the deepest known cut —
    // except for DS, which only the parent side of the cut can deny
    // (mirrors the routing_name logic in fetch()).
    const dns::Name scope_name =
        (qtype == dns::RRType::kDs && !qname.is_root()) ? qname.parent()
                                                        : qname;
    const ProofResult proof = cache_.find_denial(
        cache_.deepest_known_cut(scope_name), qname, qtype, denial_sources());
    if (proof.hash_ops > 0) charge_nsec3_cost(proof.hash_ops);
    if (proof) {
      if (proof.origin != ProofOrigin::kLocal) {
        stats_.add("cache.synth_answer");
      }
      return fetched_denial(proof);
    }
  } else {
    const ProofResult proof = cache_.find_denial(
        qname, qname, qtype, DenialSources::kNegative);
    if (proof) return fetched_denial(proof);
  }
  auto entry = cache_.find_entry(qname, qtype);
  if (!entry.has_value() && qtype != dns::RRType::kCname) {
    // A cached CNAME answers any qtype.
    entry = cache_.find_entry(qname, dns::RRType::kCname);
  }
  if (entry.has_value()) {
    out.kind = Fetched::Kind::kAnswer;
    out.from_cache = true;
    out.cached_validated = entry->validated;
    out.lent = *entry;
    out.auth_zone = cache_.deepest_known_cut(qname);
    return out;
  }
  out.kind = Fetched::Kind::kFail;
  return out;
}

RecursiveResolver::Fetched RecursiveResolver::fetch(const dns::Name& qname,
                                                    dns::RRType qtype,
                                                    int depth) {
  if (depth > kMaxFetchDepth) return Fetched{};

  Fetched cached = fetch_from_cache(qname, qtype);
  if (cached.kind != Fetched::Kind::kFail) {
    trace_event(obs::EventKind::kCacheHit, qname, qtype,
                cached.kind == Fetched::Kind::kAnswer ? "positive"
                                                      : "negative");
    return cached;
  }

  // DS is served by the parent side of a cut; route accordingly.
  const dns::Name routing_name =
      (qtype == dns::RRType::kDs && !qname.is_root()) ? qname.parent() : qname;

  dns::Name zone_apex = cache_.deepest_known_cut(routing_name);
  sim::Endpoint* endpoint = directory_->authority_for_zone(zone_apex);
  if (endpoint == nullptr) {
    zone_apex = dns::Name::root();
    endpoint = directory_->authority_for_zone(zone_apex);
    if (endpoint == nullptr) return Fetched{};
  }

  const bool dnssec_ok =
      config_.validation_enabled() || config_.dlv_enabled();

  Fetched out;
  std::size_t minimize_extra = 0;  // RFC 7816 NODATA extension counter
  for (int hop = 0; hop < kMaxReferralHops; ++hop) {
    // RFC 7816: against non-terminal authorities, ask only for the next
    // zone cut (one label below the current zone, qtype NS). A NODATA
    // reply to a minimized query (empty non-terminal, in-zone host) widens
    // the name by one label and retries.
    dns::Name send_name = qname;
    dns::RRType send_type = qtype;
    const std::size_t min_labels =
        zone_apex.label_count() + 1 + minimize_extra;
    if (config_.qname_minimization && qname.label_count() > min_labels &&
        qname.is_subdomain_of(zone_apex)) {
      while (send_name.label_count() > min_labels) {
        send_name = send_name.parent();
      }
      send_type = dns::RRType::kNs;
    }
    const bool minimized = send_name != qname;
    const dns::Message query = dns::Message::make_query(
        next_id_++, send_name, send_type, /*recursion_desired=*/false,
        dnssec_ok);
    auto response = exchange_with_retry(*endpoint, query, config_.retry);
    if (!response.has_value()) return Fetched{};

    out.answer = group_section(std::move(response->answers));
    out.authority = group_section(std::move(response->authorities));
    out.auth_zone = zone_apex;
    out.z_bit = response->header.z;

    if (response->header.rcode == dns::RCode::kNxDomain) {
      // NXDOMAIN of an ancestor implies NXDOMAIN of the full name.
      out.kind = Fetched::Kind::kNxDomain;
      cache_.store_negative(send_name, send_type,
                            soa_negative_ttl(out.authority),
                            /*nxdomain=*/true);
      if (minimized) {
        cache_.store_negative(qname, qtype, soa_negative_ttl(out.authority),
                              /*nxdomain=*/true);
      }
      return out;
    }
    if (response->header.rcode != dns::RCode::kNoError) {
      out.kind = Fetched::Kind::kFail;
      return out;
    }

    // Minimized NS query answered authoritatively at the cut: step down a
    // zone level and keep going.
    if (minimized) {
      const dns::RRset* cut_ns =
          find_rrset(out.answer, send_name, dns::RRType::kNs);
      if (cut_ns != nullptr) {
        cache_.store(*cut_ns, /*validated=*/false);
        cache_.store_zone_cut(send_name, cut_ns->ttl());
        sim::Endpoint* next = directory_->authority_for_zone(send_name);
        if (next == nullptr) return Fetched{};
        endpoint = next;
        zone_apex = send_name;
        minimize_extra = 0;
        continue;
      }
    }

    // Answer present?
    const dns::RRset* direct = find_rrset(out.answer, qname, qtype);
    const dns::RRset* cname =
        direct == nullptr && qtype != dns::RRType::kCname
            ? find_rrset(out.answer, qname, dns::RRType::kCname)
            : nullptr;
    if (direct != nullptr || cname != nullptr) {
      out.kind = Fetched::Kind::kAnswer;
      const dns::RRset& rrset = direct != nullptr ? *direct : *cname;
      std::vector<dns::ResourceRecord> covering;
      for (const dns::ResourceRecord& sig : out.answer.rrsigs) {
        const auto* rdata = std::get_if<dns::RrsigRdata>(&sig.rdata);
        if (rdata != nullptr && sig.name == rrset.name() &&
            rdata->type_covered == rrset.type()) {
          covering.push_back(sig);
        }
      }
      cache_.store(rrset, /*validated=*/false, std::move(covering));
      return out;
    }

    // Referral? (NS in authority, not at this server's apex)
    const dns::RRset* referral_ns = nullptr;
    for (const dns::RRset& rrset : out.authority.rrsets) {
      if (rrset.type() == dns::RRType::kNs && rrset.name() != zone_apex) {
        referral_ns = &rrset;
        break;
      }
    }
    if (referral_ns != nullptr) {
      const dns::Name cut = referral_ns->name();
      cache_.store(*referral_ns, /*validated=*/false);
      cache_.store_zone_cut(cut, referral_ns->ttl());
      // Cache any glue that rode along.
      GroupedSection additional =
          group_section(std::move(response->additionals));
      for (const dns::RRset& glue : additional.rrsets) {
        if (glue.type() == dns::RRType::kA) {
          cache_.store(glue, /*validated=*/false);
        }
      }
      // Glue chasing: resolve the first NS host we have no address for.
      for (const dns::ResourceRecord& ns : referral_ns->records()) {
        const auto* rdata = std::get_if<dns::NsRdata>(&ns.rdata);
        if (rdata == nullptr) continue;
        const dns::Name& host = rdata->nameserver;
        if (find_rrset(additional, host, dns::RRType::kA) != nullptr) break;
        if (cache_.find(host, dns::RRType::kA) != nullptr) break;
        if (host.is_subdomain_of(cut)) break;  // would be glue if it existed
        (void)fetch(host, dns::RRType::kA, depth + 1);
        break;
      }

      sim::Endpoint* next = directory_->authority_for_zone(cut);
      if (next == nullptr) return Fetched{};
      endpoint = next;
      zone_apex = cut;
      minimize_extra = 0;
      continue;
    }

    // NOERROR without answer or referral: NODATA. For a minimized query
    // this only means the intermediate label is an empty non-terminal or a
    // host — widen the name and retry (RFC 7816 §3).
    if (minimized) {
      ++minimize_extra;
      continue;
    }
    out.kind = Fetched::Kind::kNoData;
    cache_.store_negative(qname, qtype, soa_negative_ttl(out.authority),
                          /*nxdomain=*/false);
    return out;
  }
  return Fetched{};
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

ValidationStatus RecursiveResolver::validate_zone_keys(
    const dns::Name& zone, const dns::DsRdata* ds,
    const dns::DnskeyRdata* anchor, int depth, dns::RRset* out_keys) {
  if (const dns::RRset* cached =
          cache_.find_validated(zone, dns::RRType::kDnskey)) {
    *out_keys = *cached;
    return ValidationStatus::kSecure;
  }
  Fetched keys_fetch = fetch(zone, dns::RRType::kDnskey, depth + 1);
  if (keys_fetch.kind != Fetched::Kind::kAnswer) {
    // DS (or an anchor) says the zone is signed but no DNSKEY is served.
    return ValidationStatus::kBogus;
  }
  const dns::RRset* keys = nullptr;
  for (const dns::RRset& rrset : keys_fetch.answer_rrsets()) {
    if (rrset.type() == dns::RRType::kDnskey && rrset.name() == zone) {
      keys = &rrset;
      break;
    }
  }
  if (keys == nullptr) return ValidationStatus::kBogus;

  // The securing key must be endorsed by the DS or equal the trust anchor.
  bool endorsed = false;
  if (ds != nullptr) {
    endorsed = Validator::find_ds_endorsed_key(zone, *keys, *ds) != nullptr;
  } else if (anchor != nullptr) {
    for (const dns::ResourceRecord& record : keys->records()) {
      const auto* key = std::get_if<dns::DnskeyRdata>(&record.rdata);
      if (key != nullptr && *key == *anchor) {
        endorsed = true;
        break;
      }
    }
  }
  if (!endorsed) return ValidationStatus::kBogus;

  if (validator_.verify_rrset(*keys, keys_fetch.answer_rrsigs(), *keys) !=
      SigCheck::kValid) {
    return ValidationStatus::kBogus;
  }
  // Keys cached unvalidated come lent, and storing over them frees them:
  // copy them out first.
  *out_keys = *keys;
  cache_.store(*out_keys, /*validated=*/true, keys_fetch.answer_rrsigs());
  return ValidationStatus::kSecure;
}

ValidationStatus RecursiveResolver::validate_descent(
    const dns::Name& from_zone, dns::RRset trusted, const dns::Name& to_zone,
    int depth, dns::RRset* out_keys) {
  // Build the list of zones strictly below from_zone down to to_zone,
  // assuming cuts at label boundaries (true throughout this simulator).
  std::vector<dns::Name> descent;
  dns::Name walk = to_zone;
  while (walk != from_zone) {
    descent.push_back(walk);
    if (walk.is_root()) return ValidationStatus::kBogus;  // not an ancestor
    walk = walk.parent();
  }
  std::reverse(descent.begin(), descent.end());

  dns::Name parent = from_zone;
  for (const dns::Name& child : descent) {
    if (const dns::RRset* cached =
            cache_.find_validated(child, dns::RRType::kDnskey)) {
      trusted = *cached;
      parent = child;
      continue;
    }

    Fetched ds_fetch = fetch(child, dns::RRType::kDs, depth + 1);
    if (ds_fetch.kind == Fetched::Kind::kNoData ||
        ds_fetch.kind == Fetched::Kind::kNxDomain) {
      // Proven (or cached) absence of DS: the delegation is insecure. A
      // fresh denial that proves nothing is an on-path downgrade, and its
      // negative entry must not answer the next DS query.
      if (!ds_fetch.from_cache &&
          validate_denial(ds_fetch.authority,
                          ds_fetch.kind == Fetched::Kind::kNxDomain, child,
                          dns::RRType::kDs, parent,
                          trusted) == ValidationStatus::kBogus) {
        cache_.forget(child, dns::RRType::kDs);
        return ValidationStatus::kBogus;
      }
      return ValidationStatus::kInsecure;
    }
    if (ds_fetch.kind != Fetched::Kind::kAnswer) {
      return ValidationStatus::kIndeterminate;
    }
    const dns::RRset* ds_rrset = nullptr;
    for (const dns::RRset& rrset : ds_fetch.answer_rrsets()) {
      if (rrset.type() == dns::RRType::kDs && rrset.name() == child) {
        ds_rrset = &rrset;
        break;
      }
    }
    if (ds_rrset == nullptr) return ValidationStatus::kIndeterminate;
    const auto* ds =
        std::get_if<dns::DsRdata>(&ds_rrset->records().front().rdata);
    dns::DsRdata lent_ds;
    if (!(ds_fetch.from_cache && ds_fetch.cached_validated)) {
      if (validator_.verify_rrset(*ds_rrset, ds_fetch.answer_rrsigs(),
                                  trusted) != SigCheck::kValid) {
        return ValidationStatus::kBogus;
      }
      // A DS cached unvalidated comes lent, and storing over it frees it:
      // copy the record the key check reads first.
      if (ds != nullptr && ds_fetch.from_cache) {
        lent_ds = *ds;
        ds = &lent_ds;
      }
      cache_.store(*ds_rrset, /*validated=*/true, ds_fetch.answer_rrsigs());
    }
    if (ds == nullptr) return ValidationStatus::kBogus;
    dns::RRset child_keys;
    const ValidationStatus key_status =
        validate_zone_keys(child, ds, nullptr, depth, &child_keys);
    if (key_status != ValidationStatus::kSecure) return key_status;
    trusted = std::move(child_keys);
    parent = child;
  }
  *out_keys = std::move(trusted);
  return ValidationStatus::kSecure;
}

ValidationStatus RecursiveResolver::validate_chain(const dns::Name& zone,
                                                   int depth,
                                                   dns::RRset* out_keys) {
  if (!config_.root_anchor_available() || !root_anchor_.has_value()) {
    return ValidationStatus::kIndeterminate;
  }
  dns::RRset root_keys;
  const ValidationStatus root_status = validate_zone_keys(
      dns::Name::root(), nullptr, &*root_anchor_, depth, &root_keys);
  if (root_status != ValidationStatus::kSecure) return root_status;
  return validate_descent(dns::Name::root(), std::move(root_keys), zone,
                          depth, out_keys);
}

void RecursiveResolver::cache_validated_nsecs(const GroupedSection& section,
                                              const dns::Name& zone,
                                              const dns::RRset& keys) {
  if (!config_.aggressive_negative_caching) return;
  for (const dns::RRset& rrset : section.rrsets) {
    if (rrset.type() != dns::RRType::kNsec) continue;
    if (validator_.verify_rrset(rrset, section.rrsigs, keys) !=
        SigCheck::kValid) {
      continue;
    }
    for (const dns::ResourceRecord& record : rrset.records()) {
      cache_.store_nsec(zone, record);
    }
  }
}

void RecursiveResolver::charge_nsec3_cost(std::uint64_t hash_ops) {
  const std::uint64_t cost_us = hash_ops * config_.nsec3_hash_cost_ns / 1000;
  if (cost_us > 0) network_->clock().advance_us(cost_us);
  stats_.add("nsec3.hash_ops", hash_ops);
  if (current_ != nullptr) current_->validation_cost_us += cost_us;
}

RecursiveResolver::Nsec3Policy RecursiveResolver::handle_nsec3_denial(
    const GroupedSection& authority, const dns::Name& qname, dns::RRType qtype,
    const dns::Name& zone_apex, const dns::RRset* keys) {
  const dns::Nsec3Rdata* nsec3 = Validator::first_nsec3(authority);
  if (nsec3 == nullptr) return Nsec3Policy::kNone;
  nsec3_apexes_.get_or_insert(zone_apex) = true;

  // RFC 9276 §3: the iteration cap is enforced before any hashing, so an
  // attacker-inflated count cannot bill the validator's CPU.
  if (config_.nsec3_iteration_cap > 0 &&
      nsec3->iterations > config_.nsec3_iteration_cap) {
    if (config_.nsec3_strict) {
      trace_event(obs::EventKind::kValidation, qname, dns::RRType::kNsec3,
                  "nsec3-over-cap-servfail");
      return Nsec3Policy::kRejected;
    }
    // Downgrade-to-insecure: accept the denial without verifying it, the
    // post-2021 BIND/Unbound behavior.
    trace_event(obs::EventKind::kValidation, qname, dns::RRType::kNsec3,
                "nsec3-over-cap-insecure");
    return Nsec3Policy::kDowngraded;
  }

  if (keys == nullptr) {
    // No validated keys for the zone: the denial cannot be proven, but the
    // hashing bill was never run either. Treat like the plain-NSEC case of
    // an unvalidated zone.
    return Nsec3Policy::kDowngraded;
  }
  const Nsec3Check check = validator_.check_nsec3_denial(
      authority, qname, qtype, zone_apex, *keys);
  charge_nsec3_cost(check.hash_ops);
  if (!check.proven) return Nsec3Policy::kRejected;
  if (config_.aggressive_synthesis && check.has_evidence) {
    // Cache the proof's verified material (closest encloser + hashed
    // spans) so later queries under the same encloser synthesize NXDOMAIN
    // with a single hash instead of a registry round trip (DESIGN.md §4j).
    ResolverCache::Nsec3Evidence evidence;
    evidence.salt = check.salt;
    evidence.iterations = check.iterations;
    evidence.closest_encloser = check.closest_encloser;
    evidence.spans = check.spans;
    evidence.expires_us =
        network_->clock().now_us() +
        static_cast<std::uint64_t>(soa_negative_ttl(authority)) * 1'000'000ULL;
    cache_.store_nsec3_evidence(zone_apex, evidence);
  }
  return Nsec3Policy::kAccepted;
}

ValidationStatus RecursiveResolver::validate_response(const Fetched& fetched,
                                                      const dns::Name& qname,
                                                      dns::RRType qtype,
                                                      int depth) {
  if (fetched.from_cache) {
    return fetched.cached_validated ? ValidationStatus::kSecure
                                    : ValidationStatus::kInsecure;
  }
  dns::RRset zone_keys;
  const ValidationStatus chain =
      validate_chain(fetched.auth_zone, depth, &zone_keys);
  if (chain != ValidationStatus::kSecure) return chain;

  for (const dns::RRset& rrset : fetched.answer_rrsets()) {
    if (validator_.verify_rrset(rrset, fetched.answer_rrsigs(), zone_keys) !=
        SigCheck::kValid) {
      return ValidationStatus::kBogus;
    }
    cache_.mark_validated(rrset.name(), rrset.type());
  }
  if (fetched.kind == Fetched::Kind::kNxDomain ||
      fetched.kind == Fetched::Kind::kNoData) {
    return validate_denial(fetched.authority,
                           fetched.kind == Fetched::Kind::kNxDomain, qname,
                           qtype, fetched.auth_zone, zone_keys);
  }
  return ValidationStatus::kSecure;
}

ValidationStatus RecursiveResolver::validate_denial(
    const GroupedSection& authority, bool nxdomain, const dns::Name& qname,
    dns::RRType qtype, const dns::Name& zone_apex, const dns::RRset& keys) {
  for (const dns::RRset& rrset : authority.rrsets) {
    if (rrset.type() != dns::RRType::kSoa &&
        rrset.type() != dns::RRType::kNsec) {
      continue;
    }
    if (validator_.verify_rrset(rrset, authority.rrsigs, keys) !=
        SigCheck::kValid) {
      return ValidationStatus::kBogus;
    }
  }
  // NSEC3 proofs carry their own signature checks plus the iterated-hash
  // verification (and its modeled CPU bill) behind the RFC 9276 cap.
  switch (handle_nsec3_denial(authority, qname, qtype, zone_apex, &keys)) {
    case Nsec3Policy::kRejected:
      return ValidationStatus::kBogus;
    case Nsec3Policy::kDowngraded:
      return ValidationStatus::kInsecure;
    case Nsec3Policy::kNone: {
      // No NSEC3: a verified signature proves only that the zone signed
      // some span. One NSEC must deny (qname, qtype) itself, and a denial
      // with no NSEC proves nothing (RFC 4035 §5.4).
      const NsecCoverage wanted = nxdomain ? NsecCoverage::kNameCovered
                                           : NsecCoverage::kTypeAbsent;
      if (!nsec_proves(authority, zone_apex, qname, qtype, wanted)) {
        return ValidationStatus::kBogus;
      }
      break;
    }
    case Nsec3Policy::kAccepted:
      break;
  }
  // Every NSEC RRset passed the loop above: store it without a second
  // signature check.
  if (config_.aggressive_negative_caching) {
    for (const dns::RRset& rrset : authority.rrsets) {
      if (rrset.type() != dns::RRType::kNsec) continue;
      for (const dns::ResourceRecord& record : rrset.records()) {
        cache_.store_nsec(zone_apex, record);
      }
    }
  }
  return ValidationStatus::kSecure;
}

// ---------------------------------------------------------------------------
// DLV look-aside (RFC 5074)
// ---------------------------------------------------------------------------

const dns::RRset* RecursiveResolver::dlv_zone_keys(const dns::Name& apex,
                                                   int depth) {
  (void)depth;
  if (const dns::RRset* cached =
          cache_.find_validated(apex, dns::RRType::kDnskey)) {
    return cached;
  }
  const auto anchor_it = dlv_anchors_.find(apex);
  if (anchor_it == dlv_anchors_.end()) return nullptr;
  const dns::DnskeyRdata& anchor = anchor_it->second;
  // The DLV domain is configuration, not referral-discovered: ask the
  // registry directly for its DNSKEY RRset and anchor-validate it.
  sim::Endpoint* registry = directory_->authority_for_zone(apex);
  if (registry == nullptr) return nullptr;
  const dns::Message query = dns::Message::make_query(
      next_id_++, apex, dns::RRType::kDnskey,
      /*recursion_desired=*/false, /*dnssec_ok=*/true);
  // DLV traffic runs on its own bounded retry budget: a dead registry must
  // not cost the full upstream schedule on every resolution (§8.4).
  auto response = exchange_with_retry(*registry, query, config_.dlv_retry);
  if (!response.has_value()) {
    if (current_ != nullptr) current_->dlv.timed_out = true;
    return nullptr;
  }

  const GroupedSection answer = group_section(std::move(response->answers));
  const dns::RRset* keys = find_rrset(answer, apex, dns::RRType::kDnskey);
  if (keys == nullptr) return nullptr;
  bool anchored = false;
  for (const dns::ResourceRecord& record : keys->records()) {
    const auto* key = std::get_if<dns::DnskeyRdata>(&record.rdata);
    if (key != nullptr && *key == anchor) {
      anchored = true;
      break;
    }
  }
  if (!anchored) return nullptr;
  if (validator_.verify_rrset(*keys, answer.rrsigs, *keys) != SigCheck::kValid) {
    return nullptr;
  }
  cache_.store(*keys, /*validated=*/true, answer.rrsigs);
  return cache_.find_validated(apex, dns::RRType::kDnskey);
}

RecursiveResolver::DlvOutcome RecursiveResolver::dlv_lookup(
    const dns::Name& domain, ResolveResult& result, int depth) {
  // Consult registries in configured order; each one contacted is one more
  // third party that observes the query (paper §7.3.2).
  DlvOutcome outcome = dlv_lookup_at(config_.dlv_domain, domain, result, depth);
  for (const dns::Name& apex : config_.additional_dlv_domains) {
    if (outcome.found) break;
    outcome = dlv_lookup_at(apex, domain, result, depth);
  }
  return outcome;
}

RecursiveResolver::DlvOutcome RecursiveResolver::dlv_lookup_at(
    const dns::Name& apex, const dns::Name& domain, ResolveResult& result,
    int depth) {
  DlvOutcome outcome;
  sim::Endpoint* registry = directory_->authority_for_zone(apex);
  if (registry == nullptr) return outcome;

  const dns::RRset* dlv_keys = dlv_zone_keys(apex, depth);

  // Candidate DLV names: RFC 5074 label stripping ("the validator removes
  // the leading label from the query and tries again"). Hashed mode has a
  // single flat candidate (hash labels are not hierarchical).
  std::vector<std::pair<dns::Name, dns::Name>> candidates;  // (dlv name, domain)
  if (config_.hashed_dlv_queries) {
    candidates.emplace_back(dlv::hashed_dlv_name(domain, apex), domain);
  } else {
    dns::Name walk = domain;
    for (;;) {
      candidates.emplace_back(dlv::clear_dlv_name(walk, apex), walk);
      if (walk.label_count() <= 2) break;  // stop at the registrable suffix
      walk = walk.parent();
    }
  }

  for (const auto& [candidate, candidate_domain] : candidates) {
    // One lookup covers exact negatives and NSEC spans; the origin keeps
    // the per-class trace vocabulary intact so leak ledgers stay
    // comparable across versions.
    const ProofResult proof = cache_.find_denial(
        apex, candidate, dns::RRType::kDlv, denial_sources());
    if (proof.hash_ops > 0) charge_nsec3_cost(proof.hash_ops);
    if (proof) {
      result.dlv.suppressed_by_nsec = true;
      dlv_denial_deadline_.get_or_insert(candidate) = proof.expires_us;
      const char* detail = "nsec";
      if (proof.origin == ProofOrigin::kLocal) {
        detail = "negative-cache";
      } else {
        if (proof.hash_ops > 0) detail = "nsec3-synthesized";
        if (config_.aggressive_synthesis) {
          // Synthesis metric: denials answered without an exact cached
          // entry (span- or evidence-derived) under the RFC 8198 profile.
          stats_.add("dlv.suppressed.synthesized");
        }
      }
      trace_event(obs::EventKind::kNsecSuppression, candidate,
                  dns::RRType::kDlv, detail, registry->endpoint_id());
      continue;
    }

    // No cached denial covers this candidate, so a DLV query is about to
    // leave the resolver and the registry is about to observe it. Classify
    // *why* the query escaped — the leak ledger pairs this event (emitted
    // before the exchange, so it precedes the registry's observation in
    // stream order) with the Case-1/Case-2 verdict the registry assigns.
    if (tracer_ != nullptr) {
      std::string cause = "cold-miss";
      if (const std::uint64_t* deadline =
              dlv_denial_deadline_.find(candidate)) {
        // The resolver held a denial proof for this exact name before: if
        // its TTL has lapsed this is ordinary expiry; if the deadline is
        // still ahead, the proof can only have been evicted under pressure.
        cause = *deadline <= network_->clock().now_us() ? "ttl-expiry"
                                                        : "eviction";
      } else if (cache_.nsec_count(apex) > 0) {
        // Never proven before, but the zone's NSEC chain is warm — the
        // cached spans simply do not cover this name.
        cause = "nsec-gap";
      }
      // NSEC3 registries get their own cause vocabulary (cold-miss-nsec3,
      // ...) so the ledger's per-cause totals separate hashed denial from
      // plain NSEC while the Case-2 sum stays identical. The very first
      // query against a registry predates the discovery of its denial
      // flavor and stays untagged by construction.
      if (nsec3_apexes_.find(apex) != nullptr) cause += "-nsec3";
      trace_event(obs::EventKind::kLeakCause, candidate, dns::RRType::kDlv,
                  cause, registry->endpoint_id());
    }

    const dns::Message query = dns::Message::make_query(
        next_id_++, candidate, dns::RRType::kDlv,
        /*recursion_desired=*/false, /*dnssec_ok=*/true);
    auto response = exchange_with_retry(*registry, query, config_.dlv_retry);
    result.dlv.used = true;
    result.dlv.query_names.push_back(candidate);
    // Trace detail distinguishes the three registry outcomes: "timeout"
    // (outage / retries exhausted), "nxdomain" (definitive no-deposit) and
    // "query" (answered, record or NODATA).
    const bool nxdomain =
        response.has_value() &&
        response->header.rcode == dns::RCode::kNxDomain;
    trace_event(obs::EventKind::kDlvLookup, candidate, dns::RRType::kDlv,
                !response.has_value() ? "timeout"
                : nxdomain            ? "nxdomain"
                                      : "query",
                registry->endpoint_id());
    if (!response.has_value()) {  // registry outage (§8.4)
      result.dlv.timed_out = true;
      stats_.add("dlv.timeout");
      continue;
    }

    const GroupedSection answer = group_section(std::move(response->answers));
    const GroupedSection authority =
        group_section(std::move(response->authorities));

    const dns::RRset* dlv_rrset =
        find_rrset(answer, candidate, dns::RRType::kDlv);
    if (response->header.rcode == dns::RCode::kNoError &&
        dlv_rrset != nullptr) {
      // "No error": a record is deposited (Case-1 observation).
      if (dlv_keys != nullptr &&
          validator_.verify_rrset(*dlv_rrset, answer.rrsigs, *dlv_keys) !=
              SigCheck::kValid) {
        continue;
      }
      const auto* ds =
          std::get_if<dns::DsRdata>(&dlv_rrset->records().front().rdata);
      if (ds == nullptr) continue;
      outcome.found = true;
      outcome.ds = *ds;
      outcome.matched_domain = candidate_domain;
      trace_event(obs::EventKind::kDlvLookup, candidate, dns::RRType::kDlv,
                  "found", registry->endpoint_id());
      return outcome;
    }

    // "No such name" (or NODATA): verify the denial proof, cache it, then
    // keep stripping. NSEC3 denial is the attack hot path — the proof check
    // hashes the candidate's ancestor chain at the zone's iteration count
    // and charges that CPU to the virtual clock, unless the RFC 9276 cap
    // already disposed of the proof without hashing.
    switch (handle_nsec3_denial(authority, candidate, dns::RRType::kDlv, apex,
                                dlv_keys)) {
      case Nsec3Policy::kRejected:
        if (config_.nsec3_strict) {
          result.dlv.nsec3_rejected = true;
          return outcome;  // fail closed: no deeper candidates either
        }
        continue;  // unproven denial: do not cache, keep stripping
      case Nsec3Policy::kNone:
      case Nsec3Policy::kAccepted:
      case Nsec3Policy::kDowngraded:
        break;
    }
    const std::uint32_t denial_ttl = soa_negative_ttl(authority);
    const bool nxdomain_denial =
        response->header.rcode == dns::RCode::kNxDomain;
    if (!config_.aggressive_synthesis) {
      // Paper-era order: exact negative entry first, then validated spans.
      cache_.store_negative(candidate, dns::RRType::kDlv, denial_ttl,
                            nxdomain_denial);
      dlv_denial_deadline_.get_or_insert(candidate) =
          network_->clock().now_us() +
          static_cast<std::uint64_t>(denial_ttl) * 1'000'000ULL;
      if (dlv_keys != nullptr) {
        cache_validated_nsecs(authority, apex, *dlv_keys);
      }
    } else {
      // RFC 8198 profile: cache the validated spans first, then skip the
      // redundant exact negative entry when a live span (or NSEC3
      // evidence, cached by handle_nsec3_denial above) already covers the
      // candidate — the span both answers and suppresses, so the exact
      // entry would only add eviction pressure. This is what bends the
      // cap-sweep Case-2 curve down under tight caps.
      if (dlv_keys != nullptr) {
        cache_validated_nsecs(authority, apex, *dlv_keys);
      }
      const ProofResult covered = cache_.find_denial(
          apex, candidate, dns::RRType::kDlv,
          DenialSources::kSpans | DenialSources::kNsec3);
      if (covered.hash_ops > 0) charge_nsec3_cost(covered.hash_ops);
      if (covered) {
        stats_.add("cache.negative_elided");
        dlv_denial_deadline_.get_or_insert(candidate) = covered.expires_us;
      } else {
        cache_.store_negative(candidate, dns::RRType::kDlv, denial_ttl,
                              nxdomain_denial);
        dlv_denial_deadline_.get_or_insert(candidate) =
            network_->clock().now_us() +
            static_cast<std::uint64_t>(denial_ttl) * 1'000'000ULL;
      }
    }
  }
  return outcome;
}

std::optional<bool> RecursiveResolver::fetch_txt_signal(
    const dns::Name& domain, int depth) {
  Fetched fetched = fetch(domain, dns::RRType::kTxt, depth + 1);
  if (fetched.kind != Fetched::Kind::kAnswer) return std::nullopt;
  for (const dns::RRset& rrset : fetched.answer_rrsets()) {
    if (rrset.type() != dns::RRType::kTxt) continue;
    for (const dns::ResourceRecord& record : rrset.records()) {
      const auto* txt = std::get_if<dns::TxtRdata>(&record.rdata);
      if (txt == nullptr) continue;
      for (const std::string& s : txt->strings) {
        if (s == "dlv=1") return true;
        if (s == "dlv=0") return false;
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Front door
// ---------------------------------------------------------------------------

ResolveResult RecursiveResolver::resolve(const Query& query) {
  const dns::Name& qname = query.name;
  const dns::RRType qtype = query.type;
  // The CD bit turns off validation (and with it DLV look-aside) for this
  // one resolution; everything else runs unchanged.
  const bool validate =
      config_.validation_enabled() && !query.options.checking_disabled;
  const bool look_aside =
      config_.dlv_enabled() && !query.options.checking_disabled;

  ResolveResult result;
  current_ = &result;

  std::uint64_t span_id = 0;
  std::uint64_t span_start_us = 0;
  bool pushed_query_context = false;
  if (tracer_ != nullptr) {
    span_id = tracer_->begin_span();
    span_start_us = tracer_->now_us();
    // Direct resolutions (no serve frontend) mint their own trace context
    // from the span id, so every event still carries a usable query_id.
    if (!tracer_->in_query()) {
      tracer_->push_query(span_id, /*client=*/0);
      pushed_query_context = true;
    }
    result.trace_span_id = span_id;
    trace_event(obs::EventKind::kStubQuery, qname, qtype, {});
  }

  result.response.header.qr = true;
  result.response.header.ra = true;
  result.response.questions.push_back(
      dns::Question{qname, qtype, dns::RRClass::kIn});

  dns::Name current_name = qname;
  int chased = 0;
  // RFC 2308 §7: a recent resolution failure for this tuple is answered
  // from the SERVFAIL cache without touching the network again.
  const bool servfail_cached =
      config_.servfail_ttl > 0 && cache_.find_servfail(qname, qtype);
  if (servfail_cached) {
    result.response.header.rcode = dns::RCode::kServFail;
    result.status = ValidationStatus::kIndeterminate;
    result.from_cache = true;
    stats_.add("servfail.cache_hit");
    trace_event(obs::EventKind::kCacheHit, qname, qtype, "servfail");
  }
  while (!servfail_cached) {
    Fetched fetched = fetch(current_name, qtype, 0);
    result.from_cache = fetched.from_cache;

    if (fetched.kind == Fetched::Kind::kFail) {
      result.response.header.rcode = dns::RCode::kServFail;
      result.status = ValidationStatus::kIndeterminate;
      if (config_.servfail_ttl > 0) {
        cache_.store_servfail(current_name, qtype, config_.servfail_ttl);
        stats_.add("servfail.cached");
      }
      break;
    }
    if (fetched.kind == Fetched::Kind::kNxDomain ||
        fetched.kind == Fetched::Kind::kNoData) {
      result.response.header.rcode = fetched.kind == Fetched::Kind::kNxDomain
                                         ? dns::RCode::kNxDomain
                                         : dns::RCode::kNoError;
      result.status =
          validate ? validate_response(fetched, current_name, qtype, 0)
                   : ValidationStatus::kIndeterminate;
      if (result.status == ValidationStatus::kBogus) {
        cache_.forget(current_name, qtype);
        result.response.header.rcode = dns::RCode::kServFail;
        result.response.answers.clear();
      }
      break;
    }

    // kAnswer.
    ValidationStatus leg_status =
        validate ? validate_response(fetched, current_name, qtype, 0)
                 : ValidationStatus::kIndeterminate;

    // RFC 5074: look aside when the chain of trust did not conclude secure.
    if (look_aside && !fetched.from_cache &&
        (leg_status == ValidationStatus::kInsecure ||
         leg_status == ValidationStatus::kIndeterminate)) {
      bool consult_dlv = true;
      if (config_.honor_z_bit_signal && !fetched.z_bit) {
        consult_dlv = false;
        result.dlv.suppressed_by_signal = true;
        trace_event(obs::EventKind::kDlvLookup, current_name, qtype,
                    "suppressed-zbit");
      }
      if (consult_dlv && config_.honor_txt_dlv_signal) {
        const std::optional<bool> signal =
            fetch_txt_signal(current_name, 0);
        if (signal.has_value() && !*signal) {
          consult_dlv = false;
          result.dlv.suppressed_by_signal = true;
          trace_event(obs::EventKind::kDlvLookup, current_name, qtype,
                      "suppressed-txt");
        }
      }
      if (consult_dlv) {
        const DlvOutcome dlv = dlv_lookup(current_name, result, 0);
        if (dlv.found) {
          result.dlv.record_found = true;
          dns::RRset anchor_keys;
          ValidationStatus via_dlv = validate_zone_keys(
              dlv.matched_domain, &dlv.ds, nullptr, 0, &anchor_keys);
          if (via_dlv == ValidationStatus::kSecure &&
              dlv.matched_domain != fetched.auth_zone) {
            via_dlv = validate_descent(dlv.matched_domain,
                                       std::move(anchor_keys),
                                       fetched.auth_zone, 0, &anchor_keys);
          }
          if (via_dlv == ValidationStatus::kSecure) {
            bool all_valid = true;
            for (const dns::RRset& rrset : fetched.answer_rrsets()) {
              if (validator_.verify_rrset(rrset, fetched.answer_rrsigs(),
                                          anchor_keys) != SigCheck::kValid) {
                all_valid = false;
                break;
              }
            }
            leg_status = all_valid ? ValidationStatus::kSecure
                                   : ValidationStatus::kBogus;
            result.dlv.secured = all_valid;
          } else if (via_dlv == ValidationStatus::kBogus) {
            leg_status = ValidationStatus::kBogus;
          }
        } else if (result.dlv.nsec3_rejected) {
          // RFC 9276 strict mode: an over-cap (or unprovable) NSEC3 denial
          // is not trusted, and with strict policy the resolution fails
          // closed instead of degrading to insecure.
          leg_status = ValidationStatus::kBogus;
        } else if (result.dlv.timed_out && config_.dlv_must_be_secure) {
          // `dnssec-must-be-secure` semantics: an unreachable registry is
          // not proof of absence, so the resolution fails closed instead of
          // degrading to insecure (§8.4 availability trade-off).
          leg_status = ValidationStatus::kBogus;
        }
      }
    }

    result.status = leg_status;
    if (leg_status == ValidationStatus::kBogus) {
      // Data that failed validation must not come back from the cache,
      // where it would read insecure. Forgetting a lent RRset frees it, so
      // its key is copied first.
      for (const dns::RRset& rrset : fetched.answer_rrsets()) {
        const dns::Name name = rrset.name();
        cache_.forget(name, rrset.type());
      }
      result.response.header.rcode = dns::RCode::kServFail;
      result.response.answers.clear();
      break;
    }
    if (leg_status == ValidationStatus::kSecure) {
      for (const dns::RRset& rrset : fetched.answer_rrsets()) {
        cache_.mark_validated(rrset.name(), rrset.type());
      }
    }

    // Fill the answer once, records first and then signatures: a lent
    // answer is copied, a fresh one is fetched's own and moves. A plain
    // stub is never shown DNSSEC records, so none is copied for it. A CNAME
    // answer without the type asked for is chased; its target is read
    // before the records move.
    const auto shown = [&query](dns::RRType type) {
      return query.options.dnssec_ok || !hidden_from_plain_stub(type);
    };
    std::size_t shown_count =
        shown(dns::RRType::kRrsig) ? fetched.answer_rrsigs().size() : 0;
    const dns::RRset* cname_rrset = nullptr;
    bool has_qtype = false;
    for (const dns::RRset& rrset : fetched.answer_rrsets()) {
      if (shown(rrset.type())) shown_count += rrset.size();
      if (rrset.type() == dns::RRType::kCname && qtype != dns::RRType::kCname) {
        cname_rrset = &rrset;
      }
      has_qtype |= rrset.name() == current_name && rrset.type() == qtype;
    }
    std::optional<dns::Name> cname_target;
    if (cname_rrset != nullptr && !has_qtype) {
      cname_target =
          std::get<dns::CnameRdata>(cname_rrset->records().front().rdata)
              .target;
    }

    std::vector<dns::ResourceRecord>& answers = result.response.answers;
    answers.reserve(answers.size() + shown_count);
    if (fetched.lent.rrset != nullptr) {
      if (shown(fetched.lent.rrset->type())) {
        append(answers, fetched.lent.rrset->records());
      }
      if (shown(dns::RRType::kRrsig)) append(answers, *fetched.lent.rrsigs);
    } else {
      for (dns::RRset& rrset : fetched.answer.rrsets) {
        if (shown(rrset.type())) {
          append(answers, std::move(rrset).take_records());
        }
      }
      if (shown(dns::RRType::kRrsig)) {
        append(answers, std::move(fetched.answer.rrsigs));
      }
    }

    if (cname_target.has_value()) {
      if (++chased > kMaxCnameDepth) {
        result.response.header.rcode = dns::RCode::kServFail;
        break;
      }
      current_name = std::move(*cname_target);
      continue;
    }

    // Optional NS refresh fetch (models BIND re-querying the child zone's
    // authoritative NS set after resolving through a referral; contributes
    // the paper's Table 4 NS query counts). The parent-side NS set learned
    // from the referral is deliberately not trusted as authoritative.
    if (!fetched.from_cache && !fetched.auth_zone.is_root() &&
        ns_fetch_coin(fetched.auth_zone)) {
      const dns::Message ns_query = dns::Message::make_query(
          next_id_++, fetched.auth_zone, dns::RRType::kNs,
          /*recursion_desired=*/false,
          config_.validation_enabled() || config_.dlv_enabled());
      if (sim::Endpoint* server =
              directory_->authority_for_zone(fetched.auth_zone)) {
        (void)exchange_with_retry(*server, ns_query, config_.retry);
      }
    }
    break;
  }

  // Plain stub (DO=0): no AD bit, and the answer was filled without
  // DNSSEC records (paper §2.2: "If the DO bit is set in the initial query
  // from a stub, AD will be set").
  result.response.header.ad =
      query.options.dnssec_ok && result.status == ValidationStatus::kSecure;

  if (tracer_ != nullptr) {
    trace_event(obs::EventKind::kValidation, qname, qtype,
                status_name(result.status));
    obs::Event done;
    done.kind = obs::EventKind::kResponse;
    done.name = qname.to_text();
    done.qtype = qtype;
    done.server = "recursive";
    done.rcode = result.response.header.rcode;
    done.latency_us = tracer_->now_us() - span_start_us;
    done.detail = status_name(result.status);
    tracer_->emit(std::move(done));
    tracer_->end_span(span_id);
  }

  current_ = nullptr;
  // Cache maintenance runs strictly between resolutions: eviction destroys
  // boxed entries, which ends every view the cache lent this resolution.
  // The response owns its records (copied from lent answers, moved from
  // fresh ones), so nothing in the result can dangle. The query context
  // stays pushed so eviction events are attributed to the resolution whose
  // tick they ran under, mirroring the serve frontend's still-open context.
  cache_.maintain();
  if (pushed_query_context) tracer_->pop_query();
  return result;
}

dns::Message RecursiveResolver::handle_query(const dns::Message& query) {
  // The wire header maps straight onto the v2 Query: DO becomes
  // options.dnssec_ok (plain stubs get a stripped answer), CD becomes
  // options.checking_disabled.
  const dns::Question& question = query.question();
  ResolveResult result = resolve(
      Query{question.name, question.type,
            QueryOptions{query.dnssec_ok, query.header.cd}});
  dns::Message response = std::move(result.response);
  response.header.id = query.header.id;
  response.header.rd = query.header.rd;
  response.header.cd = query.header.cd;
  response.edns = query.edns;
  response.dnssec_ok = query.dnssec_ok;
  return response;
}

}  // namespace lookaside::resolver
