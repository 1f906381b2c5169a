#include "dlv/registry.h"

#include "crypto/sha256.h"
#include "obs/tracer.h"

namespace lookaside::dlv {

namespace {

constexpr std::uint32_t kRecordTtl = 3600;

dns::SoaRdata registry_soa(const dns::Name& apex, std::uint32_t negative_ttl) {
  dns::SoaRdata soa;
  soa.primary_ns = apex.with_prefix_label("ns");
  soa.responsible = apex.with_prefix_label("hostmaster");
  soa.serial = 2026070500;
  soa.refresh = 7200;
  soa.retry = 3600;
  soa.expire = 1209600;
  soa.minimum_ttl = negative_ttl;
  return soa;
}

zone::Zone make_empty_zone(const DlvRegistry::Options& options) {
  zone::Zone out(options.apex, registry_soa(options.apex, options.negative_ttl),
                 kRecordTtl);
  out.add(dns::ResourceRecord::make(
      options.apex, kRecordTtl,
      dns::NsRdata{options.apex.with_prefix_label("ns")}));
  return out;
}

}  // namespace

DlvRegistry::DlvRegistry(Options options) : options_(std::move(options)) {
  crypto::SplitMix64 rng(options_.seed);
  keys_ = zone::ZoneKeys::generate(options_.key_bits, rng);
  rebuild_zone();
}

void DlvRegistry::rebuild_zone() {
  zone_ = std::make_shared<zone::SignedZone>(make_empty_zone(options_), *keys_);
  if (options_.nsec3_enabled) {
    zone_->enable_nsec3(
        zone::Nsec3Params{options_.nsec3_iterations, options_.nsec3_salt});
  }
  authority_ = std::make_unique<server::ZoneAuthority>(endpoint_id(), zone_);
}

dns::Name clear_dlv_name(const dns::Name& domain, const dns::Name& apex) {
  return domain.concat(apex);
}

dns::Name hashed_dlv_name(const dns::Name& domain, const dns::Name& apex) {
  // One hex label of the truncated SHA-256 digest (128 bits is plenty to
  // avoid collisions and keeps the label under 63 octets).
  const crypto::Sha256::Digest digest =
      crypto::Sha256::digest(domain.to_text());
  return apex.with_prefix_label(
      crypto::to_hex(std::span(digest).first<16>()));
}

dns::Name DlvRegistry::dlv_name_for(const dns::Name& domain) const {
  return options_.hashed_registration
             ? hashed_dlv_name(domain, options_.apex)
             : clear_dlv_name(domain, options_.apex);
}

void DlvRegistry::deposit(const dns::Name& domain, dns::DsRdata ds) {
  zone_->add(dns::ResourceRecord::make_typed(dlv_name_for(domain),
                                            dns::RRType::kDlv, kRecordTtl,
                                            dns::Rdata{std::move(ds)}));
  ++record_count_;
}

bool DlvRegistry::has_record(const dns::Name& domain) const {
  return zone_->zone().find(dlv_name_for(domain), dns::RRType::kDlv) != nullptr;
}

void DlvRegistry::remove_all_records() {
  // Rebuilding keeps the signing keys (and NSEC3 mode) of the original zone.
  rebuild_zone();
  record_count_ = 0;
}

const dns::DnskeyRdata& DlvRegistry::trust_anchor() const {
  return keys_->ksk_record();
}

std::string DlvRegistry::endpoint_id() const {
  return "dlv:" + options_.apex.internal_text();
}

dns::Message DlvRegistry::handle_query(const dns::Message& query) {
  if (!query.questions.empty()) {
    const dns::Question& question = query.question();
    // Record what the operator can see. DNSKEY/SOA queries against the apex
    // are infrastructure, not leakage; everything else is observed.
    if (question.name != options_.apex) {
      Observation observation;
      observation.time_us = clock_ ? clock_->now_us() : 0;
      observation.query_name = question.name;
      observation.qtype = question.type;
      observation.had_record =
          zone_->zone().find(question.name, dns::RRType::kDlv) != nullptr;
      if (!options_.hashed_registration &&
          question.name.is_subdomain_of(options_.apex) &&
          question.name != options_.apex) {
        observation.domain = question.name.without_suffix(options_.apex);
      }
      ++total_queries_;
      if (observation.had_record) ++queries_with_record_;
      if (tracer_ != nullptr) {
        obs::Event event;
        event.time_us = observation.time_us;
        event.kind = obs::EventKind::kDlvObservation;
        event.name = observation.domain.is_root()
                         ? observation.query_name.to_text()
                         : observation.domain.to_text();
        event.server = endpoint_id();
        event.qtype = observation.qtype;
        event.detail = observation.had_record ? "1" : "2";
        tracer_->emit(std::move(event));
      }
      if (observer_) observer_(observation);
      if (store_observations_) observations_.push_back(std::move(observation));
    }
  }
  return authority_->handle_query(query);
}

}  // namespace lookaside::dlv
