#include "workload/universe_world.h"

#include <stdexcept>

#include "crypto/dnssec_algo.h"

namespace lookaside::workload {

namespace {

// TTLs of every synthetic record and of negative answers (SOA minimum).
constexpr std::uint32_t kRecordTtl = 3600;
constexpr std::uint32_t kNegativeTtl = 3600;
// SLD zones draw their keys from a pool of this many pairs.
constexpr std::size_t kKeyPoolSize = 8;

dns::SoaRdata synthetic_soa(const dns::Name& apex) {
  dns::SoaRdata soa;
  soa.primary_ns = apex.is_root() ? dns::Name::parse("a.root-servers.net")
                                  : apex.with_prefix_label("ns1");
  soa.responsible = apex.is_root() ? dns::Name::parse("nstld.verisign-grs.com")
                                   : apex.with_prefix_label("hostmaster");
  soa.serial = 2026070501;
  soa.refresh = 7200;
  soa.retry = 3600;
  soa.expire = 1209600;
  soa.minimum_ttl = kNegativeTtl;
  return soa;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint32_t synthetic_v4(const dns::Name& name) {
  return 0xCB007100u | static_cast<std::uint32_t>(fnv1a(name.internal_text()) & 0xFF);
}

dns::AaaaRdata synthetic_v6(const dns::Name& name) {
  dns::AaaaRdata out;
  out.address = {0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  const std::uint64_t hash = fnv1a(name.internal_text());
  for (int i = 0; i < 8; ++i) {
    out.address[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(hash >> (8 * i));
  }
  return out;
}

/// A label that sorts canonically just before `label` (for synthetic NSEC
/// owners) — drop the last character, or "0" for single-character labels.
std::string label_before(std::string_view label) {
  if (label.size() <= 1) return "0";
  return std::string(label.substr(0, label.size() - 1));
}

}  // namespace

// ---------------------------------------------------------------------------
// SyntheticSigner
// ---------------------------------------------------------------------------

SyntheticSigner::SyntheticSigner(dns::Name zone_apex, zone::ZoneKeys keys)
    : apex_(std::move(zone_apex)), keys_(std::move(keys)) {}

dns::RRset SyntheticSigner::dnskey_rrset() const {
  dns::RRset out(apex_, dns::RRType::kDnskey);
  out.add(dns::ResourceRecord::make(apex_, 3600, dns::Rdata{keys_.zsk_record()}));
  out.add(dns::ResourceRecord::make(apex_, 3600, dns::Rdata{keys_.ksk_record()}));
  return out;
}

dns::ResourceRecord SyntheticSigner::sign(const dns::RRset& rrset,
                                          bool with_ksk) {
  dns::RrsigRdata rrsig;
  rrsig.type_covered = rrset.type();
  rrsig.algorithm = 8;
  rrsig.labels = static_cast<std::uint8_t>(rrset.name().label_count());
  rrsig.original_ttl = rrset.ttl();
  rrsig.expiration = 0x7FFFFFFF;
  rrsig.inception = 0;
  rrsig.key_tag = with_ksk ? keys_.ksk_tag() : keys_.zsk_tag();
  rrsig.signer = apex_;

  const auto key = std::make_pair(rrset.name().internal_text(), rrset.type());
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    rrsig.signature = it->second;
  } else {
    const dns::Bytes data = dns::rrsig_signed_data(rrsig, rrset);
    const crypto::RsaPrivateKey& signer =
        with_ksk ? keys_.ksk_private() : keys_.zsk_private();
    rrsig.signature = crypto::sign_message(signer, data);
    cache_.emplace(key, rrsig.signature);
  }
  return dns::ResourceRecord::make(rrset.name(), rrset.ttl(), dns::Rdata{rrsig});
}

// ---------------------------------------------------------------------------
// Synthetic TLD authority
// ---------------------------------------------------------------------------

namespace {

/// Serves one TLD: referrals for universe SLDs (and provider SLDs under
/// .net), DS answers/denials, and signed negative responses.
class TldAuthority : public sim::Endpoint {
 public:
  TldAuthority(std::string tld, const Universe& universe,
               const zone::KeyPool& sld_keys, zone::ZoneKeys keys)
      : tld_(std::move(tld)),
        apex_(dns::Name::parse(tld_)),
        universe_(&universe),
        sld_keys_(&sld_keys),
        signer_(apex_, std::move(keys)) {}

  [[nodiscard]] std::string endpoint_id() const override {
    return "tld:" + tld_;
  }

  [[nodiscard]] dns::DsRdata ds_for_parent() const {
    return zone::make_ds(apex_, signer_.keys().ksk_record());
  }

  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override {
    dns::Message response = dns::Message::make_response(query);
    response.header.aa = true;
    const dns::Question& question = query.question();
    const bool want_dnssec = query.dnssec_ok;

    if (!question.name.is_subdomain_of(apex_)) {
      response.header.rcode = dns::RCode::kRefused;
      return response;
    }
    // Apex infrastructure.
    if (question.name == apex_) {
      if (question.type == dns::RRType::kDnskey) {
        append(response.answers, signer_.dnskey_rrset(), want_dnssec, true);
      } else if (question.type == dns::RRType::kSoa) {
        append(response.answers, soa_rrset(), want_dnssec);
      } else if (question.type == dns::RRType::kNs) {
        append(response.answers, apex_ns_rrset(), want_dnssec);
      } else {
        nodata(response, apex_, want_dnssec);
      }
      return response;
    }

    // Identify the SLD the query lives under.
    const dns::Name sld = sld_of(question.name);
    std::optional<DomainInfo> info = universe_->info_by_name(sld);
    const std::optional<std::uint64_t> provider = universe_->provider_of(sld);
    if (!info.has_value() && !provider.has_value()) {
      nxdomain(response, question.name, want_dnssec);
      return response;
    }

    // Parent-side DS handling at the cut.
    if (question.name == sld && question.type == dns::RRType::kDs) {
      if (info.has_value() && info->dnssec_signed && info->ds_in_parent) {
        append(response.answers, ds_rrset(*info), want_dnssec);
      } else {
        nodata(response, sld, want_dnssec);
      }
      return response;
    }

    // Referral to the child.
    response.header.aa = false;
    const dns::RRset ns = ns_rrset(sld, info, provider);
    append(response.authorities, ns, /*sign=*/false);
    if (want_dnssec) {
      if (info.has_value() && info->dnssec_signed && info->ds_in_parent) {
        append(response.authorities, ds_rrset(*info), true);
      } else {
        // Signed parent, unsigned delegation: NSEC proof of no DS.
        append_no_ds_proof(response, sld);
      }
    }
    // Glue for in-bailiwick nameservers.
    const bool in_bailiwick =
        provider.has_value() || (info.has_value() && info->glue);
    if (in_bailiwick) {
      const dns::Name host = sld.with_prefix_label("ns1");
      response.additionals.push_back(dns::ResourceRecord::make(
          host, kRecordTtl, dns::ARdata{synthetic_v4(host)}));
    }
    return response;
  }

 private:
  [[nodiscard]] dns::Name sld_of(const dns::Name& qname) const {
    dns::Name out = qname;
    while (out.label_count() > apex_.label_count() + 1) out = out.parent();
    return out;
  }

  [[nodiscard]] dns::RRset soa_rrset() const {
    dns::RRset out(apex_, dns::RRType::kSoa);
    out.add(dns::ResourceRecord::make(apex_, kRecordTtl, synthetic_soa(apex_)));
    return out;
  }

  [[nodiscard]] dns::RRset apex_ns_rrset() const {
    dns::RRset out(apex_, dns::RRType::kNs);
    out.add(dns::ResourceRecord::make(
        apex_, kRecordTtl, dns::NsRdata{apex_.with_prefix_label("ns1")}));
    return out;
  }

  [[nodiscard]] dns::RRset ns_rrset(const dns::Name& sld,
                                    const std::optional<DomainInfo>& info,
                                    std::optional<std::uint64_t> provider) const {
    dns::RRset out(sld, dns::RRType::kNs);
    dns::Name host;
    if (provider.has_value() || (info.has_value() && info->glue)) {
      host = sld.with_prefix_label("ns1");
    } else {
      host = universe_->provider_ns_host(info->provider);
    }
    out.add(dns::ResourceRecord::make(sld, kRecordTtl, dns::NsRdata{host}));
    return out;
  }

  [[nodiscard]] dns::RRset ds_rrset(const DomainInfo& info) const {
    dns::RRset out(info.name, dns::RRType::kDs);
    out.add(dns::ResourceRecord::make(
        info.name, kRecordTtl,
        dns::Rdata{zone::make_ds(
            info.name, sld_keys_->keys_for(info.rank).ksk_record())}));
    return out;
  }

  void append(std::vector<dns::ResourceRecord>& section, const dns::RRset& rrset,
              bool sign, bool with_ksk = false) {
    for (const dns::ResourceRecord& record : rrset.records()) {
      section.push_back(record);
    }
    if (sign) section.push_back(signer_.sign(rrset, with_ksk));
  }

  /// Signed NSEC at `owner` listing `types`. Its span ends at `0.<owner>`,
  /// before any name the universe serves beneath `owner`.
  void append_nsec(dns::Message& response, const dns::Name& owner,
                   std::vector<dns::RRType> types) {
    dns::NsecRdata nsec;
    nsec.next = owner.with_prefix_label("0");
    nsec.types = std::move(types);
    dns::RRset rrset(owner, dns::RRType::kNsec);
    rrset.add(
        dns::ResourceRecord::make(owner, kNegativeTtl, dns::Rdata{nsec}));
    append(response.authorities, rrset, true);
  }

  void append_no_ds_proof(dns::Message& response, const dns::Name& cut) {
    // NSEC at the cut itself: name exists, bitmap has NS only.
    append_nsec(response, cut,
                {dns::RRType::kNs, dns::RRType::kRrsig, dns::RRType::kNsec});
  }

  void nodata(dns::Message& response, const dns::Name& qname,
              bool want_dnssec) {
    append(response.authorities, soa_rrset(), want_dnssec);
    if (!want_dnssec) return;
    if (qname == apex_) {
      append_nsec(response, apex_,
                  {dns::RRType::kSoa, dns::RRType::kNs, dns::RRType::kDnskey,
                   dns::RRType::kRrsig, dns::RRType::kNsec});
    } else {
      append_no_ds_proof(response, qname);
    }
  }

  void nxdomain(dns::Message& response, const dns::Name& qname,
                bool want_dnssec) {
    response.header.rcode = dns::RCode::kNxDomain;
    append(response.authorities, soa_rrset(), want_dnssec);
    if (!want_dnssec) return;
    // Narrow covering NSEC around the missing SLD label.
    const dns::Name sld = sld_of(qname);
    const std::string_view label = sld.label(0);
    dns::NsecRdata nsec;
    nsec.next = apex_.with_prefix_label(std::string(label) + "0");
    nsec.types = {dns::RRType::kNs, dns::RRType::kRrsig, dns::RRType::kNsec};
    const dns::Name owner = apex_.with_prefix_label(label_before(label));
    dns::RRset rrset(owner, dns::RRType::kNsec);
    rrset.add(
        dns::ResourceRecord::make(owner, kNegativeTtl, dns::Rdata{nsec}));
    append(response.authorities, rrset, true);
  }

  std::string tld_;
  dns::Name apex_;
  const Universe* universe_;
  const zone::KeyPool* sld_keys_;
  SyntheticSigner signer_;
};

/// One shared endpoint impersonating every SLD authoritative server (and
/// the out-of-bailiwick provider SLDs).
class SldAuthority : public sim::Endpoint {
 public:
  SldAuthority(const Universe& universe, const zone::KeyPool& keys,
               const WorldOptions& options)
      : universe_(&universe), keys_(&keys), options_(&options) {}

  [[nodiscard]] std::string endpoint_id() const override {
    return "auth:universe";
  }

  [[nodiscard]] std::uint64_t latency_override_us(
      const dns::Message& query) const override {
    if (query.questions.empty()) return 0;
    const dns::Name sld = registrable(query.question().name);
    return (10 + fnv1a(sld.internal_text()) % 71) * 1000;
  }

  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override {
    dns::Message response = dns::Message::make_response(query);
    response.header.aa = true;
    const dns::Question& question = query.question();
    const bool want_dnssec = query.dnssec_ok;
    const dns::Name sld = registrable(question.name);

    // Provider nameserver zones: tiny unsigned zones with ns hosts.
    if (const auto provider = universe_->provider_of(sld)) {
      (void)provider;
      if (question.type == dns::RRType::kA &&
          (question.name == sld || question.name.label(0) == "ns1")) {
        response.answers.push_back(
            dns::ResourceRecord::make(question.name, kRecordTtl,
                                      dns::ARdata{synthetic_v4(question.name)}));
      } else {
        append_plain_soa(response, sld);
      }
      return response;
    }

    const std::optional<DomainInfo> info = universe_->info_by_name(sld);
    if (!info.has_value()) {
      response.header.rcode = dns::RCode::kRefused;
      return response;
    }
    // §6.2.1 Z-bit remedy: signal deposited DLV records on every answer.
    if (options_->z_bit_signaling && info->dlv_deposited) {
      response.header.z = true;
    }

    SyntheticSigner* signer =
        info->dnssec_signed ? signer_for(*info) : nullptr;

    const bool apex = question.name == sld;
    const bool known_host =
        apex || question.name.label(0) == "www" ||
        question.name.label(0) == "ns1";

    if (!known_host) {
      nxdomain(response, *info, signer, want_dnssec);
      return response;
    }

    switch (question.type) {
      case dns::RRType::kA: {
        answer_rrset(response, question.name, kRecordTtl,
                     dns::Rdata{dns::ARdata{synthetic_v4(question.name)}},
                     signer, want_dnssec);
        return response;
      }
      case dns::RRType::kAaaa: {
        answer_rrset(response, question.name, kRecordTtl,
                     dns::Rdata{synthetic_v6(question.name)}, signer,
                     want_dnssec);
        return response;
      }
      case dns::RRType::kNs: {
        if (!apex) break;
        const dns::Name host = info->glue
                                   ? sld.with_prefix_label("ns1")
                                   : universe_->provider_ns_host(info->provider);
        answer_rrset(response, sld, kRecordTtl,
                     dns::Rdata{dns::NsRdata{host}}, signer, want_dnssec);
        return response;
      }
      case dns::RRType::kTxt: {
        if (!apex || !options_->txt_signaling) break;
        answer_rrset(response, sld, kRecordTtl,
                     dns::Rdata{dns::TxtRdata{
                         {info->dlv_deposited ? "dlv=1" : "dlv=0"}}},
                     signer, want_dnssec);
        return response;
      }
      case dns::RRType::kSoa: {
        if (!apex) break;
        answer_rrset(response, sld, kRecordTtl,
                     dns::Rdata{synthetic_soa(sld)}, signer, want_dnssec);
        return response;
      }
      case dns::RRType::kDnskey: {
        if (!apex || signer == nullptr) break;
        const dns::RRset keys = signer->dnskey_rrset();
        for (const auto& record : keys.records()) {
          response.answers.push_back(record);
        }
        if (want_dnssec) {
          response.answers.push_back(signer->sign(keys, /*with_ksk=*/true));
        }
        return response;
      }
      default:
        break;
    }
    nodata(response, *info, question.name, signer, want_dnssec);
    return response;
  }

 private:
  [[nodiscard]] static dns::Name registrable(const dns::Name& qname) {
    dns::Name out = qname;
    while (out.label_count() > 2) out = out.parent();
    return out;
  }

  SyntheticSigner* signer_for(const DomainInfo& info) {
    auto it = signers_.find(info.rank);
    if (it == signers_.end()) {
      it = signers_
               .emplace(info.rank, std::make_unique<SyntheticSigner>(
                                       info.name, keys_->keys_for(info.rank)))
               .first;
    }
    return it->second.get();
  }

  void answer_rrset(dns::Message& response, const dns::Name& owner,
                    std::uint32_t ttl, dns::Rdata rdata,
                    SyntheticSigner* signer, bool want_dnssec) {
    dns::RRset rrset(owner, dns::rdata_type(rdata));
    rrset.add(dns::ResourceRecord::make(owner, ttl, std::move(rdata)));
    for (const auto& record : rrset.records()) {
      response.answers.push_back(record);
    }
    if (signer != nullptr && want_dnssec) {
      response.answers.push_back(signer->sign(rrset));
    }
  }

  void append_plain_soa(dns::Message& response, const dns::Name& sld) {
    response.authorities.push_back(
        dns::ResourceRecord::make(sld, kRecordTtl, synthetic_soa(sld)));
  }

  void append_signed_negative(dns::Message& response, const DomainInfo& info,
                              const dns::Name& qname, SyntheticSigner* signer,
                              bool want_dnssec, bool nxdomain) {
    dns::RRset soa(info.name, dns::RRType::kSoa);
    soa.add(dns::ResourceRecord::make(info.name, kRecordTtl,
                                      synthetic_soa(info.name)));
    for (const auto& record : soa.records()) {
      response.authorities.push_back(record);
    }
    if (signer == nullptr || !want_dnssec) return;
    response.authorities.push_back(signer->sign(soa));

    dns::NsecRdata nsec;
    dns::Name owner = qname;
    if (nxdomain) {
      owner = info.name.with_prefix_label(label_before(qname.label(0)));
      nsec.next = info.name.with_prefix_label(std::string(qname.label(0)) + "0");
      nsec.types = {dns::RRType::kA, dns::RRType::kRrsig, dns::RRType::kNsec};
    } else {
      nsec.next = qname.with_prefix_label("0");
      // The bitmap must list every type this authority answers at the name:
      // an aggressive-synthesis resolver (RFC 8198) will treat any omission
      // as a validated proof of absence and deny real data from cache.
      nsec.types = {dns::RRType::kA, dns::RRType::kAaaa};
      if (qname == info.name) {
        nsec.types.push_back(dns::RRType::kNs);
        nsec.types.push_back(dns::RRType::kSoa);
        if (options_->txt_signaling) nsec.types.push_back(dns::RRType::kTxt);
        if (signer != nullptr) nsec.types.push_back(dns::RRType::kDnskey);
      }
      nsec.types.push_back(dns::RRType::kRrsig);
      nsec.types.push_back(dns::RRType::kNsec);
    }
    dns::RRset nsec_set(owner, dns::RRType::kNsec);
    nsec_set.add(
        dns::ResourceRecord::make(owner, kNegativeTtl, dns::Rdata{nsec}));
    for (const auto& record : nsec_set.records()) {
      response.authorities.push_back(record);
    }
    response.authorities.push_back(signer->sign(nsec_set));
  }

  void nodata(dns::Message& response, const DomainInfo& info,
              const dns::Name& qname, SyntheticSigner* signer,
              bool want_dnssec) {
    append_signed_negative(response, info, qname, signer, want_dnssec,
                           /*nxdomain=*/false);
  }

  void nxdomain(dns::Message& response, const DomainInfo& info,
                SyntheticSigner* signer, bool want_dnssec) {
    response.header.rcode = dns::RCode::kNxDomain;
    append_signed_negative(response, info,
                           response.question().name, signer, want_dnssec,
                           /*nxdomain=*/true);
  }

  const Universe* universe_;
  const zone::KeyPool* keys_;
  const WorldOptions* options_;
  std::map<std::uint64_t, std::unique_ptr<SyntheticSigner>> signers_;
};

/// Unsigned reverse-lookup authority for in-addr.arpa.
class PtrAuthority : public sim::Endpoint {
 public:
  [[nodiscard]] std::string endpoint_id() const override { return "arpa"; }

  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override {
    dns::Message response = dns::Message::make_response(query);
    response.header.aa = true;
    const dns::Question& question = query.question();
    if (question.type == dns::RRType::kPtr) {
      const std::uint64_t hash = fnv1a(question.name.internal_text());
      response.answers.push_back(dns::ResourceRecord::make(
          question.name, kRecordTtl,
          dns::PtrRdata{dns::Name::parse(
              "host-" + std::to_string(hash % 100000) + ".access.example")}));
    } else {
      response.authorities.push_back(dns::ResourceRecord::make(
          dns::Name::parse("in-addr.arpa"), kRecordTtl,
          synthetic_soa(dns::Name::parse("in-addr.arpa"))));
    }
    return response;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// UniverseWorld
// ---------------------------------------------------------------------------

UniverseWorld::UniverseWorld(WorldOptions options)
    : options_(std::move(options)), universe_(options_.universe) {
  sld_keys_ = std::make_unique<zone::KeyPool>(
      kKeyPoolSize, options_.key_bits,
      crypto::derive_seed(options_.seed, 0xE11));

  // --- DLV registry populated from the deposit model. ---
  // Deposits arrive in the canonical order of their names; in clear-name
  // mode that is also the registry zone's order, so each lands at its end.
  dlv::DlvRegistry::Options dlv_options = options_.dlv;
  dlv_options.key_bits = options_.key_bits;
  registry_ = std::make_unique<dlv::DlvRegistry>(dlv_options);
  for (const std::uint64_t rank : universe_.deposits()) {
    const dns::Name domain = universe_.domain_at(rank);
    registry_->deposit(
        domain, zone::make_ds(domain, sld_keys_->keys_for(rank).ksk_record()));
  }

  // --- Root zone (real, signed). ---
  crypto::SplitMix64 root_rng(crypto::derive_seed(options_.seed, 1));
  zone::ZoneKeys root_keys =
      zone::ZoneKeys::generate(options_.key_bits, root_rng);
  root_anchor_ = root_keys.ksk_record();
  zone::Zone root_zone(dns::Name::root(), synthetic_soa(dns::Name::root()),
                       kRecordTtl);

  // --- TLD authorities. ---
  std::uint64_t label = 100;
  for (const std::string& tld : universe_.tlds()) {
    crypto::SplitMix64 rng(crypto::derive_seed(options_.seed, ++label));
    auto authority = std::make_shared<TldAuthority>(
        tld, universe_, *sld_keys_,
        zone::ZoneKeys::generate(options_.key_bits, rng));
    const dns::Name tld_name = dns::Name::parse(tld);
    const dns::Name ns_host = tld_name.with_prefix_label("ns1");
    root_zone.add(dns::ResourceRecord::make(tld_name, kRecordTtl,
                                            dns::NsRdata{ns_host}));
    root_zone.add(dns::ResourceRecord::make(
        ns_host, kRecordTtl, dns::ARdata{synthetic_v4(ns_host)}));
    root_zone.add(dns::ResourceRecord::make(
        tld_name, kRecordTtl, dns::Rdata{authority->ds_for_parent()}));
    directory_.register_zone(tld_name, authority);
    tld_authorities_.push_back(std::move(authority));
  }

  // in-addr.arpa: unsigned delegation from the root.
  const dns::Name arpa = dns::Name::parse("in-addr.arpa");
  root_zone.add(dns::ResourceRecord::make(
      arpa, kRecordTtl, dns::NsRdata{arpa.with_prefix_label("ns1")}));
  ptr_authority_ = std::make_shared<PtrAuthority>();
  directory_.register_zone(arpa, ptr_authority_);

  auto signed_root = std::make_shared<zone::SignedZone>(std::move(root_zone),
                                                        std::move(root_keys));
  root_authority_ = std::make_shared<server::ZoneAuthority>("root", signed_root);
  directory_.register_zone(dns::Name::root(), root_authority_);

  // --- Shared SLD authority via directory fallback. ---
  sld_authority_ =
      std::make_shared<SldAuthority>(universe_, *sld_keys_, options_);
  directory_.register_zone(registry_->apex(),
                           std::shared_ptr<sim::Endpoint>(
                               registry_.get(), [](sim::Endpoint*) {}));
  sim::Endpoint* sld_raw = sld_authority_.get();
  directory_.set_fallback([sld_raw](const dns::Name&) { return sld_raw; });
}

}  // namespace lookaside::workload
