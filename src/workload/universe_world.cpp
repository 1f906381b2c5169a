#include "workload/universe_world.h"

#include <map>

#include "crypto/fnv.h"
#include "server/testbed.h"
#include "zone/signer.h"

namespace lookaside::workload {

namespace {

using server::synthetic_soa;
using server::synthetic_v4;
using server::synthetic_v6;

// TTLs of every synthetic record and of negative answers (SOA minimum).
constexpr std::uint32_t kRecordTtl = 3600;
constexpr std::uint32_t kNegativeTtl = 3600;
// SLD zones draw their keys from a pool of this many pairs.
constexpr std::size_t kKeyPoolSize = 8;

/// A one-record RRset: every synthetic answer is a singleton.
dns::RRset single(const dns::Name& owner, dns::Rdata rdata) {
  dns::RRset out(owner, dns::rdata_type(rdata));
  out.add(dns::ResourceRecord::make(owner, kRecordTtl, std::move(rdata)));
  return out;
}

/// A label that sorts canonically just before `label` (for synthetic NSEC
/// owners) — drop the last character, or "0" for single-character labels.
std::string label_before(std::string_view label) {
  if (label.size() <= 1) return "0";
  return std::string(label.substr(0, label.size() - 1));
}

/// NSEC denying the missing `label` under `zone`: an RFC 4470 "white lie"
/// spanning from a name just before the label to one just after it.
/// Missing labels that differ only in their last character share its
/// owner, with a different next name each.
dns::RRset white_lie_nsec(const dns::Name& zone, std::string_view label,
                          std::vector<dns::RRType> types) {
  return zone::nsec_rrset(zone.with_prefix_label(label_before(label)),
                          zone.with_prefix_label(std::string(label) + "0"),
                          std::move(types), kNegativeTtl);
}

/// NSEC at the existing `owner` listing `types`. Its span ends at
/// `0.<owner>`, before any name the universe serves beneath `owner`.
dns::RRset nodata_nsec(const dns::Name& owner, std::vector<dns::RRType> types) {
  return zone::nsec_rrset(owner, owner.with_prefix_label("0"),
                          std::move(types), kNegativeTtl);
}

// ---------------------------------------------------------------------------
// Synthetic TLD authority
// ---------------------------------------------------------------------------

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
    return signer_.ds_for_parent();
  }

  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override {
    dns::Message response = dns::Message::make_response(query);
    response.header.aa = true;
    const dns::Question& question = query.question();
    zone::Signer* signer = query.dnssec_ok ? &signer_ : nullptr;

    if (!question.name.is_subdomain_of(apex_)) {
      response.header.rcode = dns::RCode::kRefused;
      return response;
    }
    // Apex infrastructure.
    if (question.name == apex_) {
      if (question.type == dns::RRType::kDnskey) {
        zone::append(response.answers, signer_.dnskey_rrset(), signer);
      } else if (question.type == dns::RRType::kSoa) {
        zone::append(response.answers, single(apex_, synthetic_soa(apex_)),
                     signer);
      } else if (question.type == dns::RRType::kNs) {
        zone::append(response.answers,
                     single(apex_, dns::NsRdata{apex_.with_prefix_label("ns1")}),
                     signer);
      } else {
        nodata(response, apex_, signer);
      }
      return response;
    }

    // Identify the SLD the query lives under.
    const dns::Name sld = sld_of(question.name);
    std::optional<DomainInfo> info = universe_->info_by_name(sld);
    const std::optional<std::uint64_t> provider = universe_->provider_of(sld);
    if (!info.has_value() && !provider.has_value()) {
      response.header.rcode = dns::RCode::kNxDomain;
      zone::append(response.authorities, single(apex_, synthetic_soa(apex_)),
                   signer);
      if (signer != nullptr) {
        zone::append(response.authorities,
                     white_lie_nsec(apex_, sld.label(0),
                                    {dns::RRType::kNs, dns::RRType::kRrsig,
                                     dns::RRType::kNsec}),
                     signer);
      }
      return response;
    }
    const bool chained =
        info.has_value() && info->dnssec_signed && info->ds_in_parent;

    // Parent-side DS handling at the cut.
    if (question.name == sld && question.type == dns::RRType::kDs) {
      if (chained) {
        zone::append(response.answers, ds_rrset(*info), signer);
      } else {
        nodata(response, sld, signer);
      }
      return response;
    }

    // Referral to the child.
    response.header.aa = false;
    const bool in_bailiwick =
        provider.has_value() || (info.has_value() && info->glue);
    const dns::Name host = in_bailiwick
                               ? sld.with_prefix_label("ns1")
                               : universe_->provider_ns_host(info->provider);
    zone::append(response.authorities, single(sld, dns::NsRdata{host}),
                 nullptr);
    if (signer != nullptr) {
      // The DS RRset, or for an unsigned delegation the NSEC proving none.
      zone::append(response.authorities,
                   chained ? ds_rrset(*info) : no_ds_nsec(sld), signer);
    }
    if (in_bailiwick) {
      zone::append(response.additionals,
                   single(host, dns::ARdata{synthetic_v4(host)}), nullptr);
    }
    return response;
  }

 private:
  [[nodiscard]] dns::Name sld_of(const dns::Name& qname) const {
    dns::Name out = qname;
    while (out.label_count() > apex_.label_count() + 1) out = out.parent();
    return out;
  }

  [[nodiscard]] dns::RRset ds_rrset(const DomainInfo& info) const {
    return single(info.name,
                  zone::make_ds(info.name,
                                sld_keys_->keys_for(info.rank).ksk_record()));
  }

  /// NSEC at the cut itself: the name exists, its bitmap has NS only.
  [[nodiscard]] static dns::RRset no_ds_nsec(const dns::Name& cut) {
    return nodata_nsec(
        cut, {dns::RRType::kNs, dns::RRType::kRrsig, dns::RRType::kNsec});
  }

  void nodata(dns::Message& response, const dns::Name& qname,
              zone::Signer* signer) {
    zone::append(response.authorities, single(apex_, synthetic_soa(apex_)),
                 signer);
    if (signer == nullptr) return;
    zone::append(response.authorities,
                 qname == apex_
                     ? nodata_nsec(apex_, {dns::RRType::kSoa, dns::RRType::kNs,
                                           dns::RRType::kDnskey,
                                           dns::RRType::kRrsig,
                                           dns::RRType::kNsec})
                     : no_ds_nsec(qname),
                 signer);
  }

  std::string tld_;
  dns::Name apex_;
  const Universe* universe_;
  const zone::KeyPool* sld_keys_;
  zone::Signer signer_;
};

// ---------------------------------------------------------------------------
// Synthetic SLD authority
// ---------------------------------------------------------------------------

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
    return (10 + crypto::fnv1a(sld.internal_text()) % 71) * 1000;
  }

  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override {
    dns::Message response = dns::Message::make_response(query);
    response.header.aa = true;
    const dns::Question& question = query.question();
    const dns::Name sld = registrable(question.name);

    // Provider nameserver zones: tiny unsigned zones with ns hosts.
    if (universe_->provider_of(sld).has_value()) {
      if (question.type == dns::RRType::kA &&
          (question.name == sld || question.name.label(0) == "ns1")) {
        zone::append(response.answers,
                     single(question.name,
                            dns::ARdata{synthetic_v4(question.name)}),
                     nullptr);
      } else {
        zone::append(response.authorities, single(sld, synthetic_soa(sld)),
                     nullptr);
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

    // The zone's signer, and the one for this answer (null unless DO=1).
    zone::Signer* zone_signer =
        info->dnssec_signed ? &signer_for(*info) : nullptr;
    zone::Signer* signer = query.dnssec_ok ? zone_signer : nullptr;

    const bool apex = question.name == sld;
    const bool known_host =
        apex || question.name.label(0) == "www" ||
        question.name.label(0) == "ns1";

    if (!known_host) {
      negative(response, *info, question.name, signer, /*nxdomain=*/true);
      return response;
    }

    switch (question.type) {
      case dns::RRType::kA:
        zone::append(response.answers,
                     single(question.name,
                            dns::ARdata{synthetic_v4(question.name)}),
                     signer);
        return response;
      case dns::RRType::kAaaa:
        zone::append(response.answers,
                     single(question.name, synthetic_v6(question.name)),
                     signer);
        return response;
      case dns::RRType::kNs: {
        if (!apex) break;
        const dns::Name host = info->glue
                                   ? sld.with_prefix_label("ns1")
                                   : universe_->provider_ns_host(info->provider);
        zone::append(response.answers, single(sld, dns::NsRdata{host}),
                     signer);
        return response;
      }
      case dns::RRType::kTxt:
        if (!apex || !options_->txt_signaling) break;
        zone::append(response.answers,
                     single(sld, dns::TxtRdata{{info->dlv_deposited
                                                    ? "dlv=1"
                                                    : "dlv=0"}}),
                     signer);
        return response;
      case dns::RRType::kSoa:
        if (!apex) break;
        zone::append(response.answers, single(sld, synthetic_soa(sld)),
                     signer);
        return response;
      case dns::RRType::kDnskey:
        if (!apex || zone_signer == nullptr) break;
        zone::append(response.answers, zone_signer->dnskey_rrset(), signer);
        return response;
      default:
        break;
    }
    negative(response, *info, question.name, signer, /*nxdomain=*/false);
    return response;
  }

 private:
  [[nodiscard]] static dns::Name registrable(const dns::Name& qname) {
    dns::Name out = qname;
    while (out.label_count() > 2) out = out.parent();
    return out;
  }

  zone::Signer& signer_for(const DomainInfo& info) {
    return signers_
        .try_emplace(info.rank, info.name, keys_->keys_for(info.rank))
        .first->second;
  }

  /// The SOA and, when signing, the NSEC denying `qname` (nxdomain) or its
  /// queried type, each followed by its RRSIG.
  void negative(dns::Message& response, const DomainInfo& info,
                const dns::Name& qname, zone::Signer* signer, bool nxdomain) {
    if (nxdomain) response.header.rcode = dns::RCode::kNxDomain;
    zone::append(response.authorities,
                 single(info.name, synthetic_soa(info.name)), signer);
    if (signer == nullptr) return;
    if (nxdomain) {
      zone::append(response.authorities,
                   white_lie_nsec(info.name, qname.label(0),
                                  {dns::RRType::kA, dns::RRType::kRrsig,
                                   dns::RRType::kNsec}),
                   signer);
      return;
    }
    // The bitmap must list every type this authority answers at the name:
    // an aggressive-synthesis resolver (RFC 8198) will treat any omission
    // as a validated proof of absence and deny real data from cache.
    std::vector<dns::RRType> types = {dns::RRType::kA, dns::RRType::kAaaa};
    if (qname == info.name) {
      types.push_back(dns::RRType::kNs);
      types.push_back(dns::RRType::kSoa);
      if (options_->txt_signaling) types.push_back(dns::RRType::kTxt);
      types.push_back(dns::RRType::kDnskey);
    }
    types.push_back(dns::RRType::kRrsig);
    types.push_back(dns::RRType::kNsec);
    zone::append(response.authorities, nodata_nsec(qname, std::move(types)),
                 signer);
  }

  const Universe* universe_;
  const zone::KeyPool* keys_;
  const WorldOptions* options_;
  std::map<std::uint64_t, zone::Signer> signers_;  // by rank
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
      const std::uint64_t hash = crypto::fnv1a(question.name.internal_text());
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
