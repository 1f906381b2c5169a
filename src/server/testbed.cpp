#include "server/testbed.h"

#include <set>
#include <stdexcept>

#include "crypto/fnv.h"

namespace lookaside::server {

namespace {

constexpr std::uint32_t kRecordTtl = 3600;

}  // namespace

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
  soa.minimum_ttl = 3600;
  return soa;
}

std::uint32_t synthetic_v4(const dns::Name& name) {
  // 203.0.113.0/24 (TEST-NET-3).
  return 0xCB007100u |
         static_cast<std::uint32_t>(crypto::fnv1a(name.internal_text()) & 0xFF);
}

dns::AaaaRdata synthetic_v6(const dns::Name& name) {
  // 2001:db8::/64 (documentation prefix), the hash in the interface id.
  dns::AaaaRdata out;
  out.address = {0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  const std::uint64_t hash = crypto::fnv1a(name.internal_text());
  for (int i = 0; i < 8; ++i) {
    out.address[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(hash >> (8 * i));
  }
  return out;
}

Testbed::Testbed(TestbedOptions options, const std::vector<SldSpec>& slds) {
  crypto::SplitMix64 seeder(options.seed);

  // Collect the TLD set.
  std::set<std::string> tld_set;
  for (const SldSpec& spec : slds) {
    const dns::Name name = dns::Name::parse(spec.name);
    if (name.label_count() < 2) {
      throw std::invalid_argument("SLD must have at least two labels: " +
                                  spec.name);
    }
    tld_set.insert(std::string(name.label(name.label_count() - 1)));
  }

  // --- Root zone (always signed; the paper's world post-2010). ---
  zone::Zone root_zone(dns::Name::root(), synthetic_soa(dns::Name::root()),
                       kRecordTtl);
  crypto::SplitMix64 root_rng(crypto::derive_seed(options.seed, 0));
  zone::ZoneKeys root_keys =
      zone::ZoneKeys::generate(options.key_bits, root_rng);
  root_ksk_ = root_keys.ksk_record();

  // --- Build SLD zones first so TLDs can host their DS records. ---
  struct BuiltSld {
    SldSpec spec;
    dns::Name name;
    std::shared_ptr<ZoneAuthority> authority;
    std::shared_ptr<zone::SignedZone> signed_zone;
  };
  std::vector<BuiltSld> built;
  std::uint64_t key_label = 100;
  for (const SldSpec& spec : slds) {
    const dns::Name name = dns::Name::parse(spec.name);
    zone::Zone sld_zone(name, synthetic_soa(name), kRecordTtl);
    const dns::Name ns_host = name.with_prefix_label("ns1");
    sld_zone.add(dns::ResourceRecord::make(name, kRecordTtl,
                                           dns::NsRdata{ns_host}));
    sld_zone.add(dns::ResourceRecord::make(ns_host, kRecordTtl,
                                           dns::ARdata{synthetic_v4(ns_host)}));
    sld_zone.add(dns::ResourceRecord::make(name, kRecordTtl,
                                           dns::ARdata{synthetic_v4(name)}));
    sld_zone.add(dns::ResourceRecord::make(name, kRecordTtl,
                                           synthetic_v6(name)));
    for (const std::string& host : spec.extra_hosts) {
      const dns::Name host_name = name.with_prefix_label(host);
      sld_zone.add(dns::ResourceRecord::make(
          host_name, kRecordTtl, dns::ARdata{synthetic_v4(host_name)}));
    }

    BuiltSld entry;
    entry.spec = spec;
    entry.name = name;
    if (spec.dnssec_signed) {
      crypto::SplitMix64 rng(crypto::derive_seed(options.seed, ++key_label));
      auto signed_zone = std::make_shared<zone::SignedZone>(
          std::move(sld_zone), zone::ZoneKeys::generate(options.key_bits, rng));
      signed_zone->signer().set_corrupt_signatures(spec.corrupt_signatures);
      entry.signed_zone = signed_zone;
      entry.authority = std::make_shared<ZoneAuthority>(
          "auth:" + spec.name, signed_zone);
      signed_slds_[spec.name] = signed_zone;
    } else {
      entry.authority = std::make_shared<ZoneAuthority>(
          "auth:" + spec.name, std::make_shared<zone::Zone>(std::move(sld_zone)));
    }
    built.push_back(std::move(entry));
    sld_names_.push_back(spec.name);
  }

  // --- TLD zones with delegations (and DS where registered). ---
  std::uint64_t tld_label = 10;
  for (const std::string& tld : tld_set) {
    const dns::Name tld_name = dns::Name::parse(tld);
    zone::Zone tld_zone(tld_name, synthetic_soa(tld_name), kRecordTtl);
    const dns::Name tld_ns = tld_name.with_prefix_label("ns1");
    tld_zone.add(dns::ResourceRecord::make(tld_name, kRecordTtl,
                                           dns::NsRdata{tld_ns}));
    tld_zone.add(dns::ResourceRecord::make(tld_ns, kRecordTtl,
                                           dns::ARdata{synthetic_v4(tld_ns)}));
    for (const BuiltSld& entry : built) {
      if (entry.name.parent() != tld_name) continue;
      const dns::Name ns_host = entry.name.with_prefix_label("ns1");
      tld_zone.add(dns::ResourceRecord::make(entry.name, kRecordTtl,
                                             dns::NsRdata{ns_host}));
      tld_zone.add(dns::ResourceRecord::make(
          ns_host, kRecordTtl, dns::ARdata{synthetic_v4(ns_host)}));
      if (entry.spec.dnssec_signed && entry.spec.ds_in_parent) {
        tld_zone.add(dns::ResourceRecord::make(
            entry.name, kRecordTtl,
            dns::Rdata{entry.signed_zone->signer().ds_for_parent()}));
      }
    }

    crypto::SplitMix64 rng(crypto::derive_seed(options.seed, ++tld_label));
    auto signed_tld = std::make_shared<zone::SignedZone>(
        std::move(tld_zone), zone::ZoneKeys::generate(options.key_bits, rng));

    // Root delegation + DS for the (signed) TLD.
    const dns::Name root_ns_host = tld_name.with_prefix_label("ns1");
    root_zone.add(dns::ResourceRecord::make(tld_name, kRecordTtl,
                                            dns::NsRdata{root_ns_host}));
    root_zone.add(dns::ResourceRecord::make(
        root_ns_host, kRecordTtl, dns::ARdata{synthetic_v4(root_ns_host)}));
    root_zone.add(dns::ResourceRecord::make(
        tld_name, kRecordTtl,
        dns::Rdata{signed_tld->signer().ds_for_parent()}));

    auto authority = std::make_shared<ZoneAuthority>("tld:" + tld, signed_tld);
    authorities_[tld] = authority;
    directory_.register_zone(tld_name, authority);
  }

  auto signed_root = std::make_shared<zone::SignedZone>(std::move(root_zone),
                                                        std::move(root_keys));
  auto root_authority = std::make_shared<ZoneAuthority>("root", signed_root);
  authorities_[""] = root_authority;
  directory_.register_zone(dns::Name::root(), root_authority);

  for (BuiltSld& entry : built) {
    authorities_[entry.spec.name] = entry.authority;
    directory_.register_zone(entry.name, entry.authority);
  }
}

const dns::DnskeyRdata& Testbed::root_trust_anchor() const {
  return root_ksk_;
}

std::shared_ptr<zone::SignedZone> Testbed::signed_sld(
    const std::string& name) const {
  const auto it = signed_slds_.find(name);
  return it == signed_slds_.end() ? nullptr : it->second;
}

std::shared_ptr<ZoneAuthority> Testbed::authority(
    const std::string& apex_text) const {
  const auto it = authorities_.find(apex_text);
  return it == authorities_.end() ? nullptr : it->second;
}

void Testbed::set_txt_dlv_signal(const std::string& sld, bool has_dlv_record) {
  const auto it = authorities_.find(sld);
  if (it == authorities_.end()) {
    throw std::invalid_argument("unknown SLD: " + sld);
  }
  dns::ResourceRecord txt = dns::ResourceRecord::make(
      dns::Name::parse(sld), kRecordTtl,
      dns::TxtRdata{{has_dlv_record ? "dlv=1" : "dlv=0"}});
  if (auto signed_zone = it->second->signed_zone()) {
    signed_zone->add(std::move(txt));
  } else {
    it->second->plain_zone()->add(std::move(txt));
  }
}

}  // namespace lookaside::server
