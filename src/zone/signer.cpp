#include "zone/signer.h"

#include "crypto/dnssec_algo.h"

namespace lookaside::zone {

namespace {

/// What a signature over `rrset` covers beyond its owner and type: the TTL
/// and each record's RDLENGTH and RDATA, hashed without allocating.
std::uint64_t fingerprint(const dns::RRset& rrset) {
  dns::HashingWriter writer;
  writer.u32(rrset.ttl());
  for (const dns::ResourceRecord& record : rrset.records()) {
    writer.u16(static_cast<std::uint16_t>(dns::rdata_wire_length(record.rdata)));
    dns::encode_rdata(record.rdata, writer);
  }
  return writer.hash();
}

}  // namespace

Signer::Signer(dns::Name apex, ZoneKeys keys)
    : apex_(std::move(apex)),
      keys_(std::move(keys)),
      dnskeys_(apex_, dns::RRType::kDnskey) {
  dnskeys_.add(
      dns::ResourceRecord::make(apex_, 3600, dns::Rdata{keys_.zsk_record()}));
  dnskeys_.add(
      dns::ResourceRecord::make(apex_, 3600, dns::Rdata{keys_.ksk_record()}));
}

dns::DsRdata Signer::ds_for_parent() const {
  return make_ds(apex_, keys_.ksk_record());
}

dns::ResourceRecord Signer::rrsig_for(const dns::RRset& rrset) {
  const bool is_dnskey = rrset.type() == dns::RRType::kDnskey;

  dns::RrsigRdata rrsig;
  rrsig.type_covered = rrset.type();
  rrsig.algorithm = 8;
  rrsig.labels = static_cast<std::uint8_t>(rrset.name().label_count());
  rrsig.original_ttl = rrset.ttl();
  rrsig.expiration = 0x7FFFFFFF;
  rrsig.inception = 0;
  rrsig.key_tag = is_dnskey ? keys_.ksk_tag() : keys_.zsk_tag();
  rrsig.signer = apex_;

  std::vector<CachedSignature>* slots = nullptr;
  CachedSignature* cached = nullptr;
  const std::uint64_t print = corrupt_ ? 0 : fingerprint(rrset);
  if (!corrupt_) {
    slots = &cache_.get_or_insert(rrset.name());
    for (CachedSignature& slot : *slots) {
      if (slot.type == rrset.type()) cached = &slot;
    }
  }
  if (cached != nullptr && cached->fingerprint == print) {
    ++stats_.cache_hits;
    rrsig.signature = cached->signature;
  } else {
    rrsig.signature = crypto::sign_message(
        is_dnskey ? keys_.ksk_private() : keys_.zsk_private(),
        dns::rrsig_signed_data(rrsig, rrset));
    ++stats_.signatures;
    if (corrupt_) {
      rrsig.signature[rrsig.signature.size() / 2] ^= 0x01;
    } else if (cached != nullptr) {
      ++stats_.resigns;
      cached->fingerprint = print;
      cached->signature = rrsig.signature;
    } else {
      slots->push_back({rrset.type(), print, rrsig.signature});
    }
  }
  return dns::ResourceRecord::make(rrset.name(), rrset.ttl(),
                                   dns::Rdata{std::move(rrsig)});
}

void append(std::vector<dns::ResourceRecord>& section, const dns::RRset& rrset,
            Signer* signer) {
  section.insert(section.end(), rrset.records().begin(),
                 rrset.records().end());
  if (signer != nullptr) section.push_back(signer->rrsig_for(rrset));
}

dns::RRset nsec_rrset(const dns::Name& owner, dns::Name next,
                      std::vector<dns::RRType> types, std::uint32_t ttl) {
  dns::NsecRdata nsec;
  nsec.next = std::move(next);
  nsec.types = std::move(types);
  dns::RRset out(owner, dns::RRType::kNsec);
  out.add(dns::ResourceRecord::make(owner, ttl, dns::Rdata{std::move(nsec)}));
  return out;
}

}  // namespace lookaside::zone
