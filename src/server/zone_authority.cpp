#include "server/zone_authority.h"

#include "obs/tracer.h"

namespace lookaside::server {

namespace {

void trace_outcome(obs::Tracer* tracer, const std::string& server,
                   const dns::Question& question, const char* outcome,
                   dns::RCode rcode) {
  if (tracer == nullptr) return;
  obs::Event event;
  event.kind = obs::EventKind::kAuthority;
  event.name = question.name.to_text();
  event.server = server;
  event.qtype = question.type;
  event.rcode = rcode;
  event.detail = outcome;
  tracer->emit(std::move(event));
}

}  // namespace

ZoneAuthority::ZoneAuthority(std::string endpoint_id,
                             std::shared_ptr<zone::SignedZone> zone)
    : id_(std::move(endpoint_id)), signed_zone_(std::move(zone)) {}

ZoneAuthority::ZoneAuthority(std::string endpoint_id,
                             std::shared_ptr<zone::Zone> zone)
    : id_(std::move(endpoint_id)), plain_zone_(std::move(zone)) {}

void ZoneAuthority::append_denial(dns::Message& response,
                                  const dns::Name& qname, bool nxdomain) {
  const auto push = [&response](zone::NsecProof& proof) {
    response.authorities.push_back(std::move(proof.nsec));
    response.authorities.push_back(std::move(proof.rrsig));
  };
  if (signed_zone_->nsec3_enabled()) {
    for (zone::NsecProof& proof :
         nxdomain ? signed_zone_->nsec3_nxdomain_proof(qname)
                  : signed_zone_->nsec3_nodata_proof(qname)) {
      push(proof);
    }
  } else {
    zone::NsecProof proof = nxdomain ? signed_zone_->nxdomain_proof(qname)
                                     : signed_zone_->nodata_proof(qname);
    push(proof);
  }
}

void ZoneAuthority::append_glue(dns::Message& response,
                                const dns::RRset& ns_set) {
  const zone::Zone& z = zone_data();
  for (const dns::ResourceRecord& ns : ns_set.records()) {
    const auto& rdata = std::get<dns::NsRdata>(ns.rdata);
    // Glue only exists for nameserver hosts inside this zone.
    if (const dns::RRset* glue = z.find(rdata.nameserver, dns::RRType::kA)) {
      // Glue is unsigned even in signed zones (it is non-authoritative).
      zone::append(response.additionals, *glue, nullptr);
    }
  }
}

dns::Message ZoneAuthority::handle_query(const dns::Message& query) {
  dns::Message response = dns::Message::make_response(query);
  response.header.aa = true;
  response.header.z = z_bit_signal_;
  const dns::Question& question = query.question();
  const zone::Zone& z = zone_data();
  // Null unless this answer carries DNSSEC records.
  zone::Signer* signer = query.dnssec_ok && signed_zone_
                             ? &signed_zone_->signer()
                             : nullptr;

  // Apex DNSKEY is served from the signing state, not the zone store.
  if (question.type == dns::RRType::kDnskey && signed_zone_ &&
      question.name == z.apex()) {
    zone::append(response.answers, signed_zone_->signer().dnskey_rrset(),
                 signer);
    trace_outcome(tracer_, id_, question, "answer", response.header.rcode);
    return response;
  }

  const zone::LookupResult result = z.lookup(question.name, question.type);
  switch (result.kind) {
    case zone::LookupKind::kAnswer: {
      zone::append(response.answers, *result.rrset, signer);
      trace_outcome(tracer_, id_, question, "answer", response.header.rcode);
      break;
    }
    case zone::LookupKind::kReferral: {
      response.header.aa = false;
      zone::append(response.authorities, *result.rrset, nullptr);
      if (signer != nullptr) {
        if (result.ds != nullptr) {
          zone::append(response.authorities, *result.ds, signer);
        } else {
          // Signed parent, unsigned delegation: prove DS absence (this is
          // what makes the child "insecure" rather than "bogus").
          append_denial(response, result.cut, /*nxdomain=*/false);
        }
      }
      append_glue(response, *result.rrset);
      trace_outcome(tracer_, id_, question, "referral", response.header.rcode);
      break;
    }
    case zone::LookupKind::kNoData: {
      zone::append(response.authorities, z.soa_rrset(), signer);
      if (signer != nullptr) {
        append_denial(response, question.name, /*nxdomain=*/false);
      }
      trace_outcome(tracer_, id_, question, "nodata", response.header.rcode);
      break;
    }
    case zone::LookupKind::kNxDomain: {
      response.header.rcode = dns::RCode::kNxDomain;
      zone::append(response.authorities, z.soa_rrset(), signer);
      if (signer != nullptr) {
        append_denial(response, question.name, /*nxdomain=*/true);
      }
      trace_outcome(tracer_, id_, question, "nxdomain", response.header.rcode);
      break;
    }
  }
  return response;
}

}  // namespace lookaside::server
