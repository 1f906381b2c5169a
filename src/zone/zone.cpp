#include "zone/zone.h"

#include <stdexcept>

namespace lookaside::zone {

Zone::Zone(dns::Name apex, dns::SoaRdata soa, std::uint32_t soa_ttl)
    : apex_(std::move(apex)), soa_(std::move(soa)) {
  add(dns::ResourceRecord::make(apex_, soa_ttl, soa_));
}

void Zone::add(dns::ResourceRecord record) {
  if (!record.name.is_subdomain_of(apex_)) {
    throw std::invalid_argument("record " + record.name.to_text() +
                                " outside zone " + apex_.to_text());
  }
  // Hinted at the end: an owner that sorts after every existing one (a
  // zone filled in canonical order) inserts in amortized O(1); any other
  // falls back to the ordinary search.
  TypeMap& types = names_.try_emplace(names_.end(), record.name)->second;
  auto [it, inserted] = types.try_emplace(
      record.type, dns::RRset(record.name, record.type));
  it->second.add(std::move(record));
}

const dns::RRset& Zone::soa_rrset() const {
  return *find(apex_, dns::RRType::kSoa);
}

bool Zone::has_name(const dns::Name& name) const {
  return names_.count(name) != 0;
}

const dns::RRset* Zone::find(const dns::Name& name, dns::RRType type) const {
  const auto name_it = names_.find(name);
  if (name_it == names_.end()) return nullptr;
  const auto type_it = name_it->second.find(type);
  return type_it == name_it->second.end() ? nullptr : &type_it->second;
}

LookupResult Zone::lookup(const dns::Name& qname, dns::RRType qtype) const {
  LookupResult result;
  if (!qname.is_subdomain_of(apex_)) {
    result.kind = LookupKind::kNxDomain;
    return result;
  }

  // Check for a zone cut between the apex (exclusive) and qname (inclusive):
  // walk ancestors top-down and stop at the first delegation.
  const std::size_t extra_labels = qname.label_count() - apex_.label_count();
  for (std::size_t depth = 1; depth <= extra_labels; ++depth) {
    // Ancestor with `depth` labels below the apex.
    dns::Name ancestor = qname;
    for (std::size_t strip = extra_labels - depth; strip > 0; --strip) {
      ancestor = ancestor.parent();
    }
    const dns::RRset* ns = find(ancestor, dns::RRType::kNs);
    if (ns != nullptr && !(ancestor == qname && depth == 0)) {
      // Delegation cut — unless the cut owner is the apex (handled above by
      // depth starting at 1). A referral applies even when qname == cut,
      // except when the query asks for DS (the parent is authoritative for
      // DS at the cut).
      if (!(ancestor == qname && qtype == dns::RRType::kDs)) {
        result.kind = LookupKind::kReferral;
        result.rrset = ns;
        result.cut = ancestor;
        result.ds = find(ancestor, dns::RRType::kDs);
        return result;
      }
    }
  }

  const auto name_it = names_.find(qname);
  if (name_it == names_.end()) {
    result.kind = LookupKind::kNxDomain;
    return result;
  }
  const auto type_it = name_it->second.find(qtype);
  if (type_it != name_it->second.end()) {
    result.kind = LookupKind::kAnswer;
    result.rrset = &type_it->second;
    return result;
  }
  // CNAME at qname answers any type (the resolver chases it).
  const auto cname_it = name_it->second.find(dns::RRType::kCname);
  if (cname_it != name_it->second.end() && qtype != dns::RRType::kCname) {
    result.kind = LookupKind::kAnswer;
    result.rrset = &cname_it->second;
    return result;
  }
  result.kind = LookupKind::kNoData;
  return result;
}

const dns::Name& Zone::canonical_predecessor(const dns::Name& qname) const {
  auto it = names_.upper_bound(qname);
  if (it == names_.begin()) return apex_;  // should not happen inside zone
  --it;
  return it->first;
}

const dns::Name& Zone::canonical_successor(const dns::Name& name) const {
  auto it = names_.upper_bound(name);
  if (it == names_.end()) return names_.begin()->first;  // wrap to apex
  return it->first;
}

std::vector<dns::RRType> Zone::types_at(const dns::Name& name) const {
  std::vector<dns::RRType> out;
  const auto it = names_.find(name);
  if (it == names_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [type, rrset] : it->second) out.push_back(type);
  return out;
}

}  // namespace lookaside::zone
