#include "resolver/denial.h"

#include <algorithm>

#include "zone/nsec3.h"

namespace lookaside::resolver {

NsecCoverage nsec_denial(const dns::Name& zone_apex, const dns::Name& owner,
                         const dns::Name& next,
                         std::span<const dns::RRType> types,
                         const dns::Name& qname, dns::RRType qtype,
                         bool* type_listed) {
  const auto lists = [types](dns::RRType type) {
    return std::find(types.begin(), types.end(), type) != types.end();
  };
  const bool delegation =
      lists(dns::RRType::kNs) && !lists(dns::RRType::kSoa);
  if (owner == qname) {
    // Exact owner: the name exists. A delegation owner sits on the parent
    // side of the cut, so denying any type but DS would synthesize NODATA
    // for names the child zone serves; any other owner is child-side, where
    // the bitmap omits DS even for a secure delegation.
    if (delegation != (qtype == dns::RRType::kDs)) {
      return NsecCoverage::kNoProof;
    }
    if (!lists(qtype)) return NsecCoverage::kTypeAbsent;
    if (type_listed != nullptr) *type_listed = true;
    return NsecCoverage::kNoProof;
  }
  // Covering span: owner < qname < next, or anything past the chain's last
  // owner when the span wraps to the apex. Without the occlusion guard a
  // cap-evicted zone cut makes deepest_known_cut fall back to the parent,
  // and its delegation spans would NXDOMAIN every child-zone query.
  const bool inside = next == zone_apex || qname.canonical_compare(next) < 0;
  if (!inside || (delegation && qname.is_subdomain_of(owner))) {
    return NsecCoverage::kNoProof;
  }
  return NsecCoverage::kNameCovered;
}

bool nsec3_covers(std::span<const std::uint8_t> digest,
                  std::span<const std::uint8_t> lo,
                  std::span<const std::uint8_t> hi) {
  const bool above_lo = zone::compare_hashes(digest, lo) > 0;
  const bool below_hi = zone::compare_hashes(digest, hi) < 0;
  if (zone::compare_hashes(lo, hi) < 0) return above_lo && below_hi;
  return above_lo || below_hi;  // the wrapping span
}

}  // namespace lookaside::resolver
