// Authoritative zone data: RRsets keyed by (name, type) in RFC 4034
// canonical order, with the lookup semantics an authoritative server needs
// (answers, referrals at zone cuts, NXDOMAIN/NODATA with NSEC neighbors).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "dns/name.h"
#include "dns/record.h"

namespace lookaside::zone {

/// Lookup outcome categories (pre-DNSSEC; the signed layer adds proofs).
enum class LookupKind {
  kAnswer,    // RRsets for (qname, qtype) or a CNAME at qname
  kReferral,  // delegation NS found below the apex
  kNoData,    // qname exists, qtype does not
  kNxDomain,  // qname does not exist
};

/// Result of Zone::lookup.
struct LookupResult {
  LookupKind kind = LookupKind::kNxDomain;
  /// kAnswer: the answer RRset (or CNAME). kReferral: the delegation NS set.
  const dns::RRset* rrset = nullptr;
  /// kReferral: the owner of the delegation (zone cut).
  dns::Name cut;
  /// kReferral: DS RRset at the cut if the child has one registered.
  const dns::RRset* ds = nullptr;
};

/// One DNS zone's contents. Names are stored in canonical order so NSEC
/// chains and denial proofs fall out of map navigation.
class Zone {
 public:
  /// Creates a zone rooted at `apex`; a SOA record is synthesized from
  /// `soa` and stored at the apex.
  Zone(dns::Name apex, dns::SoaRdata soa, std::uint32_t soa_ttl = 3600);

  /// Adds a record; throws std::invalid_argument if the owner is outside
  /// the zone.
  void add(dns::ResourceRecord record);

  [[nodiscard]] const dns::Name& apex() const { return apex_; }
  [[nodiscard]] const dns::SoaRdata& soa() const { return soa_; }
  [[nodiscard]] const dns::RRset& soa_rrset() const;
  [[nodiscard]] std::uint32_t negative_ttl() const {
    return soa_.minimum_ttl;
  }

  /// True if any RRset exists at `name`.
  [[nodiscard]] bool has_name(const dns::Name& name) const;

  /// Exact-match RRset or nullptr.
  [[nodiscard]] const dns::RRset* find(const dns::Name& name,
                                       dns::RRType type) const;

  /// Full authoritative lookup with referral handling.
  [[nodiscard]] LookupResult lookup(const dns::Name& qname,
                                    dns::RRType qtype) const;

  /// Greatest existing owner name canonically <= `qname` (for NSEC denial).
  /// Falls back to the apex (names below the apex always have the apex as a
  /// canonical lower bound inside the zone).
  [[nodiscard]] const dns::Name& canonical_predecessor(
      const dns::Name& qname) const;

  /// Next existing owner name after `name` in canonical order, wrapping to
  /// the apex at the end of the zone (the NSEC chain closure).
  [[nodiscard]] const dns::Name& canonical_successor(
      const dns::Name& name) const;

  /// Types present at `name` (for NSEC type bitmaps); empty if absent.
  [[nodiscard]] std::vector<dns::RRType> types_at(const dns::Name& name) const;

  /// Number of distinct owner names.
  [[nodiscard]] std::size_t name_count() const { return names_.size(); }

  /// Calls `visit(owner)` for each owner name in canonical order. `owner`
  /// is the zone's own key: it stays valid as long as the zone does, since
  /// a Zone never erases a name.
  template <typename Visitor>
  void for_each_owner(Visitor&& visit) const {
    for (const auto& entry : names_) visit(entry.first);
  }

 private:
  using TypeMap = std::map<dns::RRType, dns::RRset>;
  using NameMap = std::map<dns::Name, TypeMap>;

  dns::Name apex_;
  dns::SoaRdata soa_;
  NameMap names_;
};

}  // namespace lookaside::zone
