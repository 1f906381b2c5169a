// Resource records, RRsets, and the RFC 4034 canonical forms used when
// signing and validating.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dns/name.h"
#include "dns/rdata.h"
#include "dns/rr_type.h"

namespace lookaside::dns {

/// One resource record. `type` is authoritative (a DLV record carries
/// DS-shaped RDATA but type kDlv).
struct ResourceRecord {
  Name name;
  RRType type = RRType::kA;
  RRClass rr_class = RRClass::kIn;
  std::uint32_t ttl = 0;
  Rdata rdata;

  /// Builds a record, inferring `type` from the payload.
  static ResourceRecord make(Name name, std::uint32_t ttl, Rdata rdata);

  /// Builds a record with an explicit type (for DLV and test edge cases).
  static ResourceRecord make_typed(Name name, RRType type, std::uint32_t ttl,
                                   Rdata rdata);

  /// One-line presentation ("example.com. 3600 IN A 93.184.216.34"-ish).
  [[nodiscard]] std::string to_text() const;

  friend bool operator==(const ResourceRecord&, const ResourceRecord&) = default;
};

/// An RRset: every record shares (name, type, class). Thin wrapper that
/// maintains the invariant on insertion.
class RRset {
 public:
  RRset() = default;
  RRset(Name name, RRType type)
      : name_(std::move(name)), type_(type), has_identity_(true) {}

  /// Adds a record; throws std::invalid_argument if (name, type) mismatch.
  void add(ResourceRecord record);

  [[nodiscard]] const Name& name() const { return name_; }
  [[nodiscard]] RRType type() const { return type_; }
  [[nodiscard]] const std::vector<ResourceRecord>& records() const {
    return records_;
  }
  /// Moves the records out of a set its owner is done with.
  [[nodiscard]] std::vector<ResourceRecord> take_records() && {
    return std::move(records_);
  }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] std::uint32_t ttl() const {
    return records_.empty() ? 0 : records_.front().ttl;
  }

 private:
  Name name_;
  RRType type_ = RRType::kA;
  bool has_identity_ = false;  // default-constructed sets adopt first record
  std::vector<ResourceRecord> records_;
};

/// RFC 4034 §6: the canonical wire image of an RRset for signing —
/// records sorted by canonical RDATA order, names lowercase/uncompressed,
/// TTLs replaced by the RRSIG original TTL.
[[nodiscard]] Bytes canonical_rrset_image(const RRset& rrset,
                                          std::uint32_t original_ttl);

/// The exact byte string an RRSIG signature covers: RRSIG RDATA fields
/// through the signer name, followed by the canonical RRset image.
[[nodiscard]] Bytes rrsig_signed_data(const RrsigRdata& rrsig_fields,
                                      const RRset& rrset);

}  // namespace lookaside::dns
