// An authoritative DNS server answering from one zone, with optional DNSSEC.
//
// Response assembly follows RFC 1034/4035 closely enough for a validating
// recursive resolver: authoritative answers (+RRSIG when DO), referrals at
// zone cuts (+DS or NSEC no-DS proof), NXDOMAIN/NODATA with SOA and NSEC
// denial proofs.
#pragma once

#include <memory>
#include <string>

#include "sim/network.h"
#include "zone/signed_zone.h"

namespace lookaside::obs {
class Tracer;
}

namespace lookaside::server {

/// Serves one zone. When constructed without keys the zone is unsigned and
/// DNSSEC-related sections are simply absent (the "insecure" world most of
/// the paper's leaked domains live in).
class ZoneAuthority : public sim::Endpoint {
 public:
  /// Signed authority.
  ZoneAuthority(std::string endpoint_id, std::shared_ptr<zone::SignedZone> zone);

  /// Unsigned authority.
  ZoneAuthority(std::string endpoint_id, std::shared_ptr<zone::Zone> zone);

  [[nodiscard]] std::string endpoint_id() const override { return id_; }
  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override;

  [[nodiscard]] bool is_signed() const { return signed_zone_ != nullptr; }
  [[nodiscard]] const zone::Zone& zone_data() const {
    return signed_zone_ ? signed_zone_->zone() : *plain_zone_;
  }
  [[nodiscard]] std::shared_ptr<zone::SignedZone> signed_zone() {
    return signed_zone_;
  }
  [[nodiscard]] std::shared_ptr<zone::Zone> plain_zone() { return plain_zone_; }

  /// §6.2.1 "Using Z Bit" remedy: when enabled, authoritative answers carry
  /// the spare Z header bit, signaling "this zone has a DLV record
  /// deposited" to DLV-aware resolvers.
  void set_z_bit_signal(bool enabled) { z_bit_signal_ = enabled; }

  /// Attaches a structured tracer (nullable). Each handled query emits one
  /// kAuthority event labeled answer / referral / nodata / nxdomain.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// NSEC or NSEC3 proof (per zone signing mode) that `qname` does not
  /// exist, or that it exists but the queried type (or DS at a cut) does
  /// not. Requires signed_zone_.
  void append_denial(dns::Message& response, const dns::Name& qname,
                     bool nxdomain);
  void append_glue(dns::Message& response, const dns::RRset& ns_set);

  std::string id_;
  std::shared_ptr<zone::SignedZone> signed_zone_;
  std::shared_ptr<zone::Zone> plain_zone_;
  bool z_bit_signal_ = false;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace lookaside::server
