// Server directory: maps zone apexes to the endpoints serving them.
//
// This abstracts IP addressing: a real resolver learns nameserver *hosts*
// from referrals and resolves them to addresses; here the referral records
// still flow on the wire (and missing glue still costs visible A/AAAA
// lookups, accounted by the resolver), but the final "connect to the server
// for zone X" step is a directory lookup.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "dns/name.h"
#include "sim/network.h"

namespace lookaside::server {

/// Registry of authoritative endpoints by zone apex, one endpoint per zone.
class ServerDirectory {
 public:
  /// Registers `endpoint` as authoritative for `apex` (replacing any
  /// previous registration).
  void register_zone(const dns::Name& apex,
                     std::shared_ptr<sim::Endpoint> endpoint);

  /// Endpoint for exactly `apex`, or nullptr. When a fallback is installed
  /// it is consulted for apexes with no explicit registration (this is how
  /// the synthetic million-domain universe serves SLD zones without
  /// materializing a million registrations).
  [[nodiscard]] sim::Endpoint* authority_for_zone(const dns::Name& apex) const;

  /// Installs the fallback hook; it may return nullptr to decline.
  void set_fallback(std::function<sim::Endpoint*(const dns::Name&)> fallback) {
    fallback_ = std::move(fallback);
  }

  [[nodiscard]] std::size_t zone_count() const { return zones_.size(); }

 private:
  std::map<dns::Name, std::shared_ptr<sim::Endpoint>> zones_;
  std::function<sim::Endpoint*(const dns::Name&)> fallback_;
};

}  // namespace lookaside::server
