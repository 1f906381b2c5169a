// One SLD of each deployment flavour in a synthetic universe, for tests
// that ask a world's authorities or a resolver about each kind of domain.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>

#include "workload/universe.h"

namespace lookaside::universe_slds {

/// One SLD of each deployment flavour, the first of each in rank order.
struct FlavouredSlds {
  workload::DomainInfo chained;  // signed, DS at the parent
  workload::DomainInfo island;   // signed, DLV deposit, no DS
  workload::DomainInfo plain;    // unsigned, out-of-bailiwick nameserver
};

inline FlavouredSlds pick_slds(const workload::Universe& universe) {
  std::optional<workload::DomainInfo> chained, island, plain;
  for (std::uint64_t rank = 1; rank <= universe.size(); ++rank) {
    const workload::DomainInfo info = universe.info(rank);
    if (!chained && info.ds_in_parent) chained = info;
    if (!island && info.dnssec_signed && !info.ds_in_parent &&
        info.dlv_deposited) {
      island = info;
    }
    if (!plain && !info.dnssec_signed && !info.glue) plain = info;
  }
  if (!chained || !island || !plain) throw std::logic_error("flavour missing");
  return {*chained, *island, *plain};
}

}  // namespace lookaside::universe_slds
