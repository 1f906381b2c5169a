#include "server/directory.h"

namespace lookaside::server {

void ServerDirectory::register_zone(const dns::Name& apex,
                                    std::shared_ptr<sim::Endpoint> endpoint) {
  zones_[apex] = std::move(endpoint);
}

sim::Endpoint* ServerDirectory::authority_for_zone(
    const dns::Name& apex) const {
  const auto it = zones_.find(apex);
  if (it != zones_.end()) return it->second.get();
  return fallback_ ? fallback_(apex) : nullptr;
}

}  // namespace lookaside::server
