#include "sim/latency.h"

#include "crypto/fnv.h"

namespace lookaside::sim {

namespace {

constexpr std::uint64_t kMsToUs = 1000;

}  // namespace

LatencyModel::LatencyModel() = default;

std::uint64_t LatencyModel::hashed_default_us(std::string_view endpoint_id) {
  // SLD authoritative servers: deterministic in [10, 80] ms one-way.
  return (10 + crypto::fnv1a(endpoint_id) % 71) * kMsToUs;
}

std::uint64_t LatencyModel::one_way_us(std::string_view endpoint_id) const {
  const auto it = overrides_.find(std::string(endpoint_id));
  if (it != overrides_.end()) return it->second;
  if (endpoint_id == "root") return 30 * kMsToUs;
  if (endpoint_id.rfind("tld:", 0) == 0) return 25 * kMsToUs;
  if (endpoint_id.rfind("dlv:", 0) == 0) return 40 * kMsToUs;
  if (endpoint_id == "recursive" || endpoint_id == "stub") return 1 * kMsToUs;
  return hashed_default_us(endpoint_id);
}

void LatencyModel::set_latency_us(std::string endpoint_id,
                                  std::uint64_t one_way_us) {
  overrides_[std::move(endpoint_id)] = one_way_us;
}

}  // namespace lookaside::sim
