#include "metrics/counters.h"

namespace lookaside::metrics {

void CounterSet::add(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t CounterSet::value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> CounterSet::entries() const {
  return {counters_.begin(), counters_.end()};
}

}  // namespace lookaside::metrics
