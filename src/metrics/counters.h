// Named counter registry used across the simulator for query/byte accounting.
//
// A `CounterSet` is a small string->uint64 map. Experiment drivers read
// counters by name; per-phase deltas are differences of value() reads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace lookaside::metrics {

/// A collection of named monotonically increasing counters.
class CounterSet {
 public:
  /// Adds `delta` to counter `name`, creating it at zero if absent.
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Returns the current value of `name`, or 0 if it was never touched.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;

  /// All (name, value) pairs in lexicographic name order.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> entries() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
};

}  // namespace lookaside::metrics
