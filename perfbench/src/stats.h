// Estimators shared by the benchmark driver and its tests: nearest-rank
// percentiles with their tail sample counts, per-op normalisation, and the
// FNV-1a digest used to pin virtual outputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of quantile `q` in `n` samples: ceil(q * n),
/// clamped to [1, n]. Returns 0 when there are no samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon keeps exact products (0.5 * 10 = 5) from rounding up.
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank `q` percentile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
template <typename T>
T percentile_sorted(const std::vector<T>& sorted, double q) {
  const std::size_t rank = nearest_rank(sorted.size(), q);
  return rank == 0 ? T{} : sorted[rank - 1];
}

/// A percentile together with the evidence behind it.
struct Percentile {
  double value = 0;
  std::size_t samples = 0;  // sample count the percentile was taken over
  std::size_t beyond = 0;   // samples strictly above the percentile's rank
};

/// Nearest-rank percentile of unsorted nanosecond samples, in microseconds.
/// `sorted` is the caller's scratch copy (kept to avoid re-sorting).
inline Percentile percentile_us(const std::vector<std::uint64_t>& sorted,
                                double q) {
  Percentile out;
  out.samples = sorted.size();
  out.beyond = samples_beyond(sorted.size(), q);
  out.value = static_cast<double>(percentile_sorted(sorted, q)) / 1000.0;
  return out;
}

/// Least tail evidence a reported percentile needs.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// `total / ops`, 0 when no op ran (so a layer a workload never touches
/// reports 0 rather than NaN).
inline double per_op(double total, std::uint64_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

/// `part / whole`, 0 when `whole` is 0.
inline double ratio(double part, double whole) {
  return whole == 0 ? 0.0 : part / whole;
}

/// Median of a small sample (upper median for even counts); 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// FNV-1a, 64-bit: the digest of pinned virtual outputs.
class Fnv64 {
 public:
  void add(std::string_view text) {
    for (const char c : text) byte(static_cast<unsigned char>(c));
  }
  void add_u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(value >> (8 * i)));
  }
  /// Separator between records, so ("ab","c") and ("a","bc") differ.
  void end_record() { byte('\n'); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
