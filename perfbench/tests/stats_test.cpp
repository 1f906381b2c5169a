// Tests of the benchmark's estimators: nearest-rank percentiles and their
// tail counts, per-op normalisation, and self-time attribution over spans.
// Run: ctest --test-dir <build>/perfbench (or the perfbench_tests binary).
#include <cmath>
#include <cstdio>
#include <vector>

#include "layers.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using perfbench::attribute;
using perfbench::Layer;
using perfbench::nearest_rank;
using perfbench::percentile_sorted;
using perfbench::samples_beyond;
using perfbench::Span;

void nearest_rank_is_ceil_of_q_times_n() {
  EXPECT(nearest_rank(0, 0.5) == 0);
  EXPECT(nearest_rank(1, 0.5) == 1);
  EXPECT(nearest_rank(1, 0.99) == 1);
  EXPECT(nearest_rank(10, 0.5) == 5);   // exact product is not rounded up
  EXPECT(nearest_rank(11, 0.5) == 6);
  EXPECT(nearest_rank(100, 0.99) == 99);
  EXPECT(nearest_rank(101, 0.99) == 100);
  EXPECT(nearest_rank(1000, 0.99) == 990);
  EXPECT(nearest_rank(5, 0.0) == 1);    // clamped to the first sample
  EXPECT(nearest_rank(5, 1.0) == 5);
}

void percentiles_pick_samples_not_interpolations() {
  const std::vector<int> sorted = {10, 20, 30, 40};
  EXPECT(percentile_sorted(sorted, 0.50) == 20);
  EXPECT(percentile_sorted(sorted, 0.51) == 30);
  EXPECT(percentile_sorted(sorted, 0.99) == 40);
  EXPECT(percentile_sorted(std::vector<int>{}, 0.5) == 0);

  std::vector<std::uint64_t> ns;
  for (std::uint64_t i = 1; i <= 2000; ++i) ns.push_back(i * 1000);
  const perfbench::Percentile p99 = perfbench::percentile_us(ns, 0.99);
  EXPECT(near(p99.value, 1980.0));
  EXPECT(p99.samples == 2000);
  EXPECT(p99.beyond == 20);
}

void thin_tails_are_detected() {
  // p99 needs 1000 samples before 10 lie beyond it.
  EXPECT(samples_beyond(999, 0.99) < perfbench::kMinSamplesBeyond);
  EXPECT(samples_beyond(1000, 0.99) == perfbench::kMinSamplesBeyond);
  EXPECT(samples_beyond(100, 0.50) == 50);
  EXPECT(samples_beyond(0, 0.99) == 0);
}

void per_op_normalisation() {
  EXPECT(near(perfbench::per_op(10, 4), 2.5));
  EXPECT(near(perfbench::per_op(10, 0), 0.0));  // untouched layer reads 0
  EXPECT(near(perfbench::ratio(1, 4), 0.25));
  EXPECT(near(perfbench::ratio(3, 0), 0.0));
  EXPECT(near(perfbench::median({3.0, 1.0, 2.0}), 2.0));
  EXPECT(near(perfbench::median({}), 0.0));
}

void self_time_adds_up_to_op_time() {
  // Two ops: op 0 spans [100, 200] with a server child [110, 150] and a
  // dlv child [160, 170]; op 1 spans [300, 350] with no children.
  const std::vector<std::uint64_t> start = {100, 300};
  const std::vector<std::uint64_t> duration = {100, 50};
  const std::vector<Span> spans = {{0, Layer::kServer, 110, 150},
                                   {0, Layer::kDlv, 160, 170}};
  const perfbench::LayerTimes times = attribute(start, duration, spans);
  EXPECT(times.nested);
  EXPECT(times.ops == 2);
  EXPECT(times.op_ns == 150);
  EXPECT(times.busy_ns[0] == 40);
  EXPECT(times.busy_ns[1] == 10);
  EXPECT(times.calls[0] == 1 && times.calls[1] == 1);
  EXPECT(times.self_ns == 100);
  EXPECT(times.busy_ns[0] + times.busy_ns[1] + times.self_ns == times.op_ns);
  // Per op: 20 us of server over 2 ops is 10 per op.
  EXPECT(near(perfbench::per_op(times.busy_ns[0] / 2.0, times.ops), 10.0));
}

void escaped_children_are_rejected() {
  const std::vector<std::uint64_t> start = {100};
  const std::vector<std::uint64_t> duration = {100};
  EXPECT(!attribute(start, duration, {{0, Layer::kServer, 90, 150}}).nested);
  EXPECT(!attribute(start, duration, {{0, Layer::kServer, 150, 210}}).nested);
  EXPECT(!attribute(start, duration, {{1, Layer::kDlv, 110, 120}}).nested);
  // Overlapping children would count the same time twice.
  EXPECT(!attribute(start, duration, {{0, Layer::kServer, 100, 180},
                                      {0, Layer::kDlv, 120, 190}})
              .nested);
}

void digest_separates_records() {
  perfbench::Fnv64 a;
  a.add("ab");
  a.end_record();
  a.add("c");
  perfbench::Fnv64 b;
  b.add("a");
  b.end_record();
  b.add("bc");
  EXPECT(a.value() != b.value());
  EXPECT(perfbench::Fnv64().value() == 0xcbf29ce484222325ULL);
}

}  // namespace

int main() {
  nearest_rank_is_ceil_of_q_times_n();
  percentiles_pick_samples_not_interpolations();
  thin_tails_are_detected();
  per_op_normalisation();
  self_time_adds_up_to_op_time();
  escaped_children_are_rejected();
  digest_separates_records();
  if (failures == 0) std::printf("perfbench_tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
