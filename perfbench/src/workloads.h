// The benchmark's three workloads, each a fully built simulator stack plus
// the seeded inputs it replays one op at a time.
//
//   cold-topn  core::UniverseExperiment, 1M domains, bind_yum + DLV;
//              op = StubClient::visit of the next never-seen rank.
//   warm-zipf  the same stack after a set-up pass over 2k ranks;
//              op = StubClient::visit of a Zipf(1/rank) draw.
//   serve-mix  serve::ServeStack, 64 clients, NSEC3 DLV registry, 8 MiB
//              cache; op = FrontendServer::submit of the next wire query.
//
// See README.md for why each exists and which layers it stresses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// Virtual outputs of a workload after one round. They are a pure function
/// of (workload, seed): every round of a run must produce the same ones,
/// traced or not, and they are pinned for the pinned seed.
struct Observables {
  std::uint64_t ops = 0;
  std::uint64_t dlv_queries = 0;
  std::uint64_t case2 = 0;
  std::uint64_t distinct_leaked = 0;
  std::uint64_t leaked_digest = 0;  // FNV-1a over the sorted leaked set
  std::uint64_t bytes_total = 0;    // sim network "bytes.total"
  std::uint64_t cache_evicted = 0;
  std::uint64_t virtual_us = 0;  // sim clock at the end of the round
  std::map<std::string, std::uint64_t> rcodes;  // op outcome histogram

  /// FNV-1a over every field above.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Cumulative layer counters; the driver differences two snapshots.
struct LayerCounters {
  std::uint64_t exchanges = 0;  // sim "packets.query"
  std::uint64_t bytes = 0;      // sim "bytes.total"
  std::uint64_t retries = 0;
  std::uint64_t dlv_queries = 0;
  std::uint64_t dlv_case1 = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evicted = 0;
  std::uint64_t rsa_verifies = 0;  // verify.batch_unique
  std::uint64_t rsa_skipped = 0;   // verdict.rsa_skipped + verify.batch_deduped
  std::uint64_t nsec3_hash_ops = 0;
  std::uint64_t coalesce_hits = 0;
  std::uint64_t coalesce_misses = 0;
  std::uint64_t shed = 0;  // overload + CPU-budget drops
  // Codec calls the op path makes. Network::exchange encodes both legs of
  // every exchange to size them; the client hop is the stub<->resolver
  // exchange (cold/warm) or the frontend's response encode (serve).
  std::uint64_t upstream_encodes = 0;
  std::uint64_t client_encodes = 0;
  std::uint64_t decodes = 0;  // frontend intake

  [[nodiscard]] LayerCounters minus(const LayerCounters& base) const;
};

/// Outcome of op accounting checks, independent of the seed.
struct InvariantReport {
  bool ok = true;
  std::string detail;
};

/// One round of a workload: a freshly built stack and the fixed sequence of
/// ops it replays. Every round of a (workload, seed) does identical work.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Ops in one round (the length of the generated input sequence).
  [[nodiscard]] virtual std::size_t round_ops() const = 0;

  /// Runs op `index` (ops run in index order); returns true when it failed
  /// (SERVFAIL, FORMERR, REFUSED, a timeout, or an overload/CPU shed).
  virtual bool run_op(std::size_t index) = 0;

  [[nodiscard]] virtual Observables observe(std::size_t ops) = 0;
  [[nodiscard]] virtual LayerCounters counters() = 0;
  /// Accounting checks after `ops` ops, of which `failed` failed.
  [[nodiscard]] virtual InvariantReport check(std::size_t ops,
                                              std::size_t failed) = 0;

  /// Routes every authority and registry call through TimedEndpoints.
  [[nodiscard]] virtual bool install_tracing(SpanLog& log) = 0;

  /// Mean ns of ResolverCache::find over this round's own names, on the
  /// cache as the round left it.
  [[nodiscard]] virtual double cache_probe_ns() = 0;
  [[nodiscard]] virtual double cache_peak_mb() = 0;
  [[nodiscard]] virtual std::size_t queue_depth_max() const { return 0; }

  /// Client-hop (query, response) pairs for codec replay: each sampled
  /// op's query and the resolver's answer to it on the cache as the round
  /// left it. Call after the round's spans and counters are read: a miss
  /// sends traffic.
  [[nodiscard]] virtual std::vector<SpanLog::MessagePair> client_samples() = 0;

  /// Wire queries the op path decodes (serve-mix only), for codec replay.
  [[nodiscard]] virtual std::vector<const std::vector<std::uint8_t>*>
  decode_samples() const {
    return {};
  }
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generates `name`'s inputs from `seed` and builds its stack, including
/// any warm-up pass: the work setup_s times. Returns nullptr for an
/// unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// Host cost of one RSASHA256 sign and one verify at the universe key size
/// (256 bits), each timed over at least `min_ns` of repetitions.
struct RsaUnitCost {
  double sign_us = 0;
  double verify_us = 0;
};
[[nodiscard]] RsaUnitCost measure_rsa(std::uint64_t seed, std::uint64_t min_ns);

}  // namespace perfbench
