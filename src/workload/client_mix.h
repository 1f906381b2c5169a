// Multi-client workload generator for the serving frontend.
//
// Models N stub clients sharing one recursive resolver — the aggregation
// regime of the paper's §6.4 DITL-style estimate. Each client draws domains
// from the *same* Zipf-like popularity law over universe ranks (1/rank
// mass), so the popular head overlaps across clients and identical
// concurrent queries exist for the frontend to coalesce. Interarrival gaps
// and the A/AAAA mix are drawn from per-client SplitMix64 streams derived
// from (seed, client), so a schedule is a pure function of its options.
#pragma once

#include <cstdint>
#include <vector>

#include "dns/name.h"
#include "dns/rr_type.h"
#include "workload/universe.h"

namespace lookaside::workload {

/// One stub query in a multi-client schedule (arrival time is when the
/// query reaches the frontend, in virtual microseconds).
struct ClientQuery {
  std::uint64_t time_us = 0;
  std::uint32_t client = 0;
  std::uint32_t seq = 0;  // per-client sequence number (deterministic tie-break)
  dns::Name name;
  dns::RRType type = dns::RRType::kA;
};

/// Workload shape knobs.
struct ClientMixOptions {
  std::uint32_t clients = 16;
  std::uint32_t queries_per_client = 64;
  std::uint64_t seed = 99;

  /// Ranks are sampled from [1, zipf_support] with mass ~ 1/rank (the
  /// continuous inverse-CDF rank = floor(support^u)), clamped to the
  /// universe size. Popular ranks repeat across clients by construction.
  std::uint64_t zipf_support = 10'000;

  /// Mean per-client interarrival gap (uniform on [1, 2*mean]); resolution
  /// latencies are tens of milliseconds, so gaps well below that produce
  /// concurrent identical queries.
  std::uint64_t mean_gap_us = 2'000;

  /// Fraction of clients (the highest-numbered ids) running the
  /// proof-of-nonexistence CPU-exhaustion attack: instead of the shared
  /// Zipf head they draw uniform ranks over the whole universe, so nearly
  /// every query is a cold cache miss whose DLV denial bills the validator
  /// a full iterated NSEC3 hash chain. The names exist in the universe —
  /// the attack rides the ordinary insecure-answer DLV path, not NXDOMAIN.
  /// 0 disables the attack.
  double attack_fraction = 0.0;
};

/// Deterministic multi-client schedule generator.
class ClientMix {
 public:
  explicit ClientMix(ClientMixOptions options) : options_(options) {}

  [[nodiscard]] const ClientMixOptions& options() const { return options_; }

  /// First client id that is an attacker under attack_fraction; equals
  /// `clients` when the attack is disabled. Clients below this id are the
  /// benign population whose latency the defenses must protect.
  [[nodiscard]] std::uint32_t first_attacker() const;

  /// Builds the merged, arrival-ordered schedule over `universe` names.
  /// Ties on time break by (client, seq), so the order is total and
  /// independent of anything but the options.
  [[nodiscard]] std::vector<ClientQuery> generate(
      const Universe& universe) const;

 private:
  ClientMixOptions options_;
};

}  // namespace lookaside::workload
