// Deterministic fault injection for the simulated network (§8.4 chaos).
//
// A FaultPlan is a list of per-endpoint (or wildcard) FaultSpecs: packet
// loss on either leg of an exchange, latency spikes, virtual-time outage
// windows, response truncation, RCODE rewriting and RRSIG corruption. The
// FaultInjector evaluates the plan with a single seeded SplitMix64 stream,
// so the same (seed, plan) always yields the same packet-by-packet fate —
// every chaos experiment is exactly reproducible. Specs whose probabilities
// are all zero never consume randomness, so an empty or all-zero plan is
// bit-for-bit identical to running without the injector.
//
// The legacy Network::set_unreachable() is a degenerate plan entry (100%
// deterministic loss) kept in a hash set; there is one failure path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "crypto/rng.h"
#include "dns/rr_type.h"

namespace lookaside::sim {

/// Faults applied to exchanges with one endpoint (or "*" for all).
struct FaultSpec {
  std::string endpoint = "*";  // endpoint id or "*" wildcard

  /// P(query leg dropped): the server never sees the query.
  double loss = 0.0;
  /// P(response leg dropped): the server answered, the resolver never
  /// hears it — a "partial" timeout (the query still leaked).
  double response_loss = 0.0;

  /// Latency spike: with probability `spike_probability` the round trip
  /// gains `spike_us`. A spike that pushes the round trip past the
  /// caller's timeout becomes a partial timeout.
  double spike_probability = 0.0;
  std::uint64_t spike_us = 0;

  /// Hard outage window on the virtual clock: every query in
  /// [outage_start_us, outage_end_us) is dropped deterministically
  /// (no randomness consumed). end == 0 disables the window.
  std::uint64_t outage_start_us = 0;
  std::uint64_t outage_end_us = 0;

  /// P(response truncated): TC bit set, sections emptied (retryable).
  double truncate = 0.0;

  /// P(response RCODE rewritten to `mangle_rcode`, sections emptied).
  double mangle = 0.0;
  dns::RCode mangle_rcode = dns::RCode::kServFail;

  /// P(RRSIG signatures corrupted in the response) — exercises the
  /// validator's bogus path end to end.
  double rrsig_corrupt = 0.0;

  /// True when every knob is zero (the spec can never fire).
  [[nodiscard]] bool all_zero() const;

  /// Parses the textual spec grammar (documented in DESIGN.md):
  ///   <endpoint|*> [loss=P] [rloss=P] [spike=P:DUR] [outage=DUR..DUR]
  ///                [truncate=P] [rcode=NAME:P] [corrupt=P]
  /// where P is a probability in [0,1] and DUR is <number>{us|ms|s}.
  /// Returns nullopt on malformed input.
  [[nodiscard]] static std::optional<FaultSpec> parse(std::string_view text);
};

/// A seed plus the spec list. Value-semantic; install on a Network via
/// Network::set_fault_plan().
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> specs;

  void add(FaultSpec spec) { specs.push_back(std::move(spec)); }

  /// True when no spec can ever fire (all-zero plan == faults off).
  [[nodiscard]] bool inert() const;
};

/// a + b, or the largest std::uint64_t where the sum would wrap. Latency
/// sums saturate, so a spike near 2^64 µs outlives every timer instead of
/// wrapping round to a short delay.
[[nodiscard]] constexpr std::uint64_t saturating_add(std::uint64_t a,
                                                     std::uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

/// What the injector decided for one exchange attempt.
struct FaultDecision {
  bool drop_query = false;     // query leg lost (server never contacted)
  bool drop_response = false;  // response leg lost (server DID answer)
  std::uint64_t added_latency_us = 0;  // summed spikes, saturated
  bool truncate = false;
  std::optional<dns::RCode> rewrite_rcode;
  bool corrupt_rrsigs = false;
  const char* cause = "";  // "unreachable", "outage", "loss", ...
};

/// Evaluates a FaultPlan deterministically. All randomness comes from one
/// SplitMix64 stream consumed in exchange order; the simulator is
/// single-threaded, so (seed, plan, workload) fixes every decision.
class FaultInjector {
 public:
  FaultInjector() : rng_(1) {}

  /// Installs `plan` and reseeds the stream from plan.seed.
  void set_plan(FaultPlan plan);
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Degenerate 100% loss for one endpoint (no randomness consumed).
  void set_unreachable(const std::string& endpoint_id, bool unreachable);
  [[nodiscard]] bool is_unreachable(const std::string& endpoint_id) const {
    return unreachable_.count(endpoint_id) != 0;
  }

  /// Decides the fate of one exchange with `endpoint_id` at virtual time
  /// `now_us`. Endpoints matched by no spec return a default decision
  /// without touching the RNG.
  [[nodiscard]] FaultDecision decide(const std::string& endpoint_id,
                                     std::uint64_t now_us);

 private:
  FaultPlan plan_;
  bool plan_active_ = false;  // any spec can fire
  std::unordered_set<std::string> unreachable_;
  crypto::SplitMix64 rng_;
};

}  // namespace lookaside::sim
