// Simulated network: synchronous query/response exchanges between endpoints
// with byte-accurate accounting and an optional packet capture.
//
// This replaces the paper's real testbed (campus hosts, DigitalOcean/EC2
// VPSes). Leakage is a protocol property; the network's job is to (1) move
// wire-encoded messages, (2) advance the virtual clock by per-hop latency,
// and (3) account every query/byte so the overhead tables can be rebuilt.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dns/codec.h"
#include "dns/message.h"
#include "metrics/counters.h"
#include "sim/clock.h"
#include "sim/fault.h"
#include "sim/latency.h"

namespace lookaside::sim {

/// Anything that answers DNS queries: authoritative servers, DLV registries.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Stable identifier used for latency lookup and capture records.
  [[nodiscard]] virtual std::string endpoint_id() const = 0;

  /// Produces the response for `query`. Implementations are deterministic.
  [[nodiscard]] virtual dns::Message handle_query(const dns::Message& query) = 0;

  /// Optional per-query one-way latency override (microseconds). Lets a
  /// single endpoint object impersonate many servers with different
  /// latencies (the synthetic SLD universe). Zero means "use the model".
  [[nodiscard]] virtual std::uint64_t latency_override_us(
      const dns::Message& query) const {
    (void)query;
    return 0;
  }
};

/// One captured packet (a query or a response). Counter accounting, the
/// stored capture and streaming observers are all derived from this one
/// record inside Network::record(), so they can never disagree.
struct PacketRecord {
  std::uint64_t time_us = 0;
  std::string from;
  std::string to;
  std::size_t bytes = 0;
  bool is_query = false;
  bool has_question = false;
  dns::Name qname;
  dns::RRType qtype = dns::RRType::kA;
  dns::RCode rcode = dns::RCode::kNoError;  // responses only
  std::uint64_t rtt_us = 0;                 // responses: full round trip
};

/// One injected fault, reported to fault observers (obs::Tracer bridges
/// these into `fault_injected` events).
struct FaultNotice {
  std::uint64_t time_us = 0;
  std::string endpoint;
  std::string cause;  // "unreachable", "outage", "loss", "rcode-rewrite", ...
  bool has_question = false;
  dns::Name qname;
  dns::RRType qtype = dns::RRType::kA;
};

/// The simulated network fabric.
class Network {
 public:
  explicit Network(SimClock& clock) : clock_(&clock) {}

  /// Performs a full query/response exchange with `server`:
  /// advances the clock by the round trip, accounts packets and bytes, and
  /// returns the decoded response. Returns nullopt after `timeout_us` of
  /// virtual time (0 = the network default) when the exchange is lost —
  /// server unreachable, fault-plan drop, or an in-window outage. The
  /// caller's per-attempt timeout is the retransmission timer: a resilient
  /// resolver passes its RTO so backoff shows up on the virtual clock.
  [[nodiscard]] std::optional<dns::Message> exchange(
      const std::string& from, Endpoint& server, const dns::Message& query,
      std::uint64_t timeout_us = 0);

  /// Marks/unmarks a server id as unreachable (models DLV outages, §8.4).
  /// Implemented as a degenerate fault-plan entry: 100% deterministic loss.
  void set_unreachable(const std::string& endpoint_id, bool unreachable) {
    injector_.set_unreachable(endpoint_id, unreachable);
  }

  /// Installs a seeded fault plan; replaces any previous plan and reseeds
  /// the injector's RNG, so (seed, plan) fixes every subsequent decision.
  void set_fault_plan(FaultPlan plan) { injector_.set_plan(std::move(plan)); }
  [[nodiscard]] FaultInjector& fault_injector() { return injector_; }

  /// Adds a streaming observer for injected faults (alongside any others).
  void add_fault_observer(std::function<void(const FaultNotice&)> observer) {
    if (observer) fault_observers_.push_back(std::move(observer));
  }

  /// Toggles in-memory packet capture (off by default; million-domain
  /// benches keep it off and rely on counters).
  void set_capture_enabled(bool enabled) { capture_enabled_ = enabled; }
  [[nodiscard]] const std::vector<PacketRecord>& capture() const {
    return capture_;
  }
  void clear_capture() { capture_.clear(); }

  /// Installs `observer` as the only streaming observer (invoked for every
  /// packet even when the stored capture is disabled). Passing an empty
  /// function clears all observers.
  void set_observer(std::function<void(const PacketRecord&)> observer) {
    observers_.clear();
    add_observer(std::move(observer));
  }

  /// Adds a streaming observer alongside any existing ones (e.g. a
  /// leakage analyzer plus an obs::Tracer bridge).
  void add_observer(std::function<void(const PacketRecord&)> observer) {
    if (observer) observers_.push_back(std::move(observer));
  }

  /// Counters: "query.<TYPE>", "packets.query", "packets.response",
  /// "bytes.query", "bytes.response", "bytes.total", "timeouts",
  /// "timeouts.partial" (response leg lost — the query still leaked),
  /// "faults.dropped", "faults.mangled", "faults.truncated",
  /// "faults.rrsig_corrupted", "faults.latency_spikes", and "retries"
  /// (count_retry), so one set holds the whole fault/recovery story. A
  /// snapshot built from typed fields; a name with a zero count is absent.
  [[nodiscard]] const metrics::CounterSet counters() const;

  /// Counts one resend by the resolver's retry layer ("retries").
  void count_retry() { ++counts_.retries; }

  [[nodiscard]] LatencyModel& latency() { return latency_; }
  [[nodiscard]] SimClock& clock() { return *clock_; }

  /// Query timeout charged when a server is unreachable (default 5 s).
  void set_timeout_us(std::uint64_t timeout_us) { timeout_us_ = timeout_us; }

 private:
  /// The single accounting path: updates counters, notifies observers and
  /// appends to the stored capture (when enabled) from one record.
  void record(PacketRecord record);

  /// Charges a lost exchange: waits out the timeout, counts it, tells the
  /// fault observers. `partial` marks response-leg losses.
  void charge_timeout(const dns::Message& query, const std::string& to,
                      std::uint64_t wait_us, const char* cause, bool partial);

  void notify_fault(const dns::Message& query, const std::string& to,
                    const char* cause);

  /// What counters() exports, counted on the exchange path without names.
  struct Counts {
    std::uint64_t packets_query = 0;
    std::uint64_t packets_response = 0;
    std::uint64_t bytes_query = 0;
    std::uint64_t bytes_response = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t timeouts_partial = 0;
    std::uint64_t faults_dropped = 0;
    std::uint64_t faults_mangled = 0;
    std::uint64_t faults_truncated = 0;
    std::uint64_t faults_rrsig_corrupted = 0;
    std::uint64_t faults_latency_spikes = 0;
    std::uint64_t retries = 0;
    // Queries by question type: the codes below 256 by index, the rest
    // (DLV, unknown types) by code.
    std::array<std::uint64_t, 256> queries_by_type{};
    std::map<std::uint16_t, std::uint64_t> queries_by_high_type;
  };

  SimClock* clock_;
  LatencyModel latency_;
  Counts counts_;
  std::vector<PacketRecord> capture_;
  bool capture_enabled_ = false;
  std::vector<std::function<void(const PacketRecord&)>> observers_;
  std::vector<std::function<void(const FaultNotice&)>> fault_observers_;
  FaultInjector injector_;
  std::uint64_t timeout_us_ = 5'000'000;
};

}  // namespace lookaside::sim
