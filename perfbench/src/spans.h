// Outside-in tracing for the traced run: sim::Endpoint decorators that time
// every handle_query of the authorities and the DLV registry, and the
// in-memory span log they write to.
//
// A decorator forwards endpoint_id() and latency_override_us() to the
// endpoint it wraps, so the network accounts and schedules every exchange
// exactly as without it; only host time is observed.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dns/message.h"
#include "layers.h"
#include "server/directory.h"
#include "sim/network.h"
#include "workload/universe_world.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Spans of one traced run, kept in memory until the run ends, plus a
/// bounded sample of the messages that crossed the decorators (replayed
/// through the codec afterwards to price encode/decode per op).
class SpanLog {
 public:
  static constexpr std::size_t kMaxSamples = 2048;
  static constexpr std::uint64_t kSampleEvery = 16;

  void set_op(std::uint32_t op) { op_ = op; }

  void record(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
              const lookaside::dns::Message& query,
              const lookaside::dns::Message& response) {
    spans_.push_back({op_, layer, start_ns, end_ns});
    if (calls_++ % kSampleEvery == 0 && samples_.size() < kMaxSamples) {
      samples_.push_back({query, response});
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  using MessagePair = std::pair<lookaside::dns::Message, lookaside::dns::Message>;

  [[nodiscard]] const std::vector<MessagePair>& samples() const {
    return samples_;
  }

 private:
  std::uint32_t op_ = 0;
  std::uint64_t calls_ = 0;
  std::vector<Span> spans_;
  std::vector<MessagePair> samples_;
};

/// Times every handle_query of the endpoint it wraps.
class TimedEndpoint final : public lookaside::sim::Endpoint {
 public:
  TimedEndpoint(lookaside::sim::Endpoint& inner, Layer layer, SpanLog& log)
      : inner_(&inner), layer_(layer), log_(&log) {}

  [[nodiscard]] std::string endpoint_id() const override {
    return inner_->endpoint_id();
  }

  [[nodiscard]] lookaside::dns::Message handle_query(
      const lookaside::dns::Message& query) override {
    const std::uint64_t start = now_ns();
    lookaside::dns::Message response = inner_->handle_query(query);
    const std::uint64_t end = now_ns();
    log_->record(layer_, start, end, query, response);
    return response;
  }

  [[nodiscard]] std::uint64_t latency_override_us(
      const lookaside::dns::Message& query) const override {
    return inner_->latency_override_us(query);
  }

 private:
  lookaside::sim::Endpoint* inner_;
  Layer layer_;
  SpanLog* log_;
};

/// Re-registers every zone of `world`'s directory (root, each TLD,
/// in-addr.arpa, the DLV apex) and its SLD fallback behind a TimedEndpoint.
/// The world keeps owning the wrapped endpoints. Returns false when the
/// directory holds a zone this function does not know, since that zone's
/// time would then be charged to the resolver.
inline bool install_timed_endpoints(lookaside::workload::UniverseWorld& world,
                                    SpanLog& log) {
  using lookaside::dns::Name;
  lookaside::server::ServerDirectory& directory = world.directory();
  std::vector<std::pair<Name, Layer>> zones = {
      {Name::root(), Layer::kServer},
      {Name::parse("in-addr.arpa"), Layer::kServer},
      {world.registry().apex(), Layer::kDlv}};
  for (const std::string& tld : world.universe().tlds()) {
    zones.emplace_back(Name::parse(tld), Layer::kServer);
  }
  if (zones.size() != directory.zone_count()) return false;
  for (const auto& [apex, layer] : zones) {
    lookaside::sim::Endpoint* inner = directory.authority_for_zone(apex);
    if (inner == nullptr) return false;
    directory.register_zone(apex,
                            std::make_shared<TimedEndpoint>(*inner, layer, log));
  }
  // Every SLD apex is served by the one shared authority the fallback
  // returns; rank 1's domain is never registered explicitly.
  lookaside::sim::Endpoint* sld =
      directory.authority_for_zone(world.universe().domain_at(1));
  if (sld == nullptr) return false;
  auto timed_sld = std::make_shared<TimedEndpoint>(*sld, Layer::kServer, log);
  directory.set_fallback(
      [timed_sld](const Name&) -> lookaside::sim::Endpoint* {
        return timed_sld.get();
      });
  return true;
}

}  // namespace perfbench
