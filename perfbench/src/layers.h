// Span records of the traced run and the self-time attribution over them:
// each op's time splits into the server and dlv child spans it contains and
// the remainder, resolver self time, so the three add up to the op time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The layers a child span can belong to.
enum class Layer : std::uint8_t { kServer, kDlv };
inline constexpr std::size_t kLayers = 2;

inline const char* layer_name(Layer layer) {
  return layer == Layer::kServer ? "server" : "dlv";
}

/// One child span: a handle_query call inside op `op`.
struct Span {
  std::uint32_t op = 0;
  Layer layer = Layer::kServer;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Totals over a traced phase, in nanoseconds.
struct LayerTimes {
  std::uint64_t ops = 0;
  std::uint64_t op_ns = 0;                   // sum of op spans
  std::array<std::uint64_t, kLayers> busy_ns{};  // sum of child spans
  std::array<std::uint64_t, kLayers> calls{};
  std::uint64_t self_ns = 0;  // op time not covered by a child span
  bool nested = true;         // every child lies inside its op's interval
};

/// Attributes each op's time (op `i` spans [op_start[i], op_start[i] +
/// op_ns[i]]) to its child spans and to self time. Children of one op never
/// overlap (the simulator is synchronous), so self = op - sum(children),
/// and self + busy adds up to the op total exactly. `nested` is false when
/// a child lies outside its op.
inline LayerTimes attribute(const std::vector<std::uint64_t>& op_start,
                            const std::vector<std::uint64_t>& op_ns,
                            const std::vector<Span>& spans) {
  LayerTimes out;
  out.ops = op_ns.size();
  std::vector<std::uint64_t> child_ns(op_ns.size(), 0);
  for (const Span& span : spans) {
    const auto layer = static_cast<std::size_t>(span.layer);
    if (span.op >= op_ns.size() || op_start.size() != op_ns.size() ||
        span.start_ns < op_start[span.op] || span.end_ns < span.start_ns ||
        span.end_ns > op_start[span.op] + op_ns[span.op]) {
      out.nested = false;
      continue;
    }
    const std::uint64_t duration = span.end_ns - span.start_ns;
    out.busy_ns[layer] += duration;
    ++out.calls[layer];
    child_ns[span.op] += duration;
  }
  for (std::size_t i = 0; i < op_ns.size(); ++i) {
    out.op_ns += op_ns[i];
    if (child_ns[i] > op_ns[i]) {
      out.nested = false;  // overlapping children
      continue;
    }
    out.self_ns += op_ns[i] - child_ns[i];
  }
  return out;
}

}  // namespace perfbench
