// JSONL trace reader: the inverse of to_jsonl(), used by
// examples/trace_inspect and the round-trip tests.
//
// The parser accepts flat JSON objects with string and unsigned-integer
// values — exactly the schema JsonlFileSink writes — and tolerates unknown
// keys so the schema can grow without breaking old inspectors.
#pragma once

#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.h"

namespace lookaside::obs {

/// Parses one JSONL line. Returns false on malformed input or an unknown
/// event kind.
[[nodiscard]] bool parse_jsonl_event(std::string_view line, Event* out);

/// What one read pass saw: parsed events, malformed lines skipped, and
/// whether the final line was cut off mid-record (no trailing newline and
/// unparseable — the signature of a truncated write / crashed producer).
struct TraceReadStats {
  std::size_t events = 0;
  std::size_t malformed = 0;
  bool truncated_tail = false;
};

/// Reads every well-formed event line from `in`; never aborts on a bad
/// line — malformed lines (including a truncated trailing record) are
/// skipped and counted into `*stats` when provided.
[[nodiscard]] std::vector<Event> read_jsonl_events(
    std::istream& in, TraceReadStats* stats = nullptr);

/// Convenience: opens `path` and reads it. Empty result on open failure.
[[nodiscard]] std::vector<Event> read_jsonl_file(
    const std::string& path, TraceReadStats* stats = nullptr);

}  // namespace lookaside::obs
