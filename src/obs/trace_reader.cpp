#include "obs/trace_reader.h"

#include <cstdint>
#include <fstream>

namespace lookaside::obs {

namespace {

/// Cursor over one line; the helpers consume whitespace-free JSON as
/// emitted by to_jsonl but skip blanks defensively.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  [[nodiscard]] bool done() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return done() ? '\0' : text[pos]; }
  void skip_ws() {
    while (!done() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  }
  bool consume(char c) {
    skip_ws();
    if (done() || text[pos] != c) return false;
    ++pos;
    return true;
  }
};

bool parse_string(Cursor& cursor, std::string* out) {
  if (!cursor.consume('"')) return false;
  out->clear();
  while (!cursor.done()) {
    const char c = cursor.text[cursor.pos++];
    if (c == '"') return true;
    if (c == '\\') {
      if (cursor.done()) return false;
      const char escaped = cursor.text[cursor.pos++];
      switch (escaped) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (cursor.pos + 4 > cursor.text.size()) return false;
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = cursor.text[cursor.pos++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // Control characters only (that is all the writer emits).
          *out += static_cast<char>(value & 0xFF);
          break;
        }
        default: return false;
      }
    } else {
      *out += c;
    }
  }
  return false;  // unterminated
}

bool parse_number(Cursor& cursor, std::uint64_t* out) {
  cursor.skip_ws();
  if (cursor.done()) return false;
  std::uint64_t value = 0;
  bool any = false;
  while (!cursor.done()) {
    const char c = cursor.peek();
    if (c < '0' || c > '9') break;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    ++cursor.pos;
    any = true;
  }
  if (any) *out = value;
  return any;
}

}  // namespace

bool parse_jsonl_event(std::string_view line, Event* out) {
  Cursor cursor{line};
  if (!cursor.consume('{')) return false;
  Event event;
  bool kind_seen = false;

  bool first = true;
  for (;;) {
    cursor.skip_ws();
    if (cursor.consume('}')) break;
    if (!first && !cursor.consume(',')) return false;
    first = false;

    std::string key;
    if (!parse_string(cursor, &key)) return false;
    if (!cursor.consume(':')) return false;

    cursor.skip_ws();
    if (cursor.peek() == '"') {
      std::string value;
      if (!parse_string(cursor, &value)) return false;
      if (key == "kind") {
        if (!event_kind_from_name(value, &event.kind)) return false;
        kind_seen = true;
      } else if (key == "name") {
        event.name = std::move(value);
      } else if (key == "server") {
        event.server = std::move(value);
      } else if (key == "detail") {
        event.detail = std::move(value);
      }
      // Unknown string keys are tolerated.
    } else {
      std::uint64_t value = 0;
      if (!parse_number(cursor, &value)) return false;
      if (key == "time_us") event.time_us = value;
      else if (key == "span") event.span_id = value;
      else if (key == "parent") event.parent_span_id = value;
      else if (key == "query") event.query_id = value;
      else if (key == "client") event.client = value;
      else if (key == "qtype") event.qtype = static_cast<dns::RRType>(value);
      else if (key == "rcode") event.rcode = static_cast<dns::RCode>(value);
      else if (key == "bytes") event.bytes = value;
      else if (key == "latency_us") event.latency_us = value;
      // Unknown numeric keys are tolerated.
    }
  }
  if (!kind_seen) return false;
  *out = std::move(event);
  return true;
}

std::vector<Event> read_jsonl_events(std::istream& in, TraceReadStats* stats) {
  std::vector<Event> out;
  TraceReadStats local;
  std::string line;
  while (std::getline(in, line)) {
    // getline hitting EOF before a '\n' means the final record was cut off
    // mid-write; if it also fails to parse, flag it as a truncated tail
    // rather than silently lumping it with ordinary garbage.
    const bool tail_without_newline = in.eof();
    if (line.empty()) continue;
    Event event;
    if (parse_jsonl_event(line, &event)) {
      out.push_back(std::move(event));
    } else {
      ++local.malformed;
      if (tail_without_newline) local.truncated_tail = true;
    }
  }
  local.events = out.size();
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<Event> read_jsonl_file(const std::string& path,
                                   TraceReadStats* stats) {
  std::ifstream in(path);
  if (!in.good()) {
    if (stats != nullptr) *stats = {};
    return {};
  }
  return read_jsonl_events(in, stats);
}

}  // namespace lookaside::obs
