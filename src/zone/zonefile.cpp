#include "zone/zonefile.h"

#include <cctype>
#include <charconv>
#include <sstream>

#include "crypto/bytes.h"

namespace lookaside::zone {

namespace {

/// Splits a line into whitespace-separated fields, honoring ';' comments
/// and double-quoted strings (for TXT).
std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> out;
  std::string token;
  bool in_quotes = false;
  bool token_started = false;
  for (char c : line) {
    if (in_quotes) {
      if (c == '"') {
        in_quotes = false;
        out.push_back(token);
        token.clear();
        token_started = false;
      } else {
        token.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      token_started = true;
      token.clear();
      continue;
    }
    if (c == ';') break;
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (token_started && !token.empty()) {
        out.push_back(token);
        token.clear();
      }
      // Leading whitespace means "same owner as previous record"; encode
      // that as an empty first token exactly once.
      if (!token_started && out.empty()) {
        out.emplace_back();
        token_started = true;
      }
      token_started = !out.empty();
      continue;
    }
    token.push_back(c);
    token_started = true;
  }
  if (!token.empty()) out.push_back(token);
  // Drop the leading empty marker if the line was actually blank.
  if (out.size() == 1 && out[0].empty()) out.clear();
  return out;
}

bool is_number(const std::string& text) {
  return !text.empty() &&
         std::all_of(text.begin(), text.end(),
                     [](char c) { return std::isdigit(static_cast<unsigned char>(c)); });
}

// Largest value of each numeric field's wire width.
constexpr std::uint64_t kMax8 = 0xFF;
constexpr std::uint64_t kMax16 = 0xFFFF;
constexpr std::uint64_t kMax32 = 0xFFFFFFFF;

/// A decimal field that fits `max`, its wire width; nullopt for anything
/// else, including digit strings past 64 bits.
std::optional<std::uint64_t> parse_number(std::string_view text,
                                          std::uint64_t max) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [next, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || next != end || value > max) return std::nullopt;
  return value;
}

std::optional<dns::Name> resolve_name(const std::string& token,
                                      const dns::Name& origin) {
  try {
    if (token == "@") return origin;
    if (!token.empty() && token.back() == '.') return dns::Name::parse(token);
    return dns::Name::parse(token).concat(origin);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

std::optional<std::uint32_t> parse_ipv4(const std::string& text) {
  std::uint32_t out = 0;
  int octets = 0;
  std::istringstream stream(text);
  std::string part;
  while (std::getline(stream, part, '.')) {
    if (part.size() > 3) return std::nullopt;
    const auto octet = parse_number(part, kMax8);
    if (!octet) return std::nullopt;
    out = (out << 8) | static_cast<std::uint32_t>(*octet);
    ++octets;
  }
  if (octets != 4) return std::nullopt;
  return out;
}

std::optional<dns::AaaaRdata> parse_ipv6(const std::string& text) {
  // Supports full and '::'-compressed forms without embedded IPv4.
  dns::AaaaRdata out{};
  std::vector<std::uint16_t> head, tail;
  bool seen_gap = false;
  std::string token;
  auto flush = [&](std::vector<std::uint16_t>& dst) -> bool {
    if (token.empty()) return false;
    if (token.size() > 4) return false;
    std::uint16_t value = 0;
    for (char c : token) {
      const char lower = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      int digit;
      if (lower >= '0' && lower <= '9') digit = lower - '0';
      else if (lower >= 'a' && lower <= 'f') digit = lower - 'a' + 10;
      else return false;
      value = static_cast<std::uint16_t>(value << 4 | digit);
    }
    dst.push_back(value);
    token.clear();
    return true;
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == ':') {
      if (i + 1 < text.size() && text[i + 1] == ':') {
        if (seen_gap) return std::nullopt;
        if (!token.empty() && !flush(head)) return std::nullopt;
        seen_gap = true;
        ++i;
        continue;
      }
      if (!token.empty() && !flush(seen_gap ? tail : head)) return std::nullopt;
      continue;
    }
    token.push_back(text[i]);
  }
  if (!token.empty() && !flush(seen_gap ? tail : head)) return std::nullopt;
  const std::size_t groups = head.size() + tail.size();
  if ((!seen_gap && groups != 8) || groups > 8) return std::nullopt;
  std::vector<std::uint16_t> full = head;
  full.insert(full.end(), 8 - groups, 0);
  full.insert(full.end(), tail.begin(), tail.end());
  for (int i = 0; i < 8; ++i) {
    out.address[static_cast<std::size_t>(i * 2)] =
        static_cast<std::uint8_t>(full[static_cast<std::size_t>(i)] >> 8);
    out.address[static_cast<std::size_t>(i * 2 + 1)] =
        static_cast<std::uint8_t>(full[static_cast<std::size_t>(i)]);
  }
  return out;
}

}  // namespace

ZoneFileResult parse_zone_file(std::string_view text,
                               const dns::Name& default_origin) {
  ZoneFileResult result;
  dns::Name origin = default_origin;
  std::uint32_t default_ttl = 3600;
  std::optional<dns::Name> last_owner;

  struct PendingRecord {
    int line;
    dns::ResourceRecord record;
  };
  std::vector<PendingRecord> records;
  std::optional<dns::SoaRdata> soa;
  std::optional<dns::Name> apex;
  std::uint32_t soa_ttl = 3600;

  std::istringstream lines{std::string(text)};
  std::string line;
  int line_number = 0;
  auto fail = [&](int at, std::string message) {
    result.errors.push_back({at, std::move(message)});
  };

  while (std::getline(lines, line)) {
    ++line_number;
    std::vector<std::string> fields = tokenize(line);
    if (fields.empty()) continue;

    // Directives.
    if (fields[0] == "$ORIGIN") {
      if (fields.size() < 2) {
        fail(line_number, "$ORIGIN needs a name");
        continue;
      }
      const auto name = resolve_name(fields[1], dns::Name::root());
      if (!name) {
        fail(line_number, "bad $ORIGIN name: " + fields[1]);
        continue;
      }
      origin = *name;
      continue;
    }
    if (fields[0] == "$TTL") {
      const auto value =
          fields.size() < 2 ? std::nullopt : parse_number(fields[1], kMax32);
      if (!value) {
        fail(line_number, "$TTL needs a 32-bit number");
        continue;
      }
      default_ttl = static_cast<std::uint32_t>(*value);
      continue;
    }

    // Owner handling: empty first field means "previous owner".
    std::size_t index = 0;
    dns::Name owner;
    if (fields[0].empty()) {
      if (!last_owner) {
        fail(line_number, "continuation line before any owner");
        continue;
      }
      owner = *last_owner;
      index = 1;
    } else {
      const auto name = resolve_name(fields[0], origin);
      if (!name) {
        fail(line_number, "bad owner name: " + fields[0]);
        continue;
      }
      owner = *name;
      index = 1;
    }
    last_owner = owner;

    // Optional TTL and class.
    std::uint32_t ttl = default_ttl;
    if (index < fields.size() && is_number(fields[index])) {
      const auto value = parse_number(fields[index], kMax32);
      if (!value) {
        fail(line_number, "TTL out of range: " + fields[index]);
        continue;
      }
      ttl = static_cast<std::uint32_t>(*value);
      ++index;
    }
    if (index < fields.size() && (fields[index] == "IN")) ++index;
    if (index >= fields.size()) {
      fail(line_number, "missing record type");
      continue;
    }
    const std::string type = fields[index++];
    const auto need = [&](std::size_t n) {
      if (fields.size() - index < n) {
        fail(line_number, type + " needs " + std::to_string(n) + " field(s)");
        return false;
      }
      return true;
    };

    if (type == "SOA") {
      if (!need(7)) continue;
      dns::SoaRdata rdata;
      const auto primary = resolve_name(fields[index], origin);
      const auto responsible = resolve_name(fields[index + 1], origin);
      if (!primary || !responsible) {
        fail(line_number, "bad SOA names");
        continue;
      }
      rdata.primary_ns = *primary;
      rdata.responsible = *responsible;
      bool numbers_ok = true;
      std::uint32_t values[5] = {0, 0, 0, 0, 0};
      for (std::size_t i = 0; i < 5; ++i) {
        const auto value = parse_number(fields[index + 2 + i], kMax32);
        if (!value) {
          numbers_ok = false;
          break;
        }
        values[i] = static_cast<std::uint32_t>(*value);
      }
      if (!numbers_ok) {
        fail(line_number, "bad SOA numeric fields");
        continue;
      }
      rdata.serial = values[0];
      rdata.refresh = values[1];
      rdata.retry = values[2];
      rdata.expire = values[3];
      rdata.minimum_ttl = values[4];
      if (soa.has_value()) {
        fail(line_number, "duplicate SOA");
        continue;
      }
      soa = rdata;
      apex = owner;
      soa_ttl = ttl;
      continue;
    }

    dns::Rdata rdata;
    dns::RRType rr_type = dns::RRType::kA;
    if (type == "A") {
      if (!need(1)) continue;
      const auto address = parse_ipv4(fields[index]);
      if (!address) {
        fail(line_number, "bad IPv4 address: " + fields[index]);
        continue;
      }
      rdata = dns::ARdata{*address};
      rr_type = dns::RRType::kA;
    } else if (type == "AAAA") {
      if (!need(1)) continue;
      const auto address = parse_ipv6(fields[index]);
      if (!address) {
        fail(line_number, "bad IPv6 address: " + fields[index]);
        continue;
      }
      rdata = *address;
      rr_type = dns::RRType::kAaaa;
    } else if (type == "NS" || type == "CNAME" || type == "PTR") {
      if (!need(1)) continue;
      const auto target = resolve_name(fields[index], origin);
      if (!target) {
        fail(line_number, "bad target name: " + fields[index]);
        continue;
      }
      if (type == "NS") {
        rdata = dns::NsRdata{*target};
        rr_type = dns::RRType::kNs;
      } else if (type == "CNAME") {
        rdata = dns::CnameRdata{*target};
        rr_type = dns::RRType::kCname;
      } else {
        rdata = dns::PtrRdata{*target};
        rr_type = dns::RRType::kPtr;
      }
    } else if (type == "MX") {
      if (!need(2)) continue;
      const auto preference = parse_number(fields[index], kMax16);
      if (!preference) {
        fail(line_number, "bad MX preference");
        continue;
      }
      const auto exchanger = resolve_name(fields[index + 1], origin);
      if (!exchanger) {
        fail(line_number, "bad MX exchanger");
        continue;
      }
      rdata = dns::MxRdata{static_cast<std::uint16_t>(*preference), *exchanger};
      rr_type = dns::RRType::kMx;
    } else if (type == "TXT") {
      if (!need(1)) continue;
      dns::TxtRdata txt;
      for (std::size_t i = index; i < fields.size(); ++i) {
        txt.strings.push_back(fields[i]);
      }
      rdata = std::move(txt);
      rr_type = dns::RRType::kTxt;
    } else if (type == "DS" || type == "DLV") {
      if (!need(4)) continue;
      const auto key_tag = parse_number(fields[index], kMax16);
      const auto algorithm = parse_number(fields[index + 1], kMax8);
      const auto digest_type = parse_number(fields[index + 2], kMax8);
      if (!key_tag || !algorithm || !digest_type) {
        fail(line_number, "bad " + type + " numeric fields");
        continue;
      }
      dns::DsRdata ds;
      ds.key_tag = static_cast<std::uint16_t>(*key_tag);
      ds.algorithm = static_cast<std::uint8_t>(*algorithm);
      ds.digest_type = static_cast<std::uint8_t>(*digest_type);
      try {
        ds.digest = crypto::from_hex(fields[index + 3]);
      } catch (const std::invalid_argument&) {
        fail(line_number, "bad " + type + " digest hex");
        continue;
      }
      rdata = std::move(ds);
      rr_type = type == "DS" ? dns::RRType::kDs : dns::RRType::kDlv;
    } else {
      fail(line_number, "unsupported record type: " + type);
      continue;
    }

    records.push_back(
        {line_number,
         dns::ResourceRecord::make_typed(owner, rr_type, ttl, std::move(rdata))});
  }

  if (!soa.has_value()) {
    fail(1, "zone file has no SOA record");
    return result;
  }
  Zone zone(*apex, *soa, soa_ttl);
  for (PendingRecord& pending : records) {
    try {
      zone.add(std::move(pending.record));
    } catch (const std::invalid_argument& error) {
      fail(pending.line, error.what());
    }
  }
  if (result.errors.empty()) result.zone = std::move(zone);
  return result;
}

std::string render_zone_file(const Zone& zone) {
  std::ostringstream out;
  out << "$ORIGIN " << zone.apex().to_text() << "\n";
  zone.for_each_owner([&](const dns::Name& owner) {
    for (dns::RRType type : zone.types_at(owner)) {
      const dns::RRset* rrset = zone.find(owner, type);
      if (rrset == nullptr) continue;
      for (const dns::ResourceRecord& record : rrset->records()) {
        if (record.type == dns::RRType::kSoa) {
          const auto& soa = std::get<dns::SoaRdata>(record.rdata);
          out << record.name.to_text() << " " << record.ttl << " IN SOA "
              << soa.primary_ns.to_text() << " " << soa.responsible.to_text()
              << " " << soa.serial << " " << soa.refresh << " " << soa.retry
              << " " << soa.expire << " " << soa.minimum_ttl << "\n";
        } else {
          out << record.to_text() << "\n";
        }
      }
    }
  });
  return out.str();
}

}  // namespace lookaside::zone
