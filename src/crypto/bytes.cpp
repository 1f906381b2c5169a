#include "crypto/bytes.h"

#include <stdexcept>

namespace lookaside::crypto {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("invalid hex digit");
}
}  // namespace

std::string to_hex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0F]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument("odd-length hex string");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(hex_value(hex[i]) << 4 |
                                            hex_value(hex[i + 1])));
  }
  return out;
}

Bytes bytes_of(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

}  // namespace lookaside::crypto
