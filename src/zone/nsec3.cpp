#include "zone/nsec3.h"

#include <array>
#include <stdexcept>

#include "crypto/sha_kernels.h"

namespace lookaside::zone {

namespace {

constexpr char kBase32HexAlphabet[] = "0123456789abcdefghijklmnopqrstuv";

[[nodiscard]] int base32hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'v') return c - 'a' + 10;
  if (c >= 'A' && c <= 'V') return c - 'A' + 10;
  return -1;
}

}  // namespace

crypto::Sha1::Digest nsec3_hash(const dns::Name& name,
                                const crypto::Bytes& salt,
                                std::uint16_t iterations) {
  constexpr std::size_t kMaxOctets = 255;  // of a wire name, and of a salt
  if (salt.size() > kMaxOctets) {
    throw std::invalid_argument("NSEC3 salt over 255 octets");
  }
  // Every hash input lives in one stack buffer: the wire name then the salt
  // for the first hash, the previous digest then the salt after it. The
  // name is canonical already: labels are lowercased on parse.
  std::array<std::uint8_t, 2 * kMaxOctets> input;
  auto at = input.begin();
  for (std::string_view rest = name.internal_text(); !rest.empty();) {
    const std::string_view label = dns::Name::pop_label(rest);
    *at++ = static_cast<std::uint8_t>(label.size());
    at = std::copy(label.begin(), label.end(), at);
  }
  *at++ = 0;
  at = std::copy(salt.begin(), salt.end(), at);
  crypto::Sha1::Digest digest =
      crypto::Sha1::digest(std::span(input.begin(), at));
  // A later input of at most 55 octets is one block once padded, and only
  // its first 20 octets change: pad it once and iterate on the kernel.
  const std::size_t round_octets = digest.size() + salt.size();
  if (round_octets <= 55) {
    std::array<std::uint8_t, 64> block{};
    std::copy(salt.begin(), salt.end(), block.begin() + digest.size());
    block[round_octets] = 0x80;
    const std::uint64_t bits = 8 * round_octets;
    for (int i = 0; i < 8; ++i) {
      block[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    }
    crypto::kernels::Sha1State state;
    for (std::size_t i = 0; i < state.size(); ++i) {
      state[i] = static_cast<std::uint32_t>(digest[4 * i]) << 24 |
                 static_cast<std::uint32_t>(digest[4 * i + 1]) << 16 |
                 static_cast<std::uint32_t>(digest[4 * i + 2]) << 8 |
                 digest[4 * i + 3];
    }
    crypto::kernels::sha1_iterate_kernel()(state, block.data(), iterations);
    for (std::size_t i = 0; i < digest.size(); ++i) {
      digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
    }
    return digest;
  }
  std::copy(salt.begin(), salt.end(), input.begin() + digest.size());
  const std::span<const std::uint8_t> round(input.data(),
                                            digest.size() + salt.size());
  for (std::uint16_t k = 0; k < iterations; ++k) {
    std::copy(digest.begin(), digest.end(), input.begin());
    digest = crypto::Sha1::digest(round);
  }
  return digest;
}

std::string base32hex_encode(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve((data.size() * 8 + 4) / 5);
  std::uint32_t buffer = 0;
  int bits = 0;
  for (std::uint8_t byte : data) {
    buffer = (buffer << 8) | byte;
    bits += 8;
    while (bits >= 5) {
      bits -= 5;
      out.push_back(kBase32HexAlphabet[(buffer >> bits) & 0x1F]);
    }
  }
  if (bits > 0) {
    out.push_back(kBase32HexAlphabet[(buffer << (5 - bits)) & 0x1F]);
  }
  return out;
}

crypto::Bytes base32hex_decode(std::string_view text) {
  crypto::Bytes out;
  out.reserve(text.size() * 5 / 8);
  std::uint32_t buffer = 0;
  int bits = 0;
  for (char c : text) {
    const int value = base32hex_value(c);
    if (value < 0) throw std::invalid_argument("bad base32hex character");
    buffer = (buffer << 5) | static_cast<std::uint32_t>(value);
    bits += 5;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((buffer >> bits) & 0xFF));
    }
  }
  // Trailing bits must be padding zeros of an exact byte boundary encoding.
  if (bits >= 5 || (buffer & ((1U << bits) - 1)) != 0) {
    throw std::invalid_argument("base32hex input not byte-aligned");
  }
  return out;
}

dns::Name nsec3_owner(const dns::Name& name, const dns::Name& apex,
                      const crypto::Bytes& salt, std::uint16_t iterations) {
  return apex.with_prefix_label(
      base32hex_encode(nsec3_hash(name, salt, iterations)));
}

}  // namespace lookaside::zone
