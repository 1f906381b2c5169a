// NSEC3 hashed-denial primitives (RFC 5155).
//
// The hash is the iterated SHA-1 of RFC 5155 §5 over the canonical
// (lowercased, uncompressed) wire form of the owner name:
//
//   IH(salt, x, 0)   = H(x || salt)
//   IH(salt, x, k)   = H(IH(salt, x, k-1) || salt)   for k > 0
//
// so `iterations` counts *additional* hash invocations beyond the first —
// the attacker-controlled CPU knob this PR weaponizes and defends.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <span>
#include <string>

#include "crypto/bytes.h"
#include "crypto/sha1.h"
#include "dns/name.h"

namespace lookaside::zone {

/// Cost accounting helper: hash invocations performed by one nsec3_hash call.
[[nodiscard]] constexpr std::uint64_t nsec3_hash_ops(std::uint16_t iterations) {
  return static_cast<std::uint64_t>(iterations) + 1;
}

/// RFC 5155 §5 iterated hash of `name` (canonical wire form). Returns the raw
/// 20-byte SHA-1 digest and allocates nothing. Throws std::invalid_argument
/// for a salt over 255 octets, which no NSEC3 record can carry.
[[nodiscard]] crypto::Sha1::Digest nsec3_hash(const dns::Name& name,
                                              const crypto::Bytes& salt,
                                              std::uint16_t iterations);

/// Orders hash `a` against hash `b` as two crypto::Bytes compare:
/// lexicographically, a proper prefix first. Hashes presented in NSEC3
/// records come off the wire and need not be 20 octets.
[[nodiscard]] inline std::strong_ordering compare_hashes(
    std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                b.begin(), b.end());
}

/// Base32hex (RFC 4648 §7, lowercase, no padding needed for 20-byte input)
/// used for NSEC3 owner labels: 20 digest bytes become 32 characters.
[[nodiscard]] std::string base32hex_encode(std::span<const std::uint8_t> data);

/// Inverse of base32hex_encode; accepts either case. Throws
/// std::invalid_argument on characters outside the base32hex alphabet or an
/// input length whose bit count does not fall on a byte boundary.
[[nodiscard]] crypto::Bytes base32hex_decode(std::string_view text);

/// The NSEC3 owner name for `name` in the zone rooted at `apex`:
/// base32hex(nsec3_hash(name)) prefixed onto the apex.
[[nodiscard]] dns::Name nsec3_owner(const dns::Name& name,
                                    const dns::Name& apex,
                                    const crypto::Bytes& salt,
                                    std::uint16_t iterations);

}  // namespace lookaside::zone
