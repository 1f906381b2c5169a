// FNV-1a 64, the simulator's one non-cryptographic hash: name hashes,
// per-name coins, synthetic addresses, latencies and verdict keys.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace lookaside::crypto {

/// The FNV-1a 64 offset basis: the hash of zero input bytes.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ULL;

/// FNV-1a 64 of `bytes`, continuing the running hash `hash`.
[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                         std::uint64_t hash = kFnv1aBasis) {
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view text,
                                         std::uint64_t hash = kFnv1aBasis) {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()},
               hash);
}

/// A deterministic coin in [0, 1) for `text`: the top 53 bits of its hash.
[[nodiscard]] inline double fnv1a_unit(std::string_view text) {
  return static_cast<double>(fnv1a(text) >> 11) * 0x1.0p-53;
}

}  // namespace lookaside::crypto
