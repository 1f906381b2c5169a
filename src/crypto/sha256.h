// SHA-256 (FIPS 180-4), implemented from scratch for the DNSSEC substrate.
//
// Used for RRSIG message digests (RSASHA256-style), DS digests (digest type
// 2), and the privacy-preserving DLV remedy's domain-name hashing.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "crypto/bytes.h"

namespace lookaside::crypto {

/// Incremental SHA-256 context.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  /// Absorbs `len` bytes at `data`. May be called repeatedly.
  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(std::string_view text) {
    update(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  }

  /// Finalizes and returns the 32-byte digest. The context must not be
  /// updated afterwards; construct a fresh one for a new message.
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  [[nodiscard]] static Digest digest(std::span<const std::uint8_t> data);
  [[nodiscard]] static Digest digest(std::string_view text);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace lookaside::crypto
