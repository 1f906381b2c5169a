// SHA-1 (FIPS 180-4), used only where the DNSSEC specs require it: the
// iterated NSEC3 owner hash (RFC 5155), its hot use, and DS digest type 1.
// Not used for new signatures.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "crypto/bytes.h"

namespace lookaside::crypto {

/// Incremental SHA-1 context. Interface mirrors Sha256.
class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1();

  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(std::string_view text) {
    update(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  }

  /// Finalizes and returns the 20-byte digest; context is spent afterwards.
  [[nodiscard]] Digest finish();

  [[nodiscard]] static Digest digest(std::span<const std::uint8_t> data);
  [[nodiscard]] static Digest digest(std::string_view text);

 private:
  std::array<std::uint32_t, 5> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace lookaside::crypto
