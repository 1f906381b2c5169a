// Shared byte-buffer alias and hex helpers used across the library.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lookaside::crypto {

/// The library-wide octet buffer type (wire messages, digests, keys, ...).
using Bytes = std::vector<std::uint8_t>;

/// Lower-case hex encoding of `data`.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> data);

/// Parses lower/upper-case hex; throws std::invalid_argument on bad input.
[[nodiscard]] Bytes from_hex(std::string_view hex);

/// Converts a string's bytes verbatim.
[[nodiscard]] Bytes bytes_of(std::string_view text);

}  // namespace lookaside::crypto
