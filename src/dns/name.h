// Domain names: parsing, hierarchy operations, RFC 4034 canonical ordering,
// and wire-format serialization.
//
// Names are normalized to lower case at construction (DNS comparison is
// case-insensitive; 0x20 case randomization is out of scope, see DESIGN.md).
// A name is its dotted text and that text's hash. No label holds a '.'
// (parse splits on dots; the wire decoders reject one), so the dots mark
// every label boundary and copying a name copies just one string.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "crypto/bytes.h"
#include "crypto/fnv.h"

namespace lookaside::dns {

using crypto::Bytes;

/// An absolute domain name ("example.com."). Value-semantic and immutable.
class Name {
 public:
  /// The root name ".".
  Name() = default;

  /// Parses dotted text; a trailing dot is accepted and ignored ("a.b" and
  /// "a.b." are the same absolute name). Throws std::invalid_argument for
  /// empty labels, labels > 63 octets, or wire length > 255.
  static Name parse(std::string_view text);

  /// The root name; equivalent to Name{}.
  static Name root() { return Name{}; }

  [[nodiscard]] bool is_root() const { return text_.empty(); }
  [[nodiscard]] std::size_t label_count() const {
    return is_root() ? 0 : 1 + std::count(text_.begin(), text_.end(), '.');
  }

  /// Label `i` counted from the leftmost (most specific) label.
  [[nodiscard]] std::string_view label(std::size_t i) const;

  /// Removes and returns the leftmost label of `rest`, a name's internal
  /// text or a label-aligned suffix of it; the wire loops walk labels so.
  static std::string_view pop_label(std::string_view& rest) {
    const std::size_t dot = std::min(rest.find('.'), rest.size());
    const std::string_view label = rest.substr(0, dot);
    rest.remove_prefix(std::min(dot + 1, rest.size()));
    return label;
  }

  /// Name with the leftmost label removed; parent of root throws
  /// std::logic_error. ("www.example.com" -> "example.com").
  [[nodiscard]] Name parent() const;

  /// Prepends one label ("www" + "example.com" -> "www.example.com").
  [[nodiscard]] Name with_prefix_label(std::string_view label) const;

  /// Concatenation: this name's labels followed by `suffix`'s labels
  /// ("example.com" + "dlv.isc.org" -> "example.com.dlv.isc.org").
  [[nodiscard]] Name concat(const Name& suffix) const;

  /// True when this name equals `ancestor` or lies beneath it.
  [[nodiscard]] bool is_subdomain_of(const Name& ancestor) const;

  /// Strips `ancestor`'s labels from the right; requires is_subdomain_of.
  /// ("example.com.dlv.isc.org" minus "dlv.isc.org" -> "example.com").
  [[nodiscard]] Name without_suffix(const Name& ancestor) const;

  /// RFC 4034 §6.1 canonical ordering: -1 / 0 / +1.
  [[nodiscard]] int canonical_compare(const Name& other) const;

  /// Dotted text with trailing dot; root renders as ".".
  [[nodiscard]] std::string to_text() const;

  /// Uncompressed wire form: length-prefixed labels + root octet.
  [[nodiscard]] Bytes to_wire() const;

  /// Octets to_wire() would produce: the text, whose dots become length
  /// octets, plus the first label's length octet and the root octet.
  [[nodiscard]] std::size_t wire_length() const {
    return is_root() ? 1 : text_.size() + 2;
  }

  friend bool operator==(const Name& a, const Name& b) {
    return a.hash_ == b.hash_ && a.text_ == b.text_;
  }
  /// operator< is canonical order so Name sorts the way NSEC chains need.
  friend bool operator<(const Name& a, const Name& b) {
    return a.canonical_compare(b) < 0;
  }

  /// The normalized internal text (no trailing dot; empty for root).
  [[nodiscard]] const std::string& internal_text() const { return text_; }

  /// Canonical-form hash (FNV-1a 64 over the lowercase text), computed once
  /// at construction so cache probes and hash-map keys never re-hash.
  [[nodiscard]] std::size_t hash() const { return hash_; }

  /// Canonical hash of the root name. Distinct from the raw FNV offset
  /// basis (the hash of zero input bytes), so hash-first comparisons and
  /// the NameHashMap control-byte prefilter can never confuse "nothing
  /// hashed yet" with "the root name". The value deliberately differs from
  /// the basis only in bits 45–51: NameHashMap derives the slot index from
  /// the hash's low bits (a table would need 2^45 slots before bit 45
  /// matters) and the control-byte fragment from the top 7 bits, so
  /// de-aliasing the root does not move any existing table placement —
  /// eviction order under max_cache_bytes is a pinned observable and must
  /// not shift underneath a hash-constant fix.
  static constexpr std::size_t kRootHash =
      crypto::kFnv1aBasis ^ (0x7FULL << 45);

 private:
  /// Adopts `text`, already validated and lowercase, and hashes it.
  explicit Name(std::string text)
      : text_(std::move(text)), hash_(hash_text(text_)) {}

  [[nodiscard]] static std::size_t hash_text(std::string_view text);

  std::string text_;  // lowercase, no trailing dot
  std::size_t hash_ = kRootHash;
};

/// Hash functor so Name can key unordered containers; reuses the memoized
/// canonical hash.
struct NameHash {
  std::size_t operator()(const Name& name) const { return name.hash(); }
};

}  // namespace lookaside::dns
