#include "dns/name.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace lookaside::dns {

namespace {

char lower(char c) {
  // DNS names are ASCII; branchless A-Z fold beats locale-aware tolower on
  // the million-name construction path.
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c | 0x20) : c;
}

void validate_label(std::string_view label) {
  if (label.empty()) throw std::invalid_argument("empty DNS label");
  if (label.size() > 63) throw std::invalid_argument("DNS label > 63 octets");
}

/// Length of the longest common byte suffix of `a` and `b`: eight bytes at
/// a time while whole words match, then byte by byte.
std::size_t common_suffix_length(std::string_view a, std::string_view b) {
  const std::size_t limit = std::min(a.size(), b.size());
  std::size_t n = 0;
  while (n + 8 <= limit && std::memcmp(a.data() + a.size() - n - 8,
                                       b.data() + b.size() - n - 8, 8) == 0) {
    n += 8;
  }
  while (n < limit && a[a.size() - 1 - n] == b[b.size() - 1 - n]) ++n;
  return n;
}

/// Start of the label of dotted `text` that holds the octet before `end`.
std::size_t label_start(std::string_view text, std::size_t end) {
  const void* dot = memrchr(text.data(), '.', end);
  return dot == nullptr ? 0 : static_cast<const char*>(dot) - text.data() + 1;
}

}  // namespace

Name Name::parse(std::string_view text) {
  if (!text.empty() && text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return root();
  std::size_t start = 0;
  for (std::size_t dot; (dot = text.find('.', start)) != text.npos;
       start = dot + 1) {
    validate_label(text.substr(start, dot - start));
  }
  validate_label(text.substr(start));
  if (text.size() + 2 > 255)
    throw std::invalid_argument("DNS name > 255 octets");
  // One allocation + in-place transform; dots survive lower() unchanged.
  std::string lowered(text);
  for (char& c : lowered) c = lower(c);
  return Name(std::move(lowered));
}

std::size_t Name::hash_text(std::string_view text) {
  // Empty internal text is the root; it must hash to kRootHash no matter
  // which construction path produced it (see kRootHash in name.h).
  return text.empty() ? kRootHash : crypto::fnv1a(text);
}

std::string_view Name::label(std::size_t i) const {
  std::string_view rest = text_;
  for (; i > 0; --i) pop_label(rest);
  return pop_label(rest);
}

Name Name::parent() const {
  if (is_root()) throw std::logic_error("root name has no parent");
  const std::size_t dot = text_.find('.');
  return dot == std::string::npos ? root() : Name(text_.substr(dot + 1));
}

Name Name::with_prefix_label(std::string_view label) const {
  validate_label(label);
  return parse(is_root() ? std::string(label)
                         : std::string(label) + '.' + text_);
}

Name Name::concat(const Name& suffix) const {
  if (is_root()) return suffix;
  if (suffix.is_root()) return *this;
  // Both texts are already validated and lowercase: join them instead of
  // re-parsing.
  std::string text;
  text.reserve(text_.size() + 1 + suffix.text_.size());
  text.append(text_).append(1, '.').append(suffix.text_);
  if (text.size() + 2 > 255)
    throw std::invalid_argument("DNS name > 255 octets");
  return Name(std::move(text));
}

bool Name::is_subdomain_of(const Name& ancestor) const {
  // Must match at a label boundary: "...<dot>ancestor" or all of it.
  const std::size_t cut = text_.size() - ancestor.text_.size();
  return ancestor.is_root() || (text_.ends_with(ancestor.text_) &&
                                (cut == 0 || text_[cut - 1] == '.'));
}

Name Name::without_suffix(const Name& ancestor) const {
  if (!is_subdomain_of(ancestor)) {
    throw std::invalid_argument("without_suffix: not a subdomain");
  }
  if (ancestor.is_root()) return *this;
  if (text_.size() == ancestor.text_.size()) return root();
  return Name(text_.substr(0, text_.size() - ancestor.text_.size() - 1));
}

int Name::canonical_compare(const Name& other) const {
  // Fast path: equal names compare equal without walking labels. The cached
  // hash rejects almost all unequal pairs before the byte compare.
  if (hash_ == other.hash_ && text_ == other.text_) return 0;
  // RFC 4034 §6.1: labels compare right to left, each as unsigned octets
  // (we are already lowercase), and absent labels sort first. Labels hold
  // no dots, so the labels both names share lie inside their longest common
  // byte suffix: skip it and compare the label pair where it stops.
  const std::string_view a = text_;
  const std::string_view b = other.text_;
  const std::size_t common = common_suffix_length(a, b);
  const std::size_t a_stop = a.size() - common;
  const std::size_t b_stop = b.size() - common;
  std::size_t tail = 0;
  while (tail < common && a[a_stop + tail] != '.') ++tail;
  const std::size_t a_start = label_start(a, a_stop);
  const std::size_t b_start = label_start(b, b_stop);
  const int cmp = a.substr(a_start, a_stop + tail - a_start)
                      .compare(b.substr(b_start, b_stop + tail - b_start));
  if (cmp != 0) return cmp < 0 ? -1 : 1;
  // Equal labels both start where the suffix does: one name has run out.
  return a_stop == 0 ? -1 : 1;
}

std::string Name::to_text() const { return is_root() ? "." : text_ + "."; }

Bytes Name::to_wire() const {
  Bytes out;
  out.reserve(wire_length());
  for (std::string_view rest = text_; !rest.empty();) {
    const std::string_view l = pop_label(rest);
    out.push_back(static_cast<std::uint8_t>(l.size()));
    out.insert(out.end(), l.begin(), l.end());
  }
  out.push_back(0);
  return out;
}

}  // namespace lookaside::dns
