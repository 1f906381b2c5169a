#include "dns/name.h"

#include <algorithm>
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

}  // namespace

Name Name::parse(std::string_view text) {
  if (!text.empty() && text.back() == '.') text.remove_suffix(1);
  Name out;
  if (text.empty()) return out;  // root
  out.label_starts_.push_back(0);
  std::size_t label_start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '.') {
      validate_label(text.substr(label_start, i - label_start));
      if (i != text.size()) {
        out.label_starts_.push_back(static_cast<std::uint16_t>(i + 1));
        label_start = i + 1;
      }
    }
  }
  // One allocation + in-place transform; dots survive lower() unchanged.
  out.text_.assign(text);
  for (char& c : out.text_) c = lower(c);
  out.hash_ = hash_text(out.text_);
  if (out.wire_length() > 255) {
    throw std::invalid_argument("DNS name > 255 octets");
  }
  return out;
}

std::size_t Name::hash_text(std::string_view text) {
  // Empty internal text is the root; it must hash to kRootHash no matter
  // which construction path produced it (see kRootHash in name.h).
  if (text.empty()) return kRootHash;
  // FNV-1a 64.
  std::size_t h = kEmptyHash;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string_view Name::label(std::size_t i) const {
  const std::size_t start = label_starts_[i];
  const std::size_t end =
      i + 1 < label_starts_.size() ? label_starts_[i + 1] - 1 : text_.size();
  return std::string_view(text_).substr(start, end - start);
}

Name Name::parent() const {
  if (is_root()) throw std::logic_error("root name has no parent");
  if (label_count() == 1) return root();
  Name out;
  const std::size_t cut = label_starts_[1];
  out.text_ = text_.substr(cut);
  out.hash_ = hash_text(out.text_);
  out.label_starts_.reserve(label_starts_.size() - 1);
  for (std::size_t i = 1; i < label_starts_.size(); ++i) {
    out.label_starts_.push_back(
        static_cast<std::uint16_t>(label_starts_[i] - cut));
  }
  return out;
}

Name Name::with_prefix_label(std::string_view label) const {
  validate_label(label);
  std::string text(label);
  if (!is_root()) {
    text.push_back('.');
    text += text_;
  }
  return parse(text);
}

Name Name::concat(const Name& suffix) const {
  if (is_root()) return suffix;
  if (suffix.is_root()) return *this;
  // Both label lists are already validated and lowercase: splice them
  // instead of re-parsing the joined text.
  Name out;
  out.text_.reserve(text_.size() + 1 + suffix.text_.size());
  out.text_.append(text_).append(1, '.').append(suffix.text_);
  if (out.wire_length() > 255) {
    throw std::invalid_argument("DNS name > 255 octets");
  }
  const std::size_t shift = text_.size() + 1;
  out.label_starts_.reserve(label_starts_.size() + suffix.label_starts_.size());
  out.label_starts_.assign(label_starts_.begin(), label_starts_.end());
  for (const std::uint16_t start : suffix.label_starts_) {
    out.label_starts_.push_back(static_cast<std::uint16_t>(start + shift));
  }
  out.hash_ = hash_text(out.text_);
  return out;
}

bool Name::is_subdomain_of(const Name& ancestor) const {
  if (ancestor.is_root()) return true;
  if (ancestor.text_.size() > text_.size()) return false;
  if (ancestor.text_.size() == text_.size()) return text_ == ancestor.text_;
  // Must match a label boundary: "...<dot>ancestor".
  const std::size_t offset = text_.size() - ancestor.text_.size();
  return text_[offset - 1] == '.' &&
         text_.compare(offset, std::string::npos, ancestor.text_) == 0;
}

Name Name::without_suffix(const Name& ancestor) const {
  if (!is_subdomain_of(ancestor)) {
    throw std::invalid_argument("without_suffix: not a subdomain");
  }
  if (ancestor.is_root()) return *this;
  if (text_.size() == ancestor.text_.size()) return root();
  return parse(text_.substr(0, text_.size() - ancestor.text_.size() - 1));
}

int Name::canonical_compare(const Name& other) const {
  // Fast path: equal names compare equal without walking labels. The cached
  // hash rejects almost all unequal pairs before the byte compare.
  if (hash_ == other.hash_ && text_ == other.text_) return 0;
  // RFC 4034 §6.1: compare label sequences right to left; each label
  // byte-wise (we are already lowercase); absent labels sort first.
  const std::size_t n1 = label_count();
  const std::size_t n2 = other.label_count();
  const std::size_t common = std::min(n1, n2);
  for (std::size_t i = 1; i <= common; ++i) {
    const std::string_view l1 = label(n1 - i);
    const std::string_view l2 = other.label(n2 - i);
    const int cmp = l1.compare(l2);
    if (cmp != 0) return cmp < 0 ? -1 : 1;
  }
  if (n1 != n2) return n1 < n2 ? -1 : 1;
  return 0;
}

std::string Name::to_text() const {
  if (is_root()) return ".";
  return text_ + ".";
}

Bytes Name::to_wire() const {
  Bytes out;
  out.reserve(wire_length());
  for (std::size_t i = 0; i < label_count(); ++i) {
    const std::string_view l = label(i);
    out.push_back(static_cast<std::uint8_t>(l.size()));
    out.insert(out.end(), l.begin(), l.end());
  }
  out.push_back(0);
  return out;
}

std::size_t Name::wire_length() const {
  // One length octet per label + label bytes + terminating root octet.
  return is_root() ? 1 : text_.size() + 2;
}

}  // namespace lookaside::dns
