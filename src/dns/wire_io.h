// Low-level big-endian wire readers/writers shared by the codecs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "crypto/bytes.h"
#include "crypto/fnv.h"

namespace lookaside::dns {

using crypto::Bytes;

/// Thrown when decoding runs off the end of a packet or meets bad structure.
class WireFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends one decoded wire label (1..63 octets) to a name's dotted text.
/// Throws WireFormatError where Name::parse would throw or would split the
/// label: the name passes 255 octets, or the label holds a '.' octet.
/// Callers decoding untrusted packets catch only WireFormatError.
inline void append_wire_label(std::string& text, const Bytes& label) {
  if (std::find(label.begin(), label.end(), '.') != label.end()) {
    throw WireFormatError("'.' octet inside a DNS label");
  }
  if (!text.empty()) text.push_back('.');
  text.append(label.begin(), label.end());
  // Wire length: the dotted text plus the first length octet and the root.
  if (text.size() + 2 > 255) throw WireFormatError("DNS name > 255 octets");
}

/// Appends big-endian integers and raw bytes to a growing buffer.
class ByteWriter {
 public:
  /// Reserves room for `octets` in total, so a sized encode allocates once.
  void reserve(std::size_t octets) { out_.reserve(octets); }

  void u8(std::uint8_t value) { out_.push_back(value); }
  void u16(std::uint16_t value) {
    out_.push_back(static_cast<std::uint8_t>(value >> 8));
    out_.push_back(static_cast<std::uint8_t>(value));
  }
  void u32(std::uint32_t value) {
    u16(static_cast<std::uint16_t>(value >> 16));
    u16(static_cast<std::uint16_t>(value));
  }
  void raw(const Bytes& data) { out_.insert(out_.end(), data.begin(), data.end()); }
  void raw(const std::uint8_t* data, std::size_t len) {
    out_.insert(out_.end(), data, data + len);
  }

  /// Overwrites a previously written 16-bit field at `offset`.
  void patch_u16(std::size_t offset, std::uint16_t value) {
    out_.at(offset) = static_cast<std::uint8_t>(value >> 8);
    out_.at(offset + 1) = static_cast<std::uint8_t>(value);
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] const Bytes& bytes() const { return out_; }
  [[nodiscard]] Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

/// ByteWriter's interface with nothing written: each call only adds its
/// length, and patch_u16 does nothing. Running the encoder over it gives an
/// encoding's exact size without allocating.
class CountingWriter {
 public:
  void u8(std::uint8_t) { size_ += 1; }
  void u16(std::uint16_t) { size_ += 2; }
  void u32(std::uint32_t) { size_ += 4; }
  void raw(const Bytes& data) { size_ += data.size(); }
  void raw(const std::uint8_t*, std::size_t len) { size_ += len; }
  void patch_u16(std::size_t, std::uint16_t) {}

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// ByteWriter's interface folding each octet into a running FNV-1a 64
/// instead of storing it: a fingerprint of an encoding without allocating.
class HashingWriter {
 public:
  void u8(std::uint8_t value) { raw(&value, 1); }
  void u16(std::uint16_t value) {
    const std::uint8_t octets[] = {static_cast<std::uint8_t>(value >> 8),
                                   static_cast<std::uint8_t>(value)};
    raw(octets, 2);
  }
  void u32(std::uint32_t value) {
    u16(static_cast<std::uint16_t>(value >> 16));
    u16(static_cast<std::uint16_t>(value));
  }
  void raw(const Bytes& data) { hash_ = crypto::fnv1a(data, hash_); }
  void raw(const std::uint8_t* data, std::size_t len) {
    hash_ = crypto::fnv1a({data, len}, hash_);
  }

  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = crypto::kFnv1aBasis;
};

/// Reads big-endian integers and raw bytes; throws WireFormatError on
/// truncation.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() {
    require(2);
    const std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8) |
                            data_[pos_ + 1];
    pos_ += 2;
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  [[nodiscard]] Bytes raw(std::size_t len) {
    require(len);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

  void seek(std::size_t pos) {
    if (pos > data_.size()) throw WireFormatError("seek past end");
    pos_ = pos;
  }

  [[nodiscard]] const Bytes& data() const { return data_; }

 private:
  void require(std::size_t len) const {
    if (pos_ + len > data_.size()) throw WireFormatError("truncated packet");
  }

  const Bytes& data_;
  std::size_t pos_ = 0;
};

}  // namespace lookaside::dns
