#include "crypto/sha1.h"

#include <cstring>

namespace lookaside::crypto {

namespace {
inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}
}  // namespace

Sha1::Sha1()
    : state_{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0},
      buffer_{} {}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[i * 4]) << 24 |
           static_cast<std::uint32_t>(block[i * 4 + 1]) << 16 |
           static_cast<std::uint32_t>(block[i * 4 + 2]) << 8 |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
                e = state_[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f;
    std::uint32_t k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5a827999;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdc;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6;
    }
    const std::uint32_t temp = rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(const std::uint8_t* data, std::size_t len) {
  total_bytes_ += len;
  while (len > 0) {
    if (buffered_ == 0 && len >= 64) {
      process_block(data);
      data += 64;
      len -= 64;
      continue;
    }
    const std::size_t take = std::min<std::size_t>(64 - buffered_, len);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
}

Bytes Sha1::finish() {
  // Pad in the block buffer: 0x80, zeros up to byte 56 (spilling into a
  // second block when fewer than 8 bytes remain), then the bit length.
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    process_block(buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  process_block(buffer_.data());

  Bytes digest(kDigestSize);
  for (int i = 0; i < 5; ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Bytes Sha1::digest(const Bytes& data) {
  Sha1 ctx;
  ctx.update(data);
  return ctx.finish();
}

Bytes Sha1::digest(std::string_view text) {
  Sha1 ctx;
  ctx.update(text);
  return ctx.finish();
}

}  // namespace lookaside::crypto
