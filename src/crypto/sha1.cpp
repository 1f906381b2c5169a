#include "crypto/sha1.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha_kernels.h"

namespace lookaside::crypto {

Sha1::Sha1() : state_(kernels::kSha1Initial), buffer_{} {}

void Sha1::update(const std::uint8_t* data, std::size_t len) {
  total_bytes_ += len;
  while (len > 0) {
    if (buffered_ == 0 && len >= 64) {
      const std::size_t blocks = len / 64;
      kernels::sha1_kernel()(state_, data, blocks);
      data += blocks * 64;
      len -= blocks * 64;
      continue;
    }
    const std::size_t take = std::min<std::size_t>(64 - buffered_, len);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ == 64) {
      kernels::sha1_kernel()(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
}

Sha1::Digest Sha1::finish() {
  // Pad in the block buffer: 0x80, zeros up to byte 56 (spilling into a
  // second block when fewer than 8 bytes remain), then the bit length.
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    kernels::sha1_kernel()(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  kernels::sha1_kernel()(state_, buffer_.data(), 1);

  Digest digest;
  for (int i = 0; i < 5; ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha1::Digest Sha1::digest(std::span<const std::uint8_t> data) {
  Sha1 ctx;
  ctx.update(data.data(), data.size());
  return ctx.finish();
}

Sha1::Digest Sha1::digest(std::string_view text) {
  Sha1 ctx;
  ctx.update(text);
  return ctx.finish();
}

}  // namespace lookaside::crypto
