#include "crypto/sha_kernels.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace lookaside::crypto::kernels {

namespace {

constexpr std::array<std::uint32_t, 64> kSha256RoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

void sha1_scalar(Sha1State& state, const std::uint8_t* data,
                 std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    const std::uint8_t* block = data;
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

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];
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

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

void sha1_iterate_scalar(Sha1State& state, const std::uint8_t* block,
                         std::size_t iterations) {
  std::array<std::uint8_t, 64> message;
  std::memcpy(message.data(), block, message.size());
  for (; iterations > 0; --iterations) {
    for (int i = 0; i < 20; ++i) {  // the digest, big-endian
      const std::uint32_t word = state[i / 4];
      message[i] = static_cast<std::uint8_t>(word >> (24 - 8 * (i % 4)));
    }
    state = kSha1Initial;
    sha1_scalar(state, message.data(), 1);
  }
}

void sha256_scalar(Sha256State& state, const std::uint8_t* data,
                   std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    const std::uint8_t* block = data;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(block[i * 4]) << 24 |
             static_cast<std::uint32_t>(block[i * 4 + 1]) << 16 |
             static_cast<std::uint32_t>(block[i * 4 + 2]) << 8 |
             static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 =
          h + s1 + ch + kSha256RoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// Both SHA-NI kernels run a block as groups of four rounds over four
// message registers w[0..3], the group's four schedule words in each. The
// loops unroll fully, so every w index and branch below is a constant.

namespace {

/// One SHA-1 block on SHA-NI: the 80 rounds over message words w (word 0
/// in the top lane of w[0]) from the state (abcd, e0), with A and E in the
/// top lanes, then the feed-forward add.
[[gnu::always_inline]] inline __attribute__((target("sha,sse4.1,ssse3"))) void
sha1_block_shani(__m128i& abcd, __m128i& e0, __m128i (&w)[4]) {
  const __m128i abcd_save = abcd;
  const __m128i e0_save = e0;
  // Group 0 adds E to its words. Every later group derives E from A four
  // rounds back (sha1nexte), so `prev` is the state before the previous
  // group.
  __m128i prev = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, _mm_add_epi32(e0, w[0]), 0);
#pragma GCC unroll 19
  for (int g = 1; g < 20; ++g) {
    const __m128i words = w[g % 4];
    const __m128i e = _mm_sha1nexte_epu32(prev, words);
    prev = abcd;
    switch (g / 5) {  // the round function is an immediate operand
      case 1: abcd = _mm_sha1rnds4_epu32(abcd, e, 1); break;
      case 2: abcd = _mm_sha1rnds4_epu32(abcd, e, 2); break;
      case 3: abcd = _mm_sha1rnds4_epu32(abcd, e, 3); break;
      default: abcd = _mm_sha1rnds4_epu32(abcd, e, 0); break;
    }
    // Schedule: W[g+1] = msg2(msg1(W[g-3], W[g-2]) ^ W[g-1], W[g]), one
    // step per group, each reusing the register of a spent group.
    if (g <= 16) {
      w[(g + 3) % 4] = _mm_sha1msg1_epu32(w[(g + 3) % 4], words);
    }
    if (g >= 2 && g <= 17) {
      w[(g + 2) % 4] = _mm_xor_si128(w[(g + 2) % 4], words);
    }
    if (g >= 3 && g <= 18) {
      w[(g + 1) % 4] = _mm_sha1msg2_epu32(w[(g + 1) % 4], words);
    }
  }
  e0 = _mm_sha1nexte_epu32(prev, e0_save);
  abcd = _mm_add_epi32(abcd, abcd_save);
}

// Word 0 of a block, and A of the state, sit in the top lane.
__attribute__((target("sha,sse4.1,ssse3"))) __m128i load_words(
    const std::uint8_t* data) {
  const __m128i reverse_bytes =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), reverse_bytes);
}

}  // namespace

__attribute__((target("sha,sse4.1,ssse3"))) void sha1_shani(
    Sha1State& state, const std::uint8_t* data, std::size_t blocks) {
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; blocks > 0; --blocks, data += 64) {
    __m128i w[4];
    for (int i = 0; i < 4; ++i) w[i] = load_words(data + 16 * i);
    sha1_block_shani(abcd, e0, w);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

__attribute__((target("sha,sse4.1,ssse3"))) void sha1_iterate_shani(
    Sha1State& state, const std::uint8_t* block, std::size_t iterations) {
  const __m128i initial_abcd = _mm_set_epi32(
      static_cast<int>(kSha1Initial[0]), static_cast<int>(kSha1Initial[1]),
      static_cast<int>(kSha1Initial[2]), static_cast<int>(kSha1Initial[3]));
  const __m128i initial_e0 =
      _mm_set_epi32(static_cast<int>(kSha1Initial[4]), 0, 0, 0);
  // Words 4-15 of the block: the salt, the padding and the bit length.
  // Word 4 gives way to E in its top lane.
  const __m128i words_4_7 = load_words(block + 16);
  const __m128i words_8_11 = load_words(block + 32);
  const __m128i words_12_15 = load_words(block + 48);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; iterations > 0; --iterations) {
    // The digest's words already sit in the lanes the next message wants
    // them in: A-D are message words 0-3 and E, in the top lane of e0
    // with zeros below, is word 4. Only the state feeds back.
    __m128i w[4] = {abcd, _mm_blend_epi16(words_4_7, e0, 0xC0), words_8_11,
                    words_12_15};
    abcd = initial_abcd;
    e0 = initial_e0;
    sha1_block_shani(abcd, e0, w);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

__attribute__((target("sha,sse4.1,ssse3"))) void sha256_shani(
    Sha256State& state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i swap_words =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // sha256rnds2 keeps the state as (A, B, E, F) and (C, D, G, H).
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4)),
      0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          swap_words);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i words = w[g % 4];
      __m128i wk = _mm_add_epi32(
          words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                     kSha256RoundConstants.data() + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      // Schedule: W[g+1] = msg2(msg1(W[g-3], W[g-2]) + alignr(W[g],
      // W[g-1]), W[g]), the msg1 step taken two groups earlier: the
      // sigma0, t-7 and sigma1 terms of FIPS 180-4, four words at a time.
      if (g >= 3 && g <= 14) {
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(words, w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, words);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g <= 12) {
        w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], words);
      }
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1U << 9)) != 0;
  const bool sse41 = (ecx & (1U << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3 && sse41 && (ebx & (1U << 29)) != 0;
}

Sha1Kernel sha1_kernel() {
  static const Sha1Kernel kernel =
      cpu_has_sha_ni() ? sha1_shani : sha1_scalar;
  return kernel;
}

Sha1IterateKernel sha1_iterate_kernel() {
  static const Sha1IterateKernel kernel =
      cpu_has_sha_ni() ? sha1_iterate_shani : sha1_iterate_scalar;
  return kernel;
}

Sha256Kernel sha256_kernel() {
  static const Sha256Kernel kernel =
      cpu_has_sha_ni() ? sha256_shani : sha256_scalar;
  return kernel;
}

#else

bool cpu_has_sha_ni() { return false; }
Sha1Kernel sha1_kernel() { return sha1_scalar; }
Sha1IterateKernel sha1_iterate_kernel() { return sha1_iterate_scalar; }
Sha256Kernel sha256_kernel() { return sha256_scalar; }

#endif

}  // namespace lookaside::crypto::kernels
