// Unit tests for SHA-256 and SHA-1 against published vectors, each
// compression kernel (scalar and SHA-NI) called directly on the same
// vectors, SHA-NI checked against scalar on random input, and the SHA-1
// iterate kernels checked against the NSEC3 hash loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/rng.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "crypto/sha_kernels.h"

namespace lookaside::crypto {
namespace {

TEST(Sha256Test, EmptyMessage) {
  EXPECT_EQ(to_hex(Sha256::digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(to_hex(Sha256::digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string message =
      "the quick brown fox jumps over the lazy dog 0123456789";
  for (std::size_t split = 0; split <= message.size(); ++split) {
    Sha256 ctx;
    ctx.update(std::string_view(message).substr(0, split));
    ctx.update(std::string_view(message).substr(split));
    EXPECT_EQ(ctx.finish(), Sha256::digest(message)) << "split=" << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaryLengths) {
  // 55/56/63/64/65 bytes cross the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(msg);
    Sha256 b;
    for (char c : msg) b.update(std::string_view(&c, 1));
    EXPECT_EQ(a.finish(), b.finish()) << "len=" << len;
  }
}

// 'x' * len across the padding edges: 55 is the longest message whose
// length fits the first block, 56..63 spill the length into a second block,
// and 64/119/120/128 repeat the pattern one block later. Digests computed
// with Python's hashlib.
struct PaddingVector {
  std::size_t len;
  const char* sha256;
  const char* sha1;
};

constexpr PaddingVector kPaddingVectors[] = {
    {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072",
     "cef734ba81a024479e09eb5a75b6ddae62e6abf1"},
    {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e",
     "901305367c259952f4e7af8323f480d59f81335b"},
    {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2",
     "0ddc4e0cccd9a12850deb5abb0853a4425559fec"},
    {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c",
     "bb2fa3ee7afb9f54c6dfb5d021f14b1ffe40c163"},
    {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9",
     "78c741ddc482e4cdf8c474a0876347a0905b6233"},
    {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c",
     "4300320394f7ee239bcdce7d3b8bcee173a0cd5c"},
    {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98",
     "ceb2821639c4b6dcb10bce0e522ca2e608ce056d"},
    {128, "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464",
     "150fa3fbdc899bd0b8f95a9fb6027f564d953762"},
};

TEST(Sha256Test, PaddingBoundaryKnownAnswers) {
  for (const PaddingVector& v : kPaddingVectors) {
    EXPECT_EQ(to_hex(Sha256::digest(std::string(v.len, 'x'))), v.sha256)
        << "len=" << v.len;
  }
}

TEST(Sha1Test, PaddingBoundaryKnownAnswers) {
  for (const PaddingVector& v : kPaddingVectors) {
    EXPECT_EQ(to_hex(Sha1::digest(std::string(v.len, 'x'))), v.sha1)
        << "len=" << v.len;
  }
}

TEST(Sha1Test, EmptyMessage) {
  EXPECT_EQ(to_hex(Sha1::digest("")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(to_hex(Sha1::digest("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha1::digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

// ---- Compression kernels, called directly. ----

constexpr kernels::Sha1State kSha1Iv = {0x67452301, 0xefcdab89, 0x98badcfe,
                                        0x10325476, 0xc3d2e1f0};
constexpr kernels::Sha256State kSha256Iv = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// FIPS 180-4 §5.1.1 padding, done here so that only the kernel hashes.
Bytes pad(std::string_view message) {
  Bytes out(message.begin(), message.end());
  out.push_back(0x80);
  while (out.size() % 64 != 56) out.push_back(0);
  const std::uint64_t bits = message.size() * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  return out;
}

/// Hex digest of `message` through `kernel` alone, from `state` (an IV).
template <typename State, typename Kernel>
std::string kernel_hex(Kernel kernel, State state, std::string_view message) {
  const Bytes padded = pad(message);
  kernel(state, padded.data(), padded.size() / 64);
  Bytes digest;
  for (const std::uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      digest.push_back(static_cast<std::uint8_t>(word >> shift));
    }
  }
  return to_hex(digest);
}

const std::string kTwoBlockVector =
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";

void expect_sha1_known_answers(kernels::Sha1Kernel kernel) {
  const auto hex = [kernel](std::string_view message) {
    return kernel_hex(kernel, kSha1Iv, message);
  };
  EXPECT_EQ(hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex(kTwoBlockVector), "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  for (const PaddingVector& v : kPaddingVectors) {
    EXPECT_EQ(hex(std::string(v.len, 'x')), v.sha1) << "len=" << v.len;
  }
}

void expect_sha256_known_answers(kernels::Sha256Kernel kernel) {
  const auto hex = [kernel](std::string_view message) {
    return kernel_hex(kernel, kSha256Iv, message);
  };
  EXPECT_EQ(hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(kTwoBlockVector),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hex(std::string(1'000'000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  for (const PaddingVector& v : kPaddingVectors) {
    EXPECT_EQ(hex(std::string(v.len, 'x')), v.sha256) << "len=" << v.len;
  }
}

// ---- Iterated one-block SHA-1, the NSEC3 rounds after the first. ----

/// The round block for `salt`: 20 octets for the digest, here filled with
/// a pattern the kernels must ignore, then the salt, padded as one block.
std::array<std::uint8_t, 64> round_block(const Bytes& salt) {
  std::array<std::uint8_t, 64> block{};
  std::fill_n(block.begin(), Sha1::kDigestSize, 0xA5);
  std::copy(salt.begin(), salt.end(), block.begin() + Sha1::kDigestSize);
  const std::size_t octets = Sha1::kDigestSize + salt.size();
  block[octets] = 0x80;
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<std::uint8_t>((8 * octets) >> (56 - 8 * i));
  }
  return block;
}

/// The NSEC3 loop as the hash API spells it: digest = SHA-1(digest || salt).
Sha1::Digest hash_loop(Sha1::Digest digest, const Bytes& salt,
                       std::size_t iterations) {
  for (std::size_t k = 0; k < iterations; ++k) {
    Bytes input(digest.begin(), digest.end());
    input.insert(input.end(), salt.begin(), salt.end());
    digest = Sha1::digest(input);
  }
  return digest;
}

kernels::Sha1State to_state(const Sha1::Digest& digest) {
  kernels::Sha1State state{};
  for (std::size_t i = 0; i < digest.size(); ++i) {
    state[i / 4] = state[i / 4] << 8 | digest[i];
  }
  return state;
}

/// `kernel` against the hash loop and against the scalar kernel, for every
/// salt that fits one block (0-35 octets) and 0-20 and 150 iterations.
void expect_iterate_matches(kernels::Sha1IterateKernel kernel) {
  SplitMix64 rng(0x17e);
  std::vector<std::size_t> counts(21);
  std::iota(counts.begin(), counts.end(), 0);
  counts.push_back(150);
  for (std::size_t salt_octets = 0; salt_octets <= 35; ++salt_octets) {
    Bytes salt(salt_octets);
    rng.fill(salt);
    const std::array<std::uint8_t, 64> block = round_block(salt);
    for (const std::size_t iterations : counts) {
      Bytes start(Sha1::kDigestSize);
      rng.fill(start);
      Sha1::Digest digest{};
      std::copy(start.begin(), start.end(), digest.begin());
      kernels::Sha1State state = to_state(digest);
      kernels::Sha1State scalar = state;
      kernel(state, block.data(), iterations);
      kernels::sha1_iterate_scalar(scalar, block.data(), iterations);
      ASSERT_EQ(state, to_state(hash_loop(digest, salt, iterations)))
          << "salt=" << salt_octets << " iterations=" << iterations;
      ASSERT_EQ(state, scalar)
          << "salt=" << salt_octets << " iterations=" << iterations;
    }
  }
}

TEST(ShaKernelTest, ScalarIterateMatchesTheHashLoop) {
  expect_iterate_matches(kernels::sha1_iterate_scalar);
}

TEST(ShaKernelTest, ScalarKnownAnswers) {
  expect_sha1_known_answers(kernels::sha1_scalar);
  expect_sha256_known_answers(kernels::sha256_scalar);
}

TEST(ShaKernelTest, ClassesRunTheSelectedKernel) {
  EXPECT_EQ(kernels::sha1_kernel() == kernels::sha1_scalar,
            !kernels::cpu_has_sha_ni());
  EXPECT_EQ(kernels::sha256_kernel() == kernels::sha256_scalar,
            !kernels::cpu_has_sha_ni());
  EXPECT_EQ(kernels::sha1_iterate_kernel() == kernels::sha1_iterate_scalar,
            !kernels::cpu_has_sha_ni());
}

/// The SHA-NI cases skip, saying so, on a CPU without the extensions.
class ShaNiKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::cpu_has_sha_ni()) {
      GTEST_SKIP() << "this CPU lacks SHA-NI (SHA, SSSE3, SSE4.1): only the "
                      "scalar kernels were tested";
    }
  }
};

#if defined(__x86_64__)

TEST_F(ShaNiKernelTest, KnownAnswers) {
  expect_sha1_known_answers(kernels::sha1_shani);
  expect_sha256_known_answers(kernels::sha256_shani);
}

TEST_F(ShaNiKernelTest, MatchesScalarOnRandomStatesAndBlocks) {
  SplitMix64 rng(0x5a1);
  Bytes blocks(4 * 64);
  for (int trial = 0; trial < 2000; ++trial) {
    rng.fill(blocks);
    const std::size_t count = 1 + rng.next_below(4);
    kernels::Sha1State sha1{};
    for (std::uint32_t& word : sha1) {
      word = static_cast<std::uint32_t>(rng.next());
    }
    kernels::Sha256State sha256{};
    for (std::uint32_t& word : sha256) {
      word = static_cast<std::uint32_t>(rng.next());
    }
    kernels::Sha1State sha1_ni = sha1;
    kernels::Sha256State sha256_ni = sha256;
    kernels::sha1_scalar(sha1, blocks.data(), count);
    kernels::sha1_shani(sha1_ni, blocks.data(), count);
    kernels::sha256_scalar(sha256, blocks.data(), count);
    kernels::sha256_shani(sha256_ni, blocks.data(), count);
    ASSERT_EQ(sha1_ni, sha1) << "trial " << trial;
    ASSERT_EQ(sha256_ni, sha256) << "trial " << trial;
  }
}

TEST_F(ShaNiKernelTest, IterateMatchesScalarAndTheHashLoop) {
  expect_iterate_matches(kernels::sha1_iterate_shani);
}

TEST_F(ShaNiKernelTest, MatchesScalarOnRandomMessagesUpTo299Bytes) {
  SplitMix64 rng(0x5a2);
  for (int trial = 0; trial < 6000; ++trial) {
    Bytes bytes(rng.next_below(300));
    rng.fill(bytes);
    const std::string_view message(reinterpret_cast<const char*>(bytes.data()),
                                   bytes.size());
    ASSERT_EQ(kernel_hex(kernels::sha1_shani, kSha1Iv, message),
              kernel_hex(kernels::sha1_scalar, kSha1Iv, message))
        << "trial " << trial << " len=" << bytes.size();
    ASSERT_EQ(kernel_hex(kernels::sha256_shani, kSha256Iv, message),
              kernel_hex(kernels::sha256_scalar, kSha256Iv, message))
        << "trial " << trial << " len=" << bytes.size();
  }
}

#endif  // defined(__x86_64__)

TEST(HexTest, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(from_hex(to_hex(data)), data);
}

TEST(HexTest, RejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

}  // namespace
}  // namespace lookaside::crypto
