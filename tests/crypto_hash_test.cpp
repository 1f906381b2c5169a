// Unit tests for SHA-256, SHA-1 and HMAC-SHA256 against published vectors.
#include <gtest/gtest.h>

#include <string>

#include "crypto/bytes.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

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

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(bytes_of("Jefe"),
                               bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, bytes_of("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

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
