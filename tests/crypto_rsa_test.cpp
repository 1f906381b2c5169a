// Unit tests for RSA keygen/sign/verify and the DNSSEC algorithm façade,
// and the allocation counts of signing, verifying and hashing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/dnssec_algo.h"
#include "crypto/rng.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "dns/name.h"
#include "zone/nsec3.h"

// Sign, verify and the hashes are specified by how many allocations they
// make, so this binary counts every operator new.
#include "heap_shim.h"

namespace lookaside::crypto {
namespace {

RsaKeyPair test_keypair(std::size_t bits = 512, std::uint64_t seed = 1) {
  SplitMix64 rng(seed);
  return generate_rsa_keypair(bits, rng);
}

TEST(MillerRabinTest, KnownPrimesAndComposites) {
  SplitMix64 rng(2);
  EXPECT_TRUE(is_probable_prime(BigUint(2), rng));
  EXPECT_TRUE(is_probable_prime(BigUint(3), rng));
  EXPECT_TRUE(is_probable_prime(BigUint(65537), rng));
  EXPECT_TRUE(is_probable_prime(BigUint(1000003), rng));
  EXPECT_TRUE(is_probable_prime(BigUint(0xFFFFFFFFFFFFFFC5ULL), rng));
  EXPECT_FALSE(is_probable_prime(BigUint(1), rng));
  EXPECT_FALSE(is_probable_prime(BigUint(4), rng));
  EXPECT_FALSE(is_probable_prime(BigUint(1000001), rng));  // 101*9901
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(is_probable_prime(BigUint(561), rng));
}

TEST(RsaTest, SignVerifyRoundTrip) {
  const RsaKeyPair kp = test_keypair();
  const Sha256::Digest digest = Sha256::digest("hello dnssec");
  const Bytes sig = kp.private_key.sign_digest(digest);
  EXPECT_EQ(sig.size(), kp.public_key.modulus_bytes());
  EXPECT_TRUE(kp.public_key.verify_digest(digest, sig));
}

TEST(RsaTest, TamperedSignatureFails) {
  const RsaKeyPair kp = test_keypair();
  const Sha256::Digest digest = Sha256::digest("hello dnssec");
  Bytes sig = kp.private_key.sign_digest(digest);
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(kp.public_key.verify_digest(digest, sig));
}

TEST(RsaTest, TamperedDigestFails) {
  const RsaKeyPair kp = test_keypair();
  const Bytes sig = kp.private_key.sign_digest(Sha256::digest("message A"));
  EXPECT_FALSE(kp.public_key.verify_digest(Sha256::digest("message B"), sig));
}

TEST(RsaTest, WrongKeyFails) {
  const RsaKeyPair kp1 = test_keypair(512, 10);
  const RsaKeyPair kp2 = test_keypair(512, 11);
  const Sha256::Digest digest = Sha256::digest("cross-key");
  const Bytes sig = kp1.private_key.sign_digest(digest);
  EXPECT_FALSE(kp2.public_key.verify_digest(digest, sig));
}

TEST(RsaTest, WrongLengthSignatureFails) {
  const RsaKeyPair kp = test_keypair();
  const Sha256::Digest digest = Sha256::digest("short");
  Bytes sig = kp.private_key.sign_digest(digest);
  sig.pop_back();
  EXPECT_FALSE(kp.public_key.verify_digest(digest, sig));
}

TEST(RsaTest, SmallKeySignVerify) {
  // 256-bit keys are the fast-simulation configuration.
  const RsaKeyPair kp = test_keypair(256, 3);
  const Sha256::Digest digest = Sha256::digest("fast path");
  EXPECT_TRUE(
      kp.public_key.verify_digest(digest, kp.private_key.sign_digest(digest)));
}

TEST(RsaTest, DeterministicFromSeed) {
  const RsaKeyPair a = test_keypair(256, 77);
  const RsaKeyPair b = test_keypair(256, 77);
  EXPECT_EQ(a.public_key.modulus(), b.public_key.modulus());
}

TEST(RsaTest, PublicKeyWireRoundTrip) {
  const RsaKeyPair kp = test_keypair(512, 5);
  const Bytes wire = kp.public_key.to_wire();
  const auto parsed = RsaPublicKey::from_wire(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->modulus(), kp.public_key.modulus());
  EXPECT_EQ(parsed->exponent(), kp.public_key.exponent());

  const Sha256::Digest digest = Sha256::digest("wire");
  EXPECT_TRUE(
      parsed->verify_digest(digest, kp.private_key.sign_digest(digest)));
}

TEST(RsaTest, FromWireRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::from_wire({}).has_value());
  EXPECT_FALSE(RsaPublicKey::from_wire({0x00}).has_value());
  EXPECT_FALSE(RsaPublicKey::from_wire({0x05, 0x01}).has_value());
  // Degenerate moduli: 1 (with and without leading zeros) and even.
  EXPECT_FALSE(RsaPublicKey::from_wire({0x01, 0x03, 0x01}).has_value());
  EXPECT_FALSE(
      RsaPublicKey::from_wire({0x01, 0x03, 0x00, 0x00, 0x01}).has_value());
  EXPECT_FALSE(RsaPublicKey::from_wire({0x01, 0x03, 0x0A}).has_value());
  // Wider than the 1024-bit ceiling.
  Bytes wide = {0x01, 0x03};
  wide.resize(2 + 300, 0xFF);
  EXPECT_FALSE(RsaPublicKey::from_wire(wide).has_value());
  Bytes just_over = {0x01, 0x03, 0x01};
  just_over.resize(3 + 128, 0xFF);  // 1025 bits
  EXPECT_FALSE(RsaPublicKey::from_wire(just_over).has_value());
  // Exponent zero, or wider than the modulus.
  EXPECT_FALSE(RsaPublicKey::from_wire({0x01, 0x00, 0xC5}).has_value());
  EXPECT_FALSE(RsaPublicKey::from_wire({0x02, 0x01, 0x01, 0xC5}).has_value());

  // The ceiling itself parses, leading zero bytes included.
  Bytes at_ceiling = {0x01, 0x03, 0x00};
  at_ceiling.resize(3 + 128, 0xFF);
  const auto parsed = RsaPublicKey::from_wire(at_ceiling);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->modulus().bit_length(), kMaxModulusBits);
}

TEST(RsaTest, KeygenValidatesParameters) {
  SplitMix64 rng(1);
  EXPECT_THROW(generate_rsa_keypair(128, rng), std::invalid_argument);
  EXPECT_THROW(generate_rsa_keypair(300, rng), std::invalid_argument);
  EXPECT_THROW(generate_rsa_keypair(1056, rng), std::invalid_argument);
}

// Keys, signatures and the RNG draw after keygen, recorded from the
// 32-bit-limb implementation this library used before its 64-bit rewrite.
// Keygen must consume SplitMix64 draw for draw as it did then, and CRT
// signing is deterministic, so every ZSK, KSK, DS digest and RRSIG in the
// simulator is pinned through these. Seed 1 is spelled out in full; seed 2
// is a 64-bit FNV-1a over modulus || signature || next draw (little-endian).
struct RsaKnownAnswer {
  std::size_t bits;
  const char* modulus;      // seed 1
  const char* signature;    // seed 1
  std::uint64_t next_draw;  // seed 1
  std::uint64_t seed2_fnv;
};

constexpr RsaKnownAnswer kRsaKnownAnswers[] = {
    {256,
     "cc8deed8056b4e08a5c51ce5a5b71fb6faca4dd5ee22cc707ed69881bf63d9d9",
     "7358d2d3b80571a69a30a41c3e927c58906161df591d9af412a51ad94915dec2",
     0x23870c608513f820ULL, 0x4f4f763edaa0aabfULL},
    {288,
     "b583049341f14fe8db0ce556843da5da9244dd69bf8112eb1d9901239678810f"
     "476794e5",
     "2c8fc3c434234b163ccd1d3ba8dd0b193e704ae58ef74e28ea1d6d2d37d36553"
     "fe080fbe",
     0x5db2603de43b9dbfULL, 0x51738a5aae21b9aaULL},
    {384,
     "b553a101f2a203685e42acf390cc0625c15ecb0f69107e28b475106b3d1421d6"
     "797113c27c619418b99b19275312c8a1",
     "a8016ed17e5e331e7400a9d0fcf8b77e73cd0514872ac27e0485c9966b36b4d4"
     "6718dd1d6975fe88c0ae86c248ab82e9",
     0x34b8f365a7391077ULL, 0x780584bf2a6bb83fULL},
    {512,
     "9f4abb7198aec3eff09e6d14158ef9c50e94e629299a9e63fc3270c9af8f7e6f"
     "502da91a17a9ea4a255c0332b633f9febb4c2b703a8ab7a9470909fd4a133679",
     "2d8249d6e704f6f510e8c6aceeee8e1e96938b80fcd13ce805b07515b4221d0d"
     "51f0b470de3462af54c12a53f91ef222193631ed6efc676406c129aed229a32f",
     0xa73f10da22fc05b0ULL, 0xa8775f2769575becULL},
    {768,
     "9f76b2d16dbc16063ff4aff5d95412380cbf158bdfd2d6eb634b2d0d998e8968"
     "27892fe13f0f7d365d8652b41f9b40d20a78f2fabc11252e47325fc3b13af8b5"
     "1619b3da0a8db6d3f26be3d47b677fdbce373b35b3b1e9adb90311d4790588d5",
     "9a9e3fd0c763bb1b51f64e0c3b0dc51524a189a6917ddbf963d0ed706543923b"
     "16d21a3636673d65628d78a30baed2275daca500a69eb6ace746acce55c75a16"
     "56a8c34ad6bdf4e1cffda89f6f10fd34476851bafbcac1c852e8b5fee0991d04",
     0x2577cc6d54aa14a4ULL, 0xd72e9fa0daa2d8ffULL},
    {1024,
     "c975248add531621a694cc2c22fb694bcb8f1c774d543282d54ebc9d530f68ec"
     "5f2889708ebbde34fe65b653cc8f5abfb513695edb5b33d916ffdb9aebd3be81"
     "8f550561a6c9a739434419f576b18bdfe441a3e6e0cfb07d04b8b8d47d53cdef"
     "aecd4fc431dbd28422bffec3a86db497ee3bf2454a9cc999340bf9f9b5cefc0d",
     "4fce0c3920b0b57ab6af3350db2f36b05f23d49d5c7dfcf54d148b5fe47c4924"
     "9a3a93b913d8799fe04631e951fff03d62e52ecfa029ecb0a2e1b8d0cd9e65dd"
     "944dbaee229d9d5255ddc97346d6263c18cf8c819004167a65cc17d355fdc75f"
     "0655925a3b8c759b54d78668d1fea97e952decd92364ba4469747deb6a4f27b1",
     0x9057b911e7c1691bULL, 0xb78529ee4231708eULL},
};

std::uint64_t fnv1a(const Bytes& data, std::uint64_t hash) {
  for (std::uint8_t byte : data) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(RsaKnownAnswerTest, KeysAndSignaturesMatchRecordedValues) {
  const Sha256::Digest digest = Sha256::digest("lookaside rsa known-answer");
  for (const RsaKnownAnswer& answer : kRsaKnownAnswers) {
    SplitMix64 rng1(1);
    const RsaKeyPair kp1 = generate_rsa_keypair(answer.bits, rng1);
    EXPECT_EQ(to_hex(kp1.public_key.modulus().to_bytes_be()), answer.modulus)
        << answer.bits;
    EXPECT_EQ(to_hex(kp1.private_key.sign_digest(digest)), answer.signature)
        << answer.bits;
    EXPECT_EQ(rng1.next(), answer.next_draw) << answer.bits;

    SplitMix64 rng2(2);
    const RsaKeyPair kp2 = generate_rsa_keypair(answer.bits, rng2);
    const std::uint64_t next = rng2.next();
    Bytes next_le(8);
    for (int i = 0; i < 8; ++i) {
      next_le[i] = static_cast<std::uint8_t>(next >> (8 * i));
    }
    std::uint64_t hash = fnv1a(kp2.public_key.modulus().to_bytes_be(),
                               0xcbf29ce484222325ULL);
    hash = fnv1a(kp2.private_key.sign_digest(digest), hash);
    EXPECT_EQ(fnv1a(next_le, hash), answer.seed2_fnv) << answer.bits;
  }
}

BigUint reference_pow(const BigUint& base, const BigUint& exponent,
                      const BigUint& m) {
  BigUint result(1);
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    result = BigUint::mod(BigUint::mul(result, result), m);
    if (exponent.bit(i)) result = BigUint::mod(BigUint::mul(result, base), m);
  }
  return result;
}

/// A random `bits`-bit prime whose top two bits are `top_bits` (0b10 or
/// 0b11): a 0b10 prime is below every 0b11 prime of the same width.
BigUint test_prime(std::size_t bits, std::uint8_t top_bits, SplitMix64& rng) {
  for (;;) {
    Bytes raw(bits / 8);
    rng.fill(raw);
    raw[0] = static_cast<std::uint8_t>((raw[0] & 0x3F) | (top_bits << 6));
    raw.back() |= 0x01;
    const BigUint candidate = BigUint::from_bytes_be(raw);
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

TEST(RsaTest, CrtSigningMatchesPlainExponentiationInEitherPrimeOrder) {
  // q is up to twice p, so for many digests m2 = EM^dq mod q is >= p and
  // Garner's conditional subtraction is what keeps the result right.
  SplitMix64 rng(21);
  const BigUint e(65537);
  for (std::size_t bits : {256u, 288u, 384u, 512u, 1024u}) {
    BigUint p, q, phi;
    do {
      p = test_prime(bits / 2, 0b10, rng);
      q = test_prime(bits / 2, 0b11, rng);
      phi = BigUint::mul(BigUint::sub(p, BigUint(1)),
                         BigUint::sub(q, BigUint(1)));
    } while (BigUint::gcd(e, phi) != BigUint(1));
    const BigUint n = BigUint::mul(p, q);
    const BigUint d = BigUint::mod_inverse(e, phi);
    const RsaPublicKey pub(n, e);
    const RsaPrivateKey q_larger(pub, d, p, q);
    const RsaPrivateKey p_larger(pub, d, q, p);

    const Sha256::Digest first = Sha256::digest("prime order");
    const BigUint em =
        BigUint::from_bytes_be(emsa_pad(first, pub.modulus_bytes()));
    EXPECT_EQ(BigUint::from_bytes_be(q_larger.sign_digest(first)),
              reference_pow(em, d, n))
        << bits;
    for (int i = 0; i < 64; ++i) {
      const Sha256::Digest digest =
          Sha256::digest("prime order " + std::to_string(i));
      const Bytes sig = q_larger.sign_digest(digest);
      EXPECT_EQ(p_larger.sign_digest(digest), sig) << bits << " " << i;
      EXPECT_TRUE(pub.verify_digest(digest, sig)) << bits << " " << i;
    }
  }
}

TEST(RsaTest, PrivateKeyRejectsPrimesThatDoNotFitTheCrtPath) {
  SplitMix64 rng(8);
  const BigUint p = test_prime(128, 0b11, rng);
  const BigUint q = test_prime(136, 0b11, rng);
  const RsaPublicKey pub(BigUint::mul(p, q), BigUint(65537));
  EXPECT_THROW(RsaPrivateKey(pub, BigUint(1), p, q), std::invalid_argument);
  // Equal widths, but not the factors of the modulus.
  const BigUint r = test_prime(128, 0b11, rng);
  EXPECT_THROW(RsaPrivateKey(pub, BigUint(1), p, r), std::invalid_argument);
}

TEST(RsaAllocationTest, VerifyAllocatesNothingAndSignOnlyItsResult) {
  // 256 and 512 bits run only specialised widths, 288 only the generic
  // loop, and 1024 both (8-limb primes, a 16-limb public modulus).
  for (std::size_t bits : {256u, 288u, 512u, 1024u}) {
    const RsaKeyPair kp = test_keypair(bits, 4);
    const Sha256::Digest digest = Sha256::digest("allocation count");
    const Bytes expected = kp.private_key.sign_digest(digest);
    Bytes tampered = expected;
    tampered[3] ^= 0x10;

    long before = heap_shim::allocations();
    const bool valid = kp.public_key.verify_digest(digest, expected);
    const bool forged = kp.public_key.verify_digest(digest, tampered);
    const long verify_allocations = heap_shim::allocations() - before;

    before = heap_shim::allocations();
    const Bytes sig = kp.private_key.sign_digest(digest);
    const long sign_allocations = heap_shim::allocations() - before;

    EXPECT_TRUE(valid) << bits;
    EXPECT_FALSE(forged) << bits;
    EXPECT_EQ(verify_allocations, 0) << bits;
    EXPECT_EQ(sign_allocations, 1) << bits;
    EXPECT_EQ(sig, expected) << bits;
  }
}

TEST(RsaAllocationTest, VerifyMessageAllocatesNothingAndSignMessageOnce) {
  const RsaKeyPair kp = test_keypair(512, 9);
  const Bytes message = bytes_of("canonical rrset image");

  long before = heap_shim::allocations();
  const Bytes sig = sign_message(kp.private_key, message);
  const long sign_allocations = heap_shim::allocations() - before;

  before = heap_shim::allocations();
  const bool valid = verify_message(kp.public_key, message, sig);
  const long verify_allocations = heap_shim::allocations() - before;

  EXPECT_TRUE(valid);
  EXPECT_EQ(sign_allocations, 1);  // the signature itself
  EXPECT_EQ(verify_allocations, 0);
}

TEST(HashAllocationTest, DigestsAndNsec3HashAllocateNothing) {
  const Bytes message(300, 0x5a);
  const dns::Name name = dns::Name::parse("site-1.com.dlv.isc.org");
  const Bytes salt = {0xab, 0xcd, 0xef, 0x01};

  const long before = heap_shim::allocations();
  const Sha1::Digest sha1 = Sha1::digest(message);
  const Sha256::Digest sha256 = Sha256::digest(message);
  const Sha1::Digest hashed = zone::nsec3_hash(name, salt, 10);
  const long allocations = heap_shim::allocations() - before;

  EXPECT_EQ(allocations, 0);
  EXPECT_NE(sha1, Sha1::Digest{});
  EXPECT_NE(sha256, Sha256::Digest{});
  EXPECT_NE(hashed, Sha1::Digest{});
}

TEST(EmsaPadTest, FullPaddingLayout) {
  const Sha256::Digest digest = Sha256::digest("x");
  const Bytes em = emsa_pad(digest, 64);
  EXPECT_EQ(em.size(), 64u);
  EXPECT_EQ(em[0], 0x00);
  EXPECT_EQ(em[1], 0x01);
  EXPECT_EQ(em[64 - 33], 0x00);
  for (std::size_t i = 2; i < 64 - 33; ++i) EXPECT_EQ(em[i], 0xFF);
  EXPECT_TRUE(std::equal(digest.begin(), digest.end(), em.end() - 32));
}

TEST(EmsaPadTest, TruncatesForSmallModulus) {
  const Sha256::Digest digest = Sha256::digest("x");
  const Bytes em = emsa_pad(digest, 32);  // 256-bit key
  EXPECT_EQ(em.size(), 32u);
  // 21 digest bytes fit; 8 FF bytes of padding remain.
  EXPECT_TRUE(std::equal(digest.begin(), digest.begin() + 21, em.end() - 21));
}

TEST(DnssecAlgoTest, SupportedAlgorithms) {
  EXPECT_TRUE(algorithm_supported(8));
  EXPECT_FALSE(algorithm_supported(5));
  EXPECT_FALSE(algorithm_supported(13));
  EXPECT_FALSE(algorithm_supported(0));
}

TEST(DnssecAlgoTest, SignVerifyMessage) {
  const RsaKeyPair kp = test_keypair(512, 9);
  const Bytes message = bytes_of("canonical rrset image");
  const Bytes sig = sign_message(kp.private_key, message);
  EXPECT_TRUE(verify_message(kp.public_key, message, sig));
  EXPECT_FALSE(verify_message(kp.public_key, bytes_of("different"), sig));
}

TEST(KeyTagTest, MatchesReferenceAlgorithm) {
  // Reference computation from RFC 4034 Appendix B applied to a fixed RDATA.
  const Bytes rdata = {0x01, 0x01, 0x03, 0x08, 0x03, 0x01, 0x00, 0x01};
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < rdata.size(); ++i) {
    acc += (i & 1) ? rdata[i] : static_cast<std::uint32_t>(rdata[i]) << 8;
  }
  acc += (acc >> 16) & 0xFFFF;
  EXPECT_EQ(key_tag(rdata), acc & 0xFFFF);
  // Odd-length RDATA exercises the trailing byte path.
  const Bytes odd = {0xAB, 0xCD, 0xEF};
  EXPECT_EQ(key_tag(odd), ((0xAB00u + 0xCDu + 0xEF00u +
                            (((0xAB00u + 0xCDu + 0xEF00u) >> 16) & 0xFFFF)) &
                           0xFFFF));
}

TEST(RngTest, DeterministicStreams) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, NextBelowInRange) {
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(7), 7u);
}

TEST(RngTest, DerivedSeedsDiffer) {
  EXPECT_NE(derive_seed(1, 1), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 1), derive_seed(2, 1));
  EXPECT_EQ(derive_seed(9, 9), derive_seed(9, 9));
}

}  // namespace
}  // namespace lookaside::crypto
