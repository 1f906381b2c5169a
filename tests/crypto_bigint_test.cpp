// Unit and property tests for BigUint and Montgomery arithmetic.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/rng.h"

namespace lookaside::crypto {
namespace {

using U128 = unsigned __int128;

BigUint from_u128(U128 v) {
  Bytes be(16);
  for (int i = 0; i < 16; ++i) {
    be[15 - i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return BigUint::from_bytes_be(be);
}

U128 to_u128(const BigUint& v) {
  U128 out = 0;
  const Bytes be = v.to_bytes_be(16);
  EXPECT_LE(be.size(), 16u);
  for (std::uint8_t b : be) out = (out << 8) | b;
  return out;
}

TEST(BigUintTest, ZeroBasics) {
  BigUint zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_odd());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_bytes_be(), Bytes{0});
  EXPECT_EQ(BigUint::from_bytes_be({}), zero);
  EXPECT_EQ(BigUint::from_bytes_be({0, 0, 0}), zero);
}

TEST(BigUintTest, ByteRoundTrip) {
  const Bytes bytes = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
  const BigUint v = BigUint::from_bytes_be(bytes);
  EXPECT_EQ(v.to_bytes_be(), bytes);
  EXPECT_EQ(v.bit_length(), 65u);
}

TEST(BigUintTest, LeadingZerosStripped) {
  const BigUint a = BigUint::from_bytes_be({0x00, 0x00, 0x12, 0x34});
  const BigUint b = BigUint::from_bytes_be({0x12, 0x34});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_bytes_be(4), Bytes({0x00, 0x00, 0x12, 0x34}));
}

TEST(BigUintTest, CompareOrdering) {
  EXPECT_LT(BigUint(1), BigUint(2));
  EXPECT_LT(BigUint(0xFFFFFFFFULL), BigUint(0x100000000ULL));
  EXPECT_EQ(BigUint(42).compare(BigUint(42)), 0);
  EXPECT_GT(BigUint(0x100000000ULL), BigUint(5));
}

TEST(BigUintTest, SubUnderflowThrows) {
  EXPECT_THROW((void)BigUint::sub(BigUint(1), BigUint(2)),
               std::invalid_argument);
}

TEST(BigUintTest, DivisionByZeroThrows) {
  BigUint q, r;
  EXPECT_THROW(BigUint::divmod(BigUint(1), BigUint{}, q, r),
               std::invalid_argument);
}

TEST(BigUintPropertyTest, AddSubMulDivAgainstU128) {
  SplitMix64 rng(0xbeefcafe);
  for (int i = 0; i < 2000; ++i) {
    const U128 a = (static_cast<U128>(rng.next()) << 32) | rng.next() % 997;
    const U128 b = (static_cast<U128>(rng.next() % 0xFFFFFFFF) << 16) | 1;
    const BigUint big_a = from_u128(a);
    const BigUint big_b = from_u128(b);

    EXPECT_EQ(to_u128(BigUint::add(big_a, big_b)), a + b);
    if (a >= b) {
      EXPECT_EQ(to_u128(BigUint::sub(big_a, big_b)), a - b);
    }
    // Keep the product within 128 bits by masking the operands.
    const U128 small_a = a & 0xFFFFFFFFFFFFULL;
    const U128 small_b = b & 0xFFFFFFFFFFFFULL;
    EXPECT_EQ(to_u128(BigUint::mul(from_u128(small_a), from_u128(small_b))),
              small_a * small_b);

    BigUint q, r;
    BigUint::divmod(big_a, big_b, q, r);
    EXPECT_EQ(to_u128(q), a / b);
    EXPECT_EQ(to_u128(r), a % b);
    // a == q*b + r reconstruction.
    EXPECT_EQ(BigUint::add(BigUint::mul(q, big_b), r), big_a);
  }
}

TEST(BigUintPropertyTest, ShiftsMatchMultiplication) {
  SplitMix64 rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng.next();
    const std::size_t shift = rng.next_below(60);
    const BigUint big(v);
    EXPECT_EQ(big.shifted_left(shift),
              BigUint::mul(big, BigUint(1).shifted_left(shift)));
    EXPECT_EQ(big.shifted_left(shift).shifted_right(shift), big);
  }
}

TEST(BigUintTest, ModU32) {
  const BigUint v = BigUint::from_bytes_be(
      {0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11, 0x22});
  // Reference via divmod.
  for (std::uint32_t d : {3u, 7u, 65537u, 0xFFFFFFFFu}) {
    BigUint q, r;
    BigUint::divmod(v, BigUint(d), q, r);
    EXPECT_EQ(v.mod_u32(d), r.low_u64());
  }
}

TEST(BigUintTest, GcdKnownValues) {
  EXPECT_EQ(BigUint::gcd(BigUint(48), BigUint(18)), BigUint(6));
  EXPECT_EQ(BigUint::gcd(BigUint(17), BigUint(13)), BigUint(1));
  EXPECT_EQ(BigUint::gcd(BigUint(0), BigUint(5)), BigUint(5));
}

TEST(BigUintTest, ModInverseProperty) {
  SplitMix64 rng(99);
  const BigUint m(1000003);  // prime
  for (int i = 0; i < 100; ++i) {
    const BigUint a(1 + rng.next_below(1000002));
    const BigUint inv = BigUint::mod_inverse(a, m);
    EXPECT_EQ(BigUint::mod(BigUint::mul(a, inv), m), BigUint(1));
  }
}

TEST(BigUintTest, ModInverseNotCoprimeThrows) {
  EXPECT_THROW((void)BigUint::mod_inverse(BigUint(6), BigUint(9)),
               std::domain_error);
}

TEST(MontgomeryTest, RejectsEvenModulus) {
  EXPECT_THROW(Montgomery(BigUint(10)), std::invalid_argument);
  EXPECT_THROW(Montgomery(BigUint(1)), std::invalid_argument);
  // Odd, but wider than the 1024-bit ceiling; the ceiling itself is fine.
  const BigUint at_ceiling =
      BigUint::sub(BigUint(1).shifted_left(kMaxModulusBits), BigUint(1));
  EXPECT_NO_THROW(Montgomery{at_ceiling});
  EXPECT_THROW(Montgomery{BigUint::add(at_ceiling, BigUint(2))},
               std::invalid_argument);
}

TEST(MontgomeryTest, MulMatchesDivmod) {
  SplitMix64 rng(4242);
  const BigUint m(0xFFFFFFFFFFFFFFC5ULL);  // large odd (prime) modulus
  const Montgomery mont(m);
  for (int i = 0; i < 500; ++i) {
    const BigUint a(rng.next());
    const BigUint b(rng.next());
    EXPECT_EQ(mont.mul(a, b), BigUint::mod(BigUint::mul(a, b), m));
  }
}

TEST(MontgomeryTest, ExpMatchesRepeatedMul) {
  const BigUint m(1000003);
  const Montgomery mont(m);
  const BigUint base(7);
  BigUint expect(1);
  for (std::uint64_t e = 0; e < 50; ++e) {
    EXPECT_EQ(mont.exp(base, BigUint(e)), expect) << "e=" << e;
    expect = BigUint::mod(BigUint::mul(expect, base), m);
  }
}

TEST(MontgomeryTest, FermatLittleTheorem) {
  // a^(p-1) ≡ 1 mod p for prime p.
  const BigUint p(0xFFFFFFFFFFFFFFC5ULL);
  const Montgomery mont(p);
  SplitMix64 rng(31337);
  for (int i = 0; i < 20; ++i) {
    const BigUint a(2 + rng.next_below(1'000'000'000));
    EXPECT_EQ(mont.exp(a, BigUint::sub(p, BigUint(1))), BigUint(1));
  }
}

TEST(MontgomeryTest, MultiLimbModulus) {
  // 128-bit modulus; cross-check exp against square-and-multiply with divmod.
  const BigUint m = BigUint::from_bytes_be(from_hex(
      "f23ab61937c4ad1b00593dbd7d87ba15"));  // odd 128-bit number
  const Montgomery mont(m);
  SplitMix64 rng(555);
  for (int i = 0; i < 30; ++i) {
    const BigUint base(rng.next());
    const BigUint exponent(rng.next_below(1000));
    BigUint expect(1);
    for (std::uint64_t e = 0; e < exponent.low_u64(); ++e) {
      expect = BigUint::mod(BigUint::mul(expect, base), m);
    }
    EXPECT_EQ(mont.exp(base, exponent), expect);
  }
}

TEST(BigUintTest, CapacityOverflowThrows) {
  const Bytes widest(8 * BigUint::kCapacity, 0xFF);
  const BigUint max = BigUint::from_bytes_be(widest);
  EXPECT_EQ(max.bit_length(), 64 * BigUint::kCapacity);
  Bytes too_wide = widest;
  too_wide.insert(too_wide.begin(), 0x01);
  EXPECT_THROW((void)BigUint::from_bytes_be(too_wide), std::overflow_error);
  too_wide[0] = 0x00;  // leading zeros do not count
  EXPECT_EQ(BigUint::from_bytes_be(too_wide), max);
  EXPECT_THROW((void)BigUint::add(max, BigUint(1)), std::overflow_error);
  EXPECT_THROW((void)max.shifted_left(1), std::overflow_error);
  EXPECT_THROW((void)BigUint::mul(max, BigUint(2)), std::overflow_error);
  EXPECT_EQ(BigUint::sub(max, max), BigUint{});
  EXPECT_EQ(max.shifted_right(64 * BigUint::kCapacity - 1), BigUint(1));
}

BigUint random_value(std::size_t limbs, SplitMix64& rng) {
  std::vector<Limb> raw(limbs);
  for (Limb& limb : raw) limb = rng.next();
  return BigUint::from_limbs(raw);
}

BigUint reference_pow(const BigUint& base, const BigUint& exponent,
                      const BigUint& m) {
  const BigUint b = BigUint::mod(base, m);
  BigUint result = BigUint::mod(BigUint(1), m);
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    result = BigUint::mod(BigUint::mul(result, result), m);
    if (exponent.bit(i)) result = BigUint::mod(BigUint::mul(result, b), m);
  }
  return result;
}

TEST(MontgomeryPropertyTest, MatchesSquareAndMultiplyAtEveryWidth) {
  // Every limb count up to the ceiling: the specialised widths (2, 4, 8)
  // and the generic loop (the rest). Top limbs of 1 and all-ones exercise
  // the division's normalisation shifts of 63 and 0.
  SplitMix64 rng(0x5eed);
  for (std::size_t limbs = 1; limbs <= kMaxModulusLimbs; ++limbs) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<Limb> raw(limbs);
      for (Limb& limb : raw) limb = rng.next();
      if (trial == 0) raw.back() = 1;
      if (trial == 1) raw.back() = ~Limb{0};
      raw.back() |= 1;  // nonzero top limb
      raw.front() |= 1;  // odd
      if (limbs == 1 && raw.front() == 1) raw.front() = 3;
      const BigUint n = BigUint::from_limbs(raw);
      const Montgomery mont(n);
      ASSERT_EQ(mont.limb_count(), limbs);
      ASSERT_EQ(mont.modulus(), n);

      const BigUint n_minus_1 = BigUint::sub(n, BigUint(1));
      const std::vector<BigUint> bases = {
          BigUint{},         BigUint(1),
          n_minus_1,         n,
          BigUint::add(n, BigUint(1)),
          random_value(limbs, rng),
          random_value(2 * limbs, rng),
      };
      const std::vector<BigUint> exponents = {
          BigUint{},
          BigUint(1),
          BigUint(2),
          BigUint(65537),
          BigUint(~std::uint64_t{0}),  // 64 bits: square-and-multiply
          BigUint::add(BigUint(1).shifted_left(64), BigUint(1)),  // window
          random_value(2, rng),
          random_value(limbs, rng),
      };
      for (const BigUint& base : bases) {
        for (const BigUint& exponent : exponents) {
          ASSERT_EQ(mont.exp(base, exponent), reference_pow(base, exponent, n))
              << "limbs=" << limbs << " trial=" << trial;
        }
        for (const BigUint& other : bases) {
          // Reduce first: two 2k-limb bases overflow the capacity.
          const BigUint expect = BigUint::mod(
              BigUint::mul(BigUint::mod(base, n), BigUint::mod(other, n)), n);
          ASSERT_EQ(mont.mul(base, other), expect)
              << "limbs=" << limbs << " trial=" << trial;
        }
      }
      // (n - 1)^2 = n^2 - 2n + 1 = 1 (mod n) for every modulus.
      EXPECT_EQ(mont.exp(n_minus_1, BigUint(2)), BigUint(1));
    }
  }
}

/// A random value of exactly `bits` bits (zero for 0).
BigUint random_bits(std::size_t bits, SplitMix64& rng) {
  if (bits == 0) return BigUint{};
  std::vector<Limb> raw((bits + 63) / 64);
  for (Limb& limb : raw) limb = rng.next();
  const std::size_t top = (bits - 1) % 64;
  raw.back() &= top == 63 ? ~Limb{0} : (Limb{1} << (top + 1)) - 1;
  raw.back() |= Limb{1} << top;
  return BigUint::from_limbs(raw);
}

TEST(MontgomeryPropertyTest, PairedExpMatchesTwoSingleExps) {
  // mont_exp_pair against two mont_exp calls at every width: the 2-limb
  // register kernel and the interleaved mul_k body elsewhere. The
  // exponents straddle the single path's binary/window boundary and come
  // in every pairing of lengths, so the shorter one reads leading zero
  // windows. An all-ones top limb makes the final subtraction fire often;
  // a top limb of 1 makes it rare.
  SplitMix64 rng(0x9a1e);
  for (std::size_t limbs = 1; limbs <= kMaxModulusLimbs; ++limbs) {
    std::vector<Montgomery> moduli;
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<Limb> raw(limbs);
      for (Limb& limb : raw) limb = rng.next();
      if (trial == 0 || trial == 2) raw.back() = ~Limb{0};
      if (trial == 1) raw.back() = 1;
      raw.back() |= 1;   // nonzero top limb
      raw.front() |= 1;  // odd
      if (limbs == 1 && raw.front() == 1) raw.front() = 3;
      moduli.emplace_back(BigUint::from_limbs(raw));
    }
    std::vector<BigUint> exponents;
    for (const std::size_t bits : {std::size_t{0}, std::size_t{1},
                                   std::size_t{63}, std::size_t{64},
                                   std::size_t{65}, 64 * limbs}) {
      exponents.push_back(random_bits(bits, rng));
    }
    // Bases in Montgomery form: zero, one, n - 1 and a random residue.
    const auto bases = [&rng](const Montgomery& mont) {
      const BigUint n = mont.modulus();
      std::vector<Montgomery::Residue> out;
      for (const BigUint& value :
           {BigUint{}, BigUint(1), BigUint::sub(n, BigUint(1)),
            random_value(mont.limb_count(), rng)}) {
        Montgomery::Residue residue = mont.reduce(value);
        mont.to_mont(residue.data(), residue.data());
        out.push_back(residue);
      }
      return out;
    };
    for (std::size_t pair = 0; pair < moduli.size(); pair += 2) {
      const Montgomery& mont_a = moduli[pair];
      const Montgomery& mont_b = moduli[pair + 1];
      const auto bases_a = bases(mont_a);
      const auto bases_b = bases(mont_b);
      for (std::size_t ia = 0; ia < exponents.size(); ++ia) {
        for (std::size_t ib = 0; ib < exponents.size(); ++ib) {
          // Every base meets several pairings of exponent lengths.
          const std::size_t i = (ia + ib) % bases_a.size();
          const Montgomery::Residue& base_a = bases_a[i];
          const Montgomery::Residue& base_b = bases_b[(i + 1) % 4];
          const BigUint& e_a = exponents[ia];
          const BigUint& e_b = exponents[ib];
          Montgomery::Residue want_a{};
          Montgomery::Residue want_b{};
          mont_a.mont_exp(base_a.data(), e_a, want_a.data());
          mont_b.mont_exp(base_b.data(), e_b, want_b.data());
          Montgomery::Residue got_a = base_a;  // outputs alias the bases
          Montgomery::Residue got_b = base_b;
          mont_a.mont_exp_pair(got_a.data(), e_a, got_a.data(), mont_b,
                               got_b.data(), e_b, got_b.data());
          ASSERT_EQ(got_a, want_a)
              << "limbs=" << limbs << " pair=" << pair << " base=" << i
              << " bits=" << e_a.bit_length() << "," << e_b.bit_length();
          ASSERT_EQ(got_b, want_b)
              << "limbs=" << limbs << " pair=" << pair << " base=" << i
              << " bits=" << e_a.bit_length() << "," << e_b.bit_length();
        }
      }
    }
  }
  // The pair shares one window schedule, so the widths must match.
  const Montgomery one_limb(BigUint(97));
  const Montgomery two_limbs(BigUint::add(BigUint(1).shifted_left(64),
                                          BigUint(13)));
  Montgomery::Residue x{};
  EXPECT_THROW(one_limb.mont_exp_pair(x.data(), BigUint(3), x.data(),
                                      two_limbs, x.data(), BigUint(3),
                                      x.data()),
               std::invalid_argument);
}

TEST(MontgomeryPropertyTest, WideReductionMatchesDivision) {
  // to_mont_wide is how RSA signing brings a 2k-limb EM into the CRT
  // primes' Montgomery form: any value below n * R must land on value mod n.
  SplitMix64 rng(77);
  for (std::size_t limbs = 1; limbs <= kMaxModulusLimbs / 2; ++limbs) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Limb> raw(limbs);
      for (Limb& limb : raw) limb = rng.next();
      raw.back() |= Limb{1} << 63;
      raw.front() |= 1;
      const BigUint n = BigUint::from_limbs(raw);
      const Montgomery mont(n);
      // wide = x * n + y with x < R and y < n, so wide < n * R.
      const BigUint wide =
          BigUint::add(BigUint::mul(random_value(limbs, rng), n),
                       BigUint::mod(random_value(limbs, rng), n));
      std::vector<Limb> wide_limbs(2 * limbs, 0);
      std::copy(wide.limbs().begin(), wide.limbs().end(), wide_limbs.begin());
      Montgomery::Residue out{};
      mont.to_mont_wide(wide_limbs.data(), out.data());
      mont.from_mont(out.data(), out.data());
      EXPECT_EQ(BigUint::from_limbs(std::span<const Limb>(out.data(), limbs)),
                BigUint::mod(wide, n))
          << "limbs=" << limbs << " trial=" << trial;
    }
  }
}

TEST(BigUintPropertyTest, DivisionReconstructsAtEveryWidth) {
  // Knuth D against its own identity: a == q*b + r with r < b, for divisors
  // of every limb count, including the qhat-correction edge where the top
  // divisor limb is all ones.
  SplitMix64 rng(0xd1u);
  for (std::size_t b_limbs = 1; b_limbs <= kMaxModulusLimbs; ++b_limbs) {
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<Limb> raw(b_limbs);
      for (Limb& limb : raw) limb = rng.next();
      if (trial % 5 == 0) raw.back() = ~Limb{0};
      if (trial % 5 == 1) raw.back() = 1;
      if (raw.back() == 0) raw.back() = 1;
      const BigUint b = BigUint::from_limbs(raw);
      const BigUint a =
          random_value(b_limbs + 1 + rng.next_below(b_limbs + 1), rng);
      BigUint q, r;
      BigUint::divmod(a, b, q, r);
      EXPECT_LT(r, b);
      EXPECT_EQ(BigUint::add(BigUint::mul(q, b), r), a)
          << "b_limbs=" << b_limbs << " trial=" << trial;
    }
  }
  // Random operands almost never take the rare add-back step (qhat still
  // one too large after the two-limb correction); these do.
  struct AddBack {
    std::vector<Limb> u, v;
    const char* quotient;
    const char* remainder;
  };
  const std::vector<AddBack> add_back = {
      {{0, 0, Limb{1} << 63, ~Limb{0} >> 1},
       {1, 0, Limb{1} << 63},
       "fffffffffffffffe",
       "7fffffffffffffffffffffffffffffff0000000000000002"},
      {{3, 0, Limb{1} << 63},
       {1, 0, Limb{1} << 61},
       "03",
       "200000000000000000000000000000000000000000000000"},
      {{0, ~Limb{0} - 1, 0, Limb{1} << 63},
       {~Limb{0}, 0, Limb{1} << 63},
       "ffffffffffffffff",
       "7fffffffffffffffffffffffffffffffffffffffffffffff"},
  };
  for (const AddBack& c : add_back) {
    BigUint q, r;
    BigUint::divmod(BigUint::from_limbs(c.u), BigUint::from_limbs(c.v), q, r);
    EXPECT_EQ(to_hex(q.to_bytes_be()), c.quotient);
    EXPECT_EQ(to_hex(r.to_bytes_be()), c.remainder);
  }
}

}  // namespace
}  // namespace lookaside::crypto
