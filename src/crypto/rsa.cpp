#include "crypto/rsa.h"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

namespace lookaside::crypto {

namespace {

constexpr std::uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,
    53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269,
    271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353,
    359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433, 439,
    443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523,
    541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617,
    619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701, 709,
    719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809, 811,
    821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907,
    911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997};

// Full PKCS#1 v1.5 needs digest + 11 bytes; below this width not even a
// truncated digest fits (simulation shortcut for small keys, see header).
constexpr std::size_t kMinEmsaBytes = 16;

/// Writes the EMSA block for `digest` into `em` (the modulus width, at
/// least kMinEmsaBytes), truncating the digest when the full layout does
/// not fit.
void emsa_encode(std::span<const std::uint8_t> digest,
                 std::span<std::uint8_t> em) {
  const std::size_t width = em.size();
  const std::size_t digest_len = std::min(digest.size(), width - 11);
  const auto digest_at =
      em.begin() + static_cast<std::ptrdiff_t>(width - digest_len);
  em[0] = 0x00;
  em[1] = 0x01;
  std::fill(em.begin() + 2, digest_at - 1, 0xFF);
  *(digest_at - 1) = 0x00;
  std::copy_n(digest.begin(), digest_len, digest_at);
}

BigUint random_odd_with_top_bits(std::size_t bits, SplitMix64& rng) {
  Bytes bytes((bits + 7) / 8);
  rng.fill(bytes);
  // Force the exact bit length and set the second-highest bit so products of
  // two such primes reach the full modulus width.
  const std::size_t top_bit = (bits - 1) % 8;
  bytes[0] |= static_cast<std::uint8_t>(1u << top_bit);
  if (top_bit == 0) {
    bytes[0] = 1;
    if (bytes.size() > 1) bytes[1] |= 0x80;
  } else {
    bytes[0] |= static_cast<std::uint8_t>(1u << (top_bit - 1));
  }
  bytes.back() |= 0x01;  // odd
  return BigUint::from_bytes_be(bytes);
}

BigUint generate_prime(std::size_t bits, SplitMix64& rng) {
  for (;;) {
    BigUint candidate = random_odd_with_top_bits(bits, rng);
    bool divisible = false;
    for (std::uint32_t p : kSmallPrimes) {
      if (candidate.mod_u32(p) == 0) {
        divisible = candidate != BigUint(p);
        break;
      }
    }
    if (divisible) continue;
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace

bool is_probable_prime(const BigUint& candidate, SplitMix64& rng, int rounds) {
  if (candidate < BigUint(2)) return false;
  if (candidate == BigUint(2) || candidate == BigUint(3)) return true;
  if (!candidate.is_odd()) return false;

  // candidate - 1 = d * 2^r with d odd.
  const BigUint n_minus_1 = BigUint::sub(candidate, BigUint(1));
  std::size_t r = 0;
  BigUint d = n_minus_1;
  while (!d.is_odd()) {
    d = d.shifted_right(1);
    ++r;
  }

  const Montgomery mont(candidate);
  const std::size_t bits = candidate.bit_length();
  for (int round = 0; round < rounds; ++round) {
    // Random base in [2, n-2].
    Bytes raw((bits + 7) / 8);
    rng.fill(raw);
    BigUint base = BigUint::mod(BigUint::from_bytes_be(raw),
                                BigUint::sub(candidate, BigUint(3)));
    base = BigUint::add(base, BigUint(2));

    BigUint x = mont.exp(base, d);
    if (x == BigUint(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = mont.mul(x, x);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

Bytes emsa_pad(std::span<const std::uint8_t> digest,
               std::size_t modulus_bytes) {
  if (modulus_bytes < kMinEmsaBytes) {
    throw std::invalid_argument("modulus too small for EMSA padding");
  }
  Bytes em(modulus_bytes);
  emsa_encode(digest, em);
  return em;
}

RsaPublicKey::RsaPublicKey(const BigUint& modulus,
                           const BigUint& public_exponent)
    : n_(modulus),
      e_(public_exponent),
      modulus_bytes_((n_.bit_length() + 7) / 8),
      mont_(n_) {}

Bytes RsaPublicKey::to_wire() const {
  const Bytes exp_bytes = e_.to_bytes_be();
  if (exp_bytes.size() > 255) {
    throw std::invalid_argument("public exponent too large for wire form");
  }
  const Bytes mod_bytes = n_.to_bytes_be();
  // Sized once and filled by copy: appending the exponent to a one-byte
  // vector draws two false -Warray-bounds reports from optimizing gcc 12.
  Bytes out(1 + exp_bytes.size() + mod_bytes.size());
  out[0] = static_cast<std::uint8_t>(exp_bytes.size());
  const auto mod_at = std::copy(exp_bytes.begin(), exp_bytes.end(),
                                out.begin() + 1);
  std::copy(mod_bytes.begin(), mod_bytes.end(), mod_at);
  return out;
}

std::optional<RsaPublicKey> RsaPublicKey::from_wire(const Bytes& wire) {
  if (wire.size() < 2) return std::nullopt;
  const std::size_t exp_len = wire[0];
  if (exp_len == 0 || wire.size() < 1 + exp_len + 1) return std::nullopt;
  const auto mod_begin =
      wire.begin() + 1 + static_cast<std::ptrdiff_t>(exp_len);
  const auto mod_significant = std::find_if(
      mod_begin, wire.end(), [](std::uint8_t b) { return b != 0; });
  if (static_cast<std::size_t>(wire.end() - mod_significant) >
      kMaxModulusBits / 8) {
    return std::nullopt;  // wider than any key the library handles
  }
  const BigUint n = BigUint::from_bytes_be(Bytes(mod_significant, wire.end()));
  if (!n.is_odd() || n < BigUint(3)) return std::nullopt;
  // At most 255 bytes, so the exponent always fits the capacity.
  const BigUint e = BigUint::from_bytes_be(Bytes(wire.begin() + 1, mod_begin));
  if (e.is_zero() || e.bit_length() > n.bit_length()) return std::nullopt;
  return RsaPublicKey(n, e);
}

bool RsaPublicKey::verify_digest(std::span<const std::uint8_t> digest,
                                 const Bytes& signature) const {
  if (signature.size() != modulus_bytes_) return false;
  if (modulus_bytes_ < kMinEmsaBytes) return false;  // no EMSA layout fits
  const std::size_t k = mont_.limb_count();
  Montgomery::Residue s{};
  load_be(signature, std::span<Limb>(s.data(), k));
  if (compare_limbs(s.data(), mont_.modulus_limbs(), k) >= 0) return false;
  mont_.to_mont(s.data(), s.data());
  mont_.mont_exp(s.data(), e_, s.data());
  mont_.from_mont(s.data(), s.data());

  std::array<std::uint8_t, kMaxModulusBits / 8> em{};
  std::array<std::uint8_t, kMaxModulusBits / 8> expected{};
  const std::span<std::uint8_t> em_view(em.data(), modulus_bytes_);
  const std::span<std::uint8_t> expected_view(expected.data(), modulus_bytes_);
  store_be(std::span<const Limb>(s.data(), k), em_view);
  emsa_encode(digest, expected_view);
  return std::equal(em_view.begin(), em_view.end(), expected_view.begin());
}

RsaPrivateKey::RsaPrivateKey(RsaPublicKey public_key,
                             const BigUint& private_exponent, const BigUint& p,
                             const BigUint& q)
    : public_(std::move(public_key)) {
  // Equal widths give both primes the same limb count k, so n < p * 2^64k
  // (the wide-REDC bound) and q < 2p (one subtraction reduces m2 mod p).
  if (p.bit_length() != q.bit_length()) {
    throw std::invalid_argument("RSA primes must have equal bit lengths");
  }
  if (BigUint::mul(p, q) != public_.modulus()) {
    throw std::invalid_argument("RSA primes do not multiply to the modulus");
  }
  const Montgomery mont_p(p);
  Montgomery::Residue q_inv = mont_p.reduce(BigUint::mod_inverse(q, p));
  mont_p.to_mont(q_inv.data(), q_inv.data());
  crt_ = std::make_shared<const CrtState>(CrtState{
      mont_p,
      Montgomery(q),
      BigUint::mod(private_exponent, BigUint::sub(p, BigUint(1))),
      BigUint::mod(private_exponent, BigUint::sub(q, BigUint(1))),
      q_inv,
  });
}

Bytes RsaPrivateKey::sign_digest(std::span<const std::uint8_t> digest) const {
  const std::size_t width = public_.modulus_bytes();
  const Montgomery& mont_p = crt_->mont_p;
  const Montgomery& mont_q = crt_->mont_q;
  const std::size_t k = mont_p.limb_count();
  const Limb* p = mont_p.modulus_limbs();
  const Limb* q = mont_q.modulus_limbs();

  std::array<std::uint8_t, kMaxModulusBits / 8> em_bytes{};
  const std::span<std::uint8_t> em_view(em_bytes.data(), width);
  emsa_encode(digest, em_view);
  std::array<Limb, 2 * kMaxModulusLimbs> em{};
  load_be(em_view, std::span<Limb>(em.data(), 2 * k));

  // m1 = EM^dp mod p and m2 = EM^dq mod q, side by side in one paired
  // exponentiation. EM < n < p * R, so one REDC and one multiply by R^3
  // bring it into each prime's Montgomery form without dividing.
  Montgomery::Residue m1{};
  Montgomery::Residue m2{};
  mont_p.to_mont_wide(em.data(), m1.data());
  mont_q.to_mont_wide(em.data(), m2.data());
  mont_p.mont_exp_pair(m1.data(), crt_->dp, m1.data(), mont_q, m2.data(),
                       crt_->dq, m2.data());
  mont_p.from_mont(m1.data(), m1.data());
  mont_q.from_mont(m2.data(), m2.data());

  // Garner: sig = m2 + q * ((m1 - m2) * q^-1 mod p). m2 < q < 2p, so one
  // conditional subtraction reduces it mod p.
  Montgomery::Residue h{};
  std::copy_n(m2.begin(), k, h.begin());
  if (compare_limbs(h.data(), p, k) >= 0) sub_limbs(h.data(), p, h.data(), k);
  if (sub_limbs(m1.data(), h.data(), h.data(), k) != 0) {
    add_limbs(h.data(), p, h.data(), k);
  }
  // The Montgomery-form inverse cancels the multiply's R^-1.
  mont_p.mont_mul(h.data(), crt_->q_inv_mont_p.data(), h.data());

  std::array<Limb, 2 * kMaxModulusLimbs> sig{};
  mul_limbs(q, k, h.data(), k, sig.data());
  std::array<Limb, 2 * kMaxModulusLimbs> m2_wide{};
  std::copy_n(m2.begin(), k, m2_wide.begin());
  add_limbs(sig.data(), m2_wide.data(), sig.data(), 2 * k);  // < n: no carry

  Bytes out(width);
  store_be(std::span<const Limb>(sig.data(), 2 * k), out);
  return out;
}

RsaKeyPair generate_rsa_keypair(std::size_t modulus_bits, SplitMix64& rng) {
  if (modulus_bits < 256 || modulus_bits > kMaxModulusBits ||
      modulus_bits % 32 != 0) {
    throw std::invalid_argument(
        "modulus_bits must be 256 to 1024 and a multiple of 32");
  }
  const BigUint e(65537);
  for (;;) {
    const BigUint p = generate_prime(modulus_bits / 2, rng);
    const BigUint q = generate_prime(modulus_bits / 2, rng);
    if (p == q) continue;
    const BigUint n = BigUint::mul(p, q);
    if (n.bit_length() != modulus_bits) continue;
    const BigUint phi = BigUint::mul(BigUint::sub(p, BigUint(1)),
                                     BigUint::sub(q, BigUint(1)));
    if (BigUint::gcd(e, phi) != BigUint(1)) continue;
    const BigUint d = BigUint::mod_inverse(e, phi);
    RsaPublicKey pub(n, e);
    RsaPrivateKey priv(pub, d, p, q);
    return RsaKeyPair{std::move(pub), std::move(priv)};
  }
}

}  // namespace lookaside::crypto
