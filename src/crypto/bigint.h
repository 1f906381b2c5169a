// Fixed-capacity unsigned integers with Montgomery modular arithmetic.
//
// Sized for DNSSEC simulation: RSA moduli of 256-1024 bits (DESIGN.md §4l).
// Limbs are 64-bit and live inline in the object, so no arithmetic touches
// the heap; limb products use the compiler's unsigned __int128. The capacity
// holds the product of two values at the 1024-bit ceiling plus one limb, and
// an operation whose result would not fit throws std::overflow_error.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/bytes.h"

namespace lookaside::crypto {

using Limb = std::uint64_t;

/// Widest modulus the library accepts (RSA keys are 256-1024 bits).
inline constexpr std::size_t kMaxModulusBits = 1024;
inline constexpr std::size_t kMaxModulusLimbs = kMaxModulusBits / 64;

// Little-endian limb-array primitives shared by BigUint and the RSA hot
// paths. Inline so fixed-width callers get them unrolled.

/// out = a + b over k limbs; returns the carry out. out may alias a or b.
inline Limb add_limbs(const Limb* a, const Limb* b, Limb* out, std::size_t k) {
  Limb carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const unsigned __int128 sum =
        static_cast<unsigned __int128>(a[i]) + b[i] + carry;
    out[i] = static_cast<Limb>(sum);
    carry = static_cast<Limb>(sum >> 64);
  }
  return carry;
}

/// out = a - b over k limbs (mod 2^64k); returns the borrow out. out may
/// alias a or b.
inline Limb sub_limbs(const Limb* a, const Limb* b, Limb* out, std::size_t k) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb x = a[i];
    const Limb diff = x - b[i];
    const Limb under = x < b[i] ? 1 : 0;
    out[i] = diff - borrow;
    borrow = under | (diff < borrow ? 1 : 0);
  }
  return borrow;
}

/// Three-way comparison of two k-limb values: -1, 0, or +1.
inline int compare_limbs(const Limb* a, const Limb* b, std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// out[0, ka + kb) = a * b (schoolbook). out must not alias a or b.
inline void mul_limbs(const Limb* a, std::size_t ka, const Limb* b,
                      std::size_t kb, Limb* out) {
  for (std::size_t i = 0; i < ka + kb; ++i) out[i] = 0;
  for (std::size_t i = 0; i < ka; ++i) {
    Limb carry = 0;
    for (std::size_t j = 0; j < kb; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    out[i + kb] = carry;
  }
}

/// Loads big-endian `bytes` into `out`, zero-filling the limbs above them.
/// Requires bytes.size() <= 8 * out.size().
void load_be(std::span<const std::uint8_t> bytes, std::span<Limb> out);

/// Writes the low out.size() bytes of `limbs` to `out`, big-endian; bytes
/// above the limbs read as zero.
void store_be(std::span<const Limb> limbs, std::span<std::uint8_t> out);

/// Unsigned big integer; value-semantic, little-endian 64-bit limbs held
/// inline, always normalized (no zero limbs at or above size; zero has no
/// limbs). Limbs past the used count are kept zero.
class BigUint {
 public:
  /// Limbs held inline: a product of two values at the modulus ceiling,
  /// plus one limb of headroom.
  static constexpr std::size_t kCapacity = 2 * kMaxModulusLimbs + 1;

  BigUint() = default;
  explicit BigUint(std::uint64_t value);

  /// Parses big-endian bytes (leading zeros allowed); throws
  /// std::overflow_error when the significant bytes exceed the capacity.
  [[nodiscard]] static BigUint from_bytes_be(const Bytes& bytes);

  /// Builds a value from little-endian limbs; throws std::overflow_error
  /// when the significant limbs exceed the capacity.
  [[nodiscard]] static BigUint from_limbs(std::span<const Limb> limbs);

  /// Serializes big-endian; zero-pads on the left to at least `min_width`.
  [[nodiscard]] Bytes to_bytes_be(std::size_t min_width = 0) const;

  [[nodiscard]] bool is_zero() const { return size_ == 0; }
  [[nodiscard]] bool is_odd() const { return (limbs_[0] & 1u) != 0; }
  /// Number of significant bits; 0 for zero.
  [[nodiscard]] std::size_t bit_length() const;
  /// Value of bit `i` (LSB = 0); bits beyond bit_length() read as 0.
  [[nodiscard]] bool bit(std::size_t i) const;

  /// Three-way comparison: -1, 0, or +1.
  [[nodiscard]] int compare(const BigUint& other) const;
  friend bool operator==(const BigUint& a, const BigUint& b) {
    return a.compare(b) == 0;
  }
  friend bool operator!=(const BigUint& a, const BigUint& b) {
    return a.compare(b) != 0;
  }
  friend bool operator<(const BigUint& a, const BigUint& b) {
    return a.compare(b) < 0;
  }
  friend bool operator<=(const BigUint& a, const BigUint& b) {
    return a.compare(b) <= 0;
  }
  friend bool operator>(const BigUint& a, const BigUint& b) {
    return a.compare(b) > 0;
  }
  friend bool operator>=(const BigUint& a, const BigUint& b) {
    return a.compare(b) >= 0;
  }

  [[nodiscard]] static BigUint add(const BigUint& a, const BigUint& b);
  /// Requires a >= b; throws std::invalid_argument otherwise.
  [[nodiscard]] static BigUint sub(const BigUint& a, const BigUint& b);
  [[nodiscard]] static BigUint mul(const BigUint& a, const BigUint& b);

  [[nodiscard]] BigUint shifted_left(std::size_t bits) const;
  [[nodiscard]] BigUint shifted_right(std::size_t bits) const;

  /// Computes quotient and remainder of a / b (Knuth's Algorithm D on
  /// whole limbs); throws on division by zero.
  static void divmod(const BigUint& a, const BigUint& b, BigUint& quotient,
                     BigUint& remainder);
  [[nodiscard]] static BigUint mod(const BigUint& a, const BigUint& m);

  /// Greatest common divisor.
  [[nodiscard]] static BigUint gcd(BigUint a, BigUint b);

  /// Modular inverse of a mod m; throws std::domain_error if not coprime.
  [[nodiscard]] static BigUint mod_inverse(const BigUint& a, const BigUint& m);

  /// Remainder of this modulo a small divisor; divisor must be nonzero.
  [[nodiscard]] std::uint32_t mod_u32(std::uint32_t divisor) const;

  /// Low 64 bits of the value.
  [[nodiscard]] std::uint64_t low_u64() const { return limbs_[0]; }

  [[nodiscard]] std::span<const Limb> limbs() const {
    return {limbs_.data(), size_};
  }

 private:
  void normalize();

  std::array<Limb, kCapacity> limbs_{};
  std::size_t size_ = 0;
};

/// Precomputed Montgomery context for a fixed odd modulus n > 1 of k <=
/// kMaxModulusLimbs limbs, with R = 2^(64k). The constructor computes n,
/// n' = -n^-1 mod 2^64, R mod n, R^2 mod n and R^3 mod n once; nothing
/// after that divides.
///
/// The BigUint methods take and return ordinary values and reduce inputs of
/// any size. The Residue methods are the allocation-free interface RSA uses:
/// operands are k-limb little-endian arrays, and "Montgomery form" of x is
/// x * R mod n. The multiply is CIOS, specialised at compile time for the
/// limb counts of the key sizes in use and chosen from k at run time; the
/// paired exponentiation of RSA signing has its own 2-limb kernel.
class Montgomery {
 public:
  using Residue = std::array<Limb, kMaxModulusLimbs>;

  explicit Montgomery(const BigUint& modulus);

  [[nodiscard]] std::size_t limb_count() const { return k_; }
  [[nodiscard]] const Limb* modulus_limbs() const { return n_.data(); }
  [[nodiscard]] BigUint modulus() const;

  /// (a * b) mod n.
  [[nodiscard]] BigUint mul(const BigUint& a, const BigUint& b) const;

  /// (base ^ exponent) mod n.
  [[nodiscard]] BigUint exp(const BigUint& base, const BigUint& exponent) const;

  /// value mod n as a residue (divides; not for hot paths).
  [[nodiscard]] Residue reduce(const BigUint& value) const;

  /// out = a * b * R^-1 mod n. Needs b < n; a may be any k-limb value.
  /// out may alias a or b.
  void mont_mul(const Limb* a, const Limb* b, Limb* out) const;
  /// out = a * R mod n for any k-limb a.
  void to_mont(const Limb* a, Limb* out) const;
  /// Montgomery form of a 2k-limb value `wide` < n * R: one REDC to
  /// wide * R^-1, then one multiply by R^3.
  void to_mont_wide(const Limb* wide, Limb* out) const;
  /// out = a * R^-1 mod n (leaves Montgomery form).
  void from_mont(const Limb* a, Limb* out) const;
  /// out = base ^ exponent with base and out in Montgomery form. Exponents
  /// up to 64 bits use square-and-multiply (65537 costs 17 multiplies);
  /// longer ones a fixed 4-bit window.
  void mont_exp(const Limb* base, const BigUint& exponent, Limb* out) const;
  /// Two mont_exp calls run in lockstep: out = base ^ exponent under this
  /// modulus and other_out = other_base ^ other_exponent under `other`,
  /// which must have the same limb count (std::invalid_argument otherwise).
  /// One fixed 4-bit window schedule runs over the longer exponent, the
  /// shorter one reading leading zero windows, so the two independent
  /// multiply chains overlap. Each base must be below its modulus.
  void mont_exp_pair(const Limb* base, const BigUint& exponent, Limb* out,
                     const Montgomery& other, const Limb* other_base,
                     const BigUint& other_exponent, Limb* other_out) const;

 private:
  template <std::size_t K>
  void mul_k(const Limb* a, const Limb* b, Limb* out) const;
  template <std::size_t K>
  void redc_k(const Limb* wide, Limb* out) const;
  template <std::size_t K>
  void exp_k(const Limb* base, const BigUint& exponent, Limb* out) const;
  template <std::size_t K>
  void exp_pair_k(const Limb* base, const BigUint& exponent, Limb* out,
                  const Montgomery& other, const Limb* other_base,
                  const BigUint& other_exponent, Limb* other_out) const;
  template <std::size_t K>
  void subtract_if_ge_k(const Limb* t, Limb top, Limb* out) const;
  template <typename Kernel>
  void dispatch(Kernel&& kernel) const;

  std::size_t k_ = 0;  // limb count of the modulus
  Limb n0_inv_ = 0;    // -n^-1 mod 2^64
  Residue n_{};        // modulus
  Residue r1_{};       // R mod n: one in Montgomery form
  Residue r2_{};       // R^2 mod n: converts into Montgomery form
  Residue r3_{};       // R^3 mod n: undoes the R^-1 of a wide REDC
};

}  // namespace lookaside::crypto
