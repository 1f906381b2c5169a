#include "crypto/bigint.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <type_traits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace lookaside::crypto {

namespace {

using Wide = unsigned __int128;

[[noreturn]] void throw_overflow(const char* what) {
  throw std::overflow_error(what);
}

/// Knuth, TAOCP vol. 2, §4.3.1, Algorithm D on 64-bit limbs. Divides the
/// m-limb u by the n-limb v (n >= 2, v[n - 1] != 0, m >= n); writes m - n + 1
/// quotient limbs to q and n remainder limbs to r.
void divide_limbs(const Limb* u_in, std::size_t m, const Limb* v_in,
                  std::size_t n, Limb* q, Limb* r) {
  // Normalize so the divisor's top bit is set; the quotient estimate from
  // the top two dividend limbs is then at most two too large.
  const int s = std::countl_zero(v_in[n - 1]);
  const auto high = [s](Limb hi, Limb lo) {
    return s == 0 ? hi : (hi << s) | (lo >> (64 - s));
  };
  std::array<Limb, BigUint::kCapacity> v{};
  std::array<Limb, BigUint::kCapacity + 1> u{};
  for (std::size_t i = n - 1; i > 0; --i) v[i] = high(v_in[i], v_in[i - 1]);
  v[0] = v_in[0] << s;
  u[m] = s == 0 ? 0 : u_in[m - 1] >> (64 - s);
  for (std::size_t i = m - 1; i > 0; --i) u[i] = high(u_in[i], u_in[i - 1]);
  u[0] = u_in[0] << s;

  for (std::size_t j = m - n + 1; j-- > 0;) {
    const Wide top = (static_cast<Wide>(u[j + n]) << 64) | u[j + n - 1];
    Wide qhat = top / v[n - 1];
    Wide rhat = top % v[n - 1];
    while ((qhat >> 64) != 0 ||
           qhat * v[n - 2] > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if ((rhat >> 64) != 0) break;
    }
    // u[j, j + n] -= qhat * v.
    Limb carry = 0;
    Limb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Wide product = qhat * v[i] + carry;
      carry = static_cast<Limb>(product >> 64);
      const Limb low = static_cast<Limb>(product);
      const Limb x = u[i + j];
      const Limb diff = x - low;
      const Limb under = x < low ? 1 : 0;
      u[i + j] = diff - borrow;
      borrow = under | (diff < borrow ? 1 : 0);
    }
    const Limb x = u[j + n];
    const Limb diff = x - carry;
    const bool negative = x < carry || diff < borrow;
    u[j + n] = diff - borrow;
    if (negative) {  // qhat was one too large: add v back.
      --qhat;
      u[j + n] += add_limbs(u.data() + j, v.data(), u.data() + j, n);
    }
    q[j] = static_cast<Limb>(qhat);
  }
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = s == 0 ? u[i] : (u[i] >> s) | (u[i + 1] << (64 - s));
  }
}

}  // namespace

void load_be(std::span<const std::uint8_t> bytes, std::span<Limb> out) {
  std::fill(out.begin(), out.end(), 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::size_t from_lsb = bytes.size() - 1 - i;
    out[from_lsb / 8] |= static_cast<Limb>(bytes[i]) << (8 * (from_lsb % 8));
  }
}

void store_be(std::span<const Limb> limbs, std::span<std::uint8_t> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t limb = i / 8;
    out[out.size() - 1 - i] =
        limb < limbs.size()
            ? static_cast<std::uint8_t>(limbs[limb] >> (8 * (i % 8)))
            : 0;
  }
}

BigUint::BigUint(std::uint64_t value) {
  limbs_[0] = value;
  size_ = value != 0 ? 1 : 0;
}

void BigUint::normalize() {
  while (size_ > 0 && limbs_[size_ - 1] == 0) --size_;
}

BigUint BigUint::from_bytes_be(const Bytes& bytes) {
  const auto first = std::find_if(bytes.begin(), bytes.end(),
                                  [](std::uint8_t b) { return b != 0; });
  const std::span<const std::uint8_t> significant(first, bytes.end());
  if (significant.size() > 8 * kCapacity) {
    throw_overflow("BigUint::from_bytes_be: value exceeds capacity");
  }
  BigUint out;
  out.size_ = (significant.size() + 7) / 8;
  load_be(significant, std::span<Limb>(out.limbs_.data(), out.size_));
  return out;
}

BigUint BigUint::from_limbs(std::span<const Limb> limbs) {
  std::size_t size = limbs.size();
  while (size > 0 && limbs[size - 1] == 0) --size;
  if (size > kCapacity) throw_overflow("BigUint::from_limbs: exceeds capacity");
  BigUint out;
  std::copy_n(limbs.begin(), size, out.limbs_.begin());
  out.size_ = size;
  return out;
}

Bytes BigUint::to_bytes_be(std::size_t min_width) const {
  const std::size_t significant = (bit_length() + 7) / 8;
  Bytes out(std::max(min_width, std::max<std::size_t>(significant, 1)));
  store_be(limbs(), out);
  return out;
}

std::size_t BigUint::bit_length() const {
  if (size_ == 0) return 0;
  return (size_ - 1) * 64 +
         static_cast<std::size_t>(std::bit_width(limbs_[size_ - 1]));
}

bool BigUint::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= size_) return false;
  return ((limbs_[limb] >> (i % 64)) & 1u) != 0;
}

int BigUint::compare(const BigUint& other) const {
  if (size_ != other.size_) return size_ < other.size_ ? -1 : 1;
  return compare_limbs(limbs_.data(), other.limbs_.data(), size_);
}

BigUint BigUint::add(const BigUint& a, const BigUint& b) {
  BigUint out;
  const std::size_t n = std::max(a.size_, b.size_);
  // Limbs past each operand's size are zero, so both read n limbs.
  const Limb carry = add_limbs(a.limbs_.data(), b.limbs_.data(),
                               out.limbs_.data(), n);
  out.size_ = n;
  if (carry != 0) {
    if (n == kCapacity) throw_overflow("BigUint::add: result exceeds capacity");
    out.limbs_[n] = carry;
    out.size_ = n + 1;
  }
  return out;
}

BigUint BigUint::sub(const BigUint& a, const BigUint& b) {
  if (a.compare(b) < 0) throw std::invalid_argument("BigUint::sub underflow");
  BigUint out;
  sub_limbs(a.limbs_.data(), b.limbs_.data(), out.limbs_.data(), a.size_);
  out.size_ = a.size_;
  out.normalize();
  return out;
}

BigUint BigUint::mul(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return BigUint{};
  if (a.size_ + b.size_ - 1 > kCapacity) {
    throw_overflow("BigUint::mul: result exceeds capacity");
  }
  std::array<Limb, kCapacity + 1> product{};
  mul_limbs(a.limbs_.data(), a.size_, b.limbs_.data(), b.size_,
            product.data());
  return from_limbs(std::span<const Limb>(product.data(), a.size_ + b.size_));
}

BigUint BigUint::shifted_left(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  if (bits > kCapacity * 64 - bit_length()) {
    throw_overflow("BigUint::shifted_left: result exceeds capacity");
  }
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigUint out;
  for (std::size_t i = 0; i < size_; ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    // The capacity check above guarantees a spill past the top is zero.
    if (bit_shift != 0 && i + limb_shift + 1 < kCapacity) {
      out.limbs_[i + limb_shift + 1] = limbs_[i] >> (64 - bit_shift);
    }
  }
  out.size_ = std::min(kCapacity, size_ + limb_shift + 1);
  out.normalize();
  return out;
}

BigUint BigUint::shifted_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= size_) return BigUint{};
  const std::size_t bit_shift = bits % 64;
  BigUint out;
  out.size_ = size_ - limb_shift;
  for (std::size_t i = 0; i < out.size_; ++i) {
    Limb value = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < size_) {
      value |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
    out.limbs_[i] = value;
  }
  out.normalize();
  return out;
}

void BigUint::divmod(const BigUint& a, const BigUint& b, BigUint& quotient,
                     BigUint& remainder) {
  if (b.is_zero()) throw std::invalid_argument("BigUint division by zero");
  if (a.compare(b) < 0) {
    remainder = a;
    quotient = BigUint{};
    return;
  }
  BigUint q;
  BigUint r;
  if (b.size_ == 1) {
    const Limb d = b.limbs_[0];
    Limb rem = 0;
    for (std::size_t i = a.size_; i-- > 0;) {
      const Wide cur = (static_cast<Wide>(rem) << 64) | a.limbs_[i];
      q.limbs_[i] = static_cast<Limb>(cur / d);
      rem = static_cast<Limb>(cur % d);
    }
    q.size_ = a.size_;
    r.limbs_[0] = rem;
    r.size_ = 1;
  } else {
    divide_limbs(a.limbs_.data(), a.size_, b.limbs_.data(), b.size_,
                 q.limbs_.data(), r.limbs_.data());
    q.size_ = a.size_ - b.size_ + 1;
    r.size_ = b.size_;
  }
  q.normalize();
  r.normalize();
  quotient = q;
  remainder = r;
}

BigUint BigUint::mod(const BigUint& a, const BigUint& m) {
  BigUint q, r;
  divmod(a, m, q, r);
  return r;
}

BigUint BigUint::gcd(BigUint a, BigUint b) {
  while (!b.is_zero()) {
    BigUint r = mod(a, b);
    a = b;
    b = r;
  }
  return a;
}

std::uint32_t BigUint::mod_u32(std::uint32_t divisor) const {
  if (divisor == 0) throw std::invalid_argument("mod_u32 by zero");
  // Half a limb at a time, so every step is a plain 64-bit division.
  std::uint64_t remainder = 0;
  for (std::size_t i = size_; i-- > 0;) {
    remainder = ((remainder << 32) | (limbs_[i] >> 32)) % divisor;
    remainder = ((remainder << 32) | (limbs_[i] & 0xFFFFFFFFu)) % divisor;
  }
  return static_cast<std::uint32_t>(remainder);
}

namespace {

/// Minimal signed wrapper for the extended Euclid bookkeeping.
struct SignedBig {
  BigUint magnitude;
  bool negative = false;

  [[nodiscard]] static SignedBig sub(const SignedBig& a, const SignedBig& b) {
    // a - b.
    if (a.negative == b.negative) {
      if (a.magnitude.compare(b.magnitude) >= 0) {
        return {BigUint::sub(a.magnitude, b.magnitude), a.negative};
      }
      return {BigUint::sub(b.magnitude, a.magnitude), !a.negative};
    }
    return {BigUint::add(a.magnitude, b.magnitude), a.negative};
  }

  [[nodiscard]] static SignedBig mul(const SignedBig& a, const BigUint& b) {
    return {BigUint::mul(a.magnitude, b), a.negative && !a.magnitude.is_zero()};
  }
};

}  // namespace

BigUint BigUint::mod_inverse(const BigUint& a, const BigUint& m) {
  if (m.is_zero()) throw std::domain_error("mod_inverse: zero modulus");
  BigUint r0 = mod(a, m);
  BigUint r1 = m;
  SignedBig s0{BigUint(1), false};
  SignedBig s1{BigUint{}, false};
  // Invariant: s_i * a ≡ r_i (mod m).
  while (!r1.is_zero()) {
    BigUint q, rem;
    divmod(r0, r1, q, rem);
    r0 = r1;
    r1 = rem;
    SignedBig s_next = SignedBig::sub(s0, SignedBig::mul(s1, q));
    s0 = s1;
    s1 = s_next;
  }
  if (r0 != BigUint(1)) throw std::domain_error("mod_inverse: not coprime");
  if (s0.negative) {
    // s0 is > -m in magnitude, so one addition suffices.
    return sub(m, mod(s0.magnitude, m));
  }
  return mod(s0.magnitude, m);
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic
// ---------------------------------------------------------------------------

namespace {

using Limb2 = std::array<Limb, 2>;

/// (top, t1, t0) - n when that is not negative, else (t1, t0): the final
/// subtraction of a 2-limb Montgomery multiply, chosen by a mask rather
/// than a branch (gcc 12 compiles a `? :` select here into one). x86-64
/// takes the borrow chain from _subborrow_u64; other targets compute the
/// same mask from 128-bit differences.
[[gnu::always_inline]] inline Limb2 subtract_if_ge_2(Limb t0, Limb t1,
                                                     Limb top, const Limb* n) {
#if defined(__x86_64__)
  unsigned long long d0 = 0;
  unsigned long long d1 = 0;
  unsigned long long d2 = 0;
  unsigned char borrow = _subborrow_u64(0, t0, n[0], &d0);
  borrow = _subborrow_u64(borrow, t1, n[1], &d1);
  borrow = _subborrow_u64(borrow, top, 0, &d2);
  const Limb keep = Limb{0} - borrow;  // all ones when the value is below n
#else
  const Wide d0 = static_cast<Wide>(t0) - n[0];
  const Wide d1 = static_cast<Wide>(t1) - n[1] - static_cast<Limb>(d0 >> 127);
  const Wide d2 = static_cast<Wide>(top) - static_cast<Limb>(d1 >> 127);
  const Limb keep = Limb{0} - static_cast<Limb>(d2 >> 127);
#endif
  return {(t0 & keep) | (static_cast<Limb>(d0) & ~keep),
          (t1 & keep) | (static_cast<Limb>(d1) & ~keep)};
}

/// lo = low limb of a * b + c + d, which never overflows 128 bits; returns
/// the high limb. The sums carry in 64-bit adds: gcc 12 spills a 128-bit
/// sum to the stack here.
[[gnu::always_inline]] inline Limb mul_add(Limb a, Limb b, Limb c, Limb d,
                                           Limb& lo) {
  const Wide product = static_cast<Wide>(a) * b;
  Limb hi = static_cast<Limb>(product >> 64);
  lo = static_cast<Limb>(product) + c;
  hi += lo < c ? 1 : 0;
  lo += d;
  hi += lo < d ? 1 : 0;
  return hi;
}

/// a * b * R^-1 mod n for R = 2^128 and b < n: mul_k<2>'s CIOS unrolled
/// into locals, ending in the branch-free select. Only the paired
/// exponentiation uses it: alone, the longer select costs a single chain
/// more than the occasional mispredicted branch of mul_k<2>.
[[gnu::always_inline]] inline Limb2 mul_2(const Limb2& a, const Limb2& b,
                                          const Limb* n, Limb n0_inv) {
  Limb t0 = 0;
  Limb t1 = 0;
  Limb cancelled = 0;  // m is chosen so that t0 + m * n[0] ends in zero
  // Row 0: t = a * b[0], then t = (t + m * n) / 2^64.
  Limb carry = mul_add(a[0], b[0], 0, 0, t0);
  Limb t2 = mul_add(a[1], b[0], carry, 0, t1);
  Limb m = t0 * n0_inv;
  carry = mul_add(m, n[0], t0, 0, cancelled);
  carry = mul_add(m, n[1], t1, carry, t0);
  t1 = t2 + carry;
  t2 = t1 < carry ? 1 : 0;
  // Row 1: t += a * b[1], then the same reduction step.
  carry = mul_add(a[0], b[1], t0, 0, t0);
  carry = mul_add(a[1], b[1], t1, carry, t1);
  t2 += carry;
  const Limb t3 = t2 < carry ? 1 : 0;
  m = t0 * n0_inv;
  carry = mul_add(m, n[0], t0, 0, cancelled);
  carry = mul_add(m, n[1], t1, carry, t0);
  t1 = t2 + carry;
  t2 = t3 + (t1 < carry ? 1 : 0);
  return subtract_if_ge_2(t0, t1, t2, n);  // the value is below 2n
}

}  // namespace

Montgomery::Montgomery(const BigUint& modulus) {
  if (!modulus.is_odd() || modulus.bit_length() < 2) {
    throw std::invalid_argument("Montgomery modulus must be odd and > 1");
  }
  if (modulus.limbs().size() > kMaxModulusLimbs) {
    throw std::invalid_argument("Montgomery modulus wider than 1024 bits");
  }
  k_ = modulus.limbs().size();
  std::copy(modulus.limbs().begin(), modulus.limbs().end(), n_.begin());

  // n0_inv = -n^-1 mod 2^64 by Newton-Hensel lifting: n0 is its own inverse
  // mod 2^3, and each step doubles the correct low bits (3 -> 96).
  const Limb n0 = n_[0];
  Limb inv = n0;
  for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;
  n0_inv_ = 0 - inv;

  const BigUint r1 = BigUint::mod(BigUint(1).shifted_left(64 * k_), modulus);
  const BigUint r2 = BigUint::mod(BigUint::mul(r1, r1), modulus);
  const BigUint r3 = BigUint::mod(BigUint::mul(r2, r1), modulus);
  std::copy(r1.limbs().begin(), r1.limbs().end(), r1_.begin());
  std::copy(r2.limbs().begin(), r2.limbs().end(), r2_.begin());
  std::copy(r3.limbs().begin(), r3.limbs().end(), r3_.begin());
}

BigUint Montgomery::modulus() const {
  return BigUint::from_limbs(std::span<const Limb>(n_.data(), k_));
}

// Every kernel is written once over K: a nonzero K is the limb count as a
// compile-time constant (loops unroll, scratch fits exactly), and K == 0 is
// the generic loop over the run-time k_.

template <typename Kernel>
void Montgomery::dispatch(Kernel&& kernel) const {
  // The key sizes in use: the default 256-bit keys have 2-limb CRT primes
  // and 4-limb public moduli, the 512-bit testbed and registry keys 4 and 8.
  switch (k_) {
    case 2: return kernel(std::integral_constant<std::size_t, 2>{});
    case 4: return kernel(std::integral_constant<std::size_t, 4>{});
    case 8: return kernel(std::integral_constant<std::size_t, 8>{});
    default: return kernel(std::integral_constant<std::size_t, 0>{});
  }
}

template <std::size_t K>
void Montgomery::subtract_if_ge_k(const Limb* t, Limb top, Limb* out) const {
  // The value is top * R + t < 2n, so one subtraction of n reduces it.
  constexpr std::size_t kWidth = K != 0 ? K : kMaxModulusLimbs;
  const std::size_t k = K != 0 ? K : k_;
  std::array<Limb, kWidth> diff{};
  const Limb borrow = sub_limbs(t, n_.data(), diff.data(), k);
  const Limb* result = (top != 0 || borrow == 0) ? diff.data() : t;
  std::copy_n(result, k, out);
}

template <std::size_t K>
void Montgomery::mul_k(const Limb* a, const Limb* b, Limb* out) const {
  // CIOS (coarsely integrated operand scanning): interleave one row of a*b
  // with one limb of reduction, so the accumulator stays k + 2 limbs.
  constexpr std::size_t kWidth = K != 0 ? K : kMaxModulusLimbs;
  const std::size_t k = K != 0 ? K : k_;
  const Limb* n = n_.data();
  std::array<Limb, kWidth + 2> t{};
  for (std::size_t i = 0; i < k; ++i) {
    // t += a * b[i]
    const Limb bi = b[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const Wide cur = static_cast<Wide>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    Wide cur = static_cast<Wide>(t[k]) + carry;
    t[k] = static_cast<Limb>(cur);
    t[k + 1] = static_cast<Limb>(cur >> 64);

    // t = (t + m*n) / 2^64 with m chosen so the low limb cancels.
    const Limb m = t[0] * n0_inv_;
    cur = static_cast<Wide>(m) * n[0] + t[0];
    carry = static_cast<Limb>(cur >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      cur = static_cast<Wide>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    cur = static_cast<Wide>(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(cur);
    t[k] = t[k + 1] + static_cast<Limb>(cur >> 64);
  }
  subtract_if_ge_k<K>(t.data(), t[k], out);
}

template <std::size_t K>
void Montgomery::redc_k(const Limb* wide, Limb* out) const {
  // Separated REDC of a 2k-limb value: clear one low limb per step; the
  // carry out of limb i + k rides into the next step.
  constexpr std::size_t kWidth = K != 0 ? K : kMaxModulusLimbs;
  const std::size_t k = K != 0 ? K : k_;
  const Limb* n = n_.data();
  std::array<Limb, 2 * kWidth> t{};
  std::copy_n(wide, 2 * k, t.begin());
  Limb spill = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb m = t[i] * n0_inv_;
    Limb carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const Wide cur = static_cast<Wide>(m) * n[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    const Wide cur = static_cast<Wide>(t[i + k]) + carry + spill;
    t[i + k] = static_cast<Limb>(cur);
    spill = static_cast<Limb>(cur >> 64);
  }
  subtract_if_ge_k<K>(t.data() + k, spill, out);
}

template <std::size_t K>
void Montgomery::exp_k(const Limb* base, const BigUint& exponent,
                       Limb* out) const {
  constexpr std::size_t kWidth = K != 0 ? K : kMaxModulusLimbs;
  const std::size_t k = K != 0 ? K : k_;
  const std::size_t bits = exponent.bit_length();
  if (bits == 0) {
    std::copy_n(r1_.begin(), k, out);
    return;
  }
  std::array<Limb, kWidth> acc{};
  if (bits <= 64) {
    // Left-to-right square-and-multiply: short public exponents.
    std::array<Limb, kWidth> b{};
    std::copy_n(base, k, b.begin());
    acc = b;
    for (std::size_t i = bits - 1; i-- > 0;) {
      mul_k<K>(acc.data(), acc.data(), acc.data());
      if (exponent.bit(i)) mul_k<K>(acc.data(), b.data(), acc.data());
    }
  } else {
    // Fixed 4-bit window: table[d] = base^d. A 64-bit limb holds exactly
    // 16 windows, so a window never straddles limbs.
    std::array<std::array<Limb, kWidth>, 16> table{};
    std::copy_n(r1_.begin(), k, table[0].begin());
    std::copy_n(base, k, table[1].begin());
    for (std::size_t d = 2; d < 16; ++d) {
      mul_k<K>(table[d - 1].data(), table[1].data(), table[d].data());
    }
    const std::span<const Limb> e = exponent.limbs();
    const auto window = [&e](std::size_t w) {
      return static_cast<std::size_t>((e[w / 16] >> (4 * (w % 16))) & 0xF);
    };
    std::size_t w = (bits + 3) / 4 - 1;
    acc = table[window(w)];
    while (w-- > 0) {
      for (int s = 0; s < 4; ++s) {
        mul_k<K>(acc.data(), acc.data(), acc.data());
      }
      const std::size_t d = window(w);
      if (d != 0) mul_k<K>(acc.data(), table[d].data(), acc.data());
    }
  }
  std::copy_n(acc.begin(), k, out);
}

template <std::size_t K>
void Montgomery::exp_pair_k(const Limb* base, const BigUint& exponent,
                            Limb* out, const Montgomery& other,
                            const Limb* other_base,
                            const BigUint& other_exponent,
                            Limb* other_out) const {
  constexpr std::size_t kWidth = K != 0 ? K : kMaxModulusLimbs;
  const std::size_t k = K != 0 ? K : k_;
  const std::size_t bits =
      std::max(exponent.bit_length(), other_exponent.bit_length());
  if (bits == 0) {
    std::copy_n(r1_.begin(), k, out);
    std::copy_n(other.r1_.begin(), k, other_out);
    return;
  }
  using Value = std::array<Limb, kWidth>;
  // a = a * x under this modulus and b = b * y under the other: two
  // independent chains, which the CPU overlaps as long as neither branches
  // on data. Two limbs keep both in registers; wider values interleave
  // mul_k calls.
  const auto mul_pair = [&](Value& a, const Value& x, Value& b,
                            const Value& y) {
    if constexpr (K == 2) {
      a = mul_2(a, x, n_.data(), n0_inv_);
      b = mul_2(b, y, other.n_.data(), other.n0_inv_);
    } else {
      mul_k<K>(a.data(), x.data(), a.data());
      other.mul_k<K>(b.data(), y.data(), b.data());
    }
  };

  // table[d] = base^d. Window 0 multiplies by table[0], one, rather than
  // skipping the multiply, so the schedule never depends on the exponents.
  std::array<Value, 16> table_a{};
  std::array<Value, 16> table_b{};
  std::copy_n(r1_.begin(), k, table_a[0].begin());
  std::copy_n(base, k, table_a[1].begin());
  std::copy_n(other.r1_.begin(), k, table_b[0].begin());
  std::copy_n(other_base, k, table_b[1].begin());
  for (std::size_t d = 2; d < 16; ++d) {
    table_a[d] = table_a[d - 1];
    table_b[d] = table_b[d - 1];
    mul_pair(table_a[d], table_a[1], table_b[d], table_b[1]);
  }

  // Both exponents zero-padded to the capacity, so the shorter one reads
  // its leading windows as zero. A 64-bit limb holds exactly 16 windows.
  std::array<Limb, BigUint::kCapacity> e_a{};
  std::array<Limb, BigUint::kCapacity> e_b{};
  std::copy(exponent.limbs().begin(), exponent.limbs().end(), e_a.begin());
  std::copy(other_exponent.limbs().begin(), other_exponent.limbs().end(),
            e_b.begin());
  const auto window = [](const auto& e, std::size_t w) {
    return static_cast<std::size_t>((e[w / 16] >> (4 * (w % 16))) & 0xF);
  };
  std::size_t w = (bits + 3) / 4 - 1;
  Value a = table_a[window(e_a, w)];
  Value b = table_b[window(e_b, w)];
  while (w-- > 0) {
    for (int s = 0; s < 4; ++s) mul_pair(a, a, b, b);
    mul_pair(a, table_a[window(e_a, w)], b, table_b[window(e_b, w)]);
  }
  std::copy_n(a.begin(), k, out);
  std::copy_n(b.begin(), k, other_out);
}

void Montgomery::mont_mul(const Limb* a, const Limb* b, Limb* out) const {
  dispatch([&](auto width) { mul_k<decltype(width)::value>(a, b, out); });
}

void Montgomery::to_mont(const Limb* a, Limb* out) const {
  mont_mul(a, r2_.data(), out);
}

void Montgomery::to_mont_wide(const Limb* wide, Limb* out) const {
  dispatch([&](auto width) {
    constexpr std::size_t kWidth = decltype(width)::value;
    redc_k<kWidth>(wide, out);                // wide * R^-1
    mul_k<kWidth>(out, r3_.data(), out);      // * R^3 * R^-1 = wide * R
  });
}

void Montgomery::from_mont(const Limb* a, Limb* out) const {
  Residue one{};
  one[0] = 1;
  mont_mul(a, one.data(), out);
}

void Montgomery::mont_exp(const Limb* base, const BigUint& exponent,
                          Limb* out) const {
  dispatch(
      [&](auto width) { exp_k<decltype(width)::value>(base, exponent, out); });
}

void Montgomery::mont_exp_pair(const Limb* base, const BigUint& exponent,
                               Limb* out, const Montgomery& other,
                               const Limb* other_base,
                               const BigUint& other_exponent,
                               Limb* other_out) const {
  if (other.k_ != k_) {
    throw std::invalid_argument("mont_exp_pair: moduli of unequal width");
  }
  dispatch([&](auto width) {
    exp_pair_k<decltype(width)::value>(base, exponent, out, other, other_base,
                                       other_exponent, other_out);
  });
}

Montgomery::Residue Montgomery::reduce(const BigUint& value) const {
  const BigUint reduced = BigUint::mod(value, modulus());
  Residue out{};
  std::copy(reduced.limbs().begin(), reduced.limbs().end(), out.begin());
  return out;
}

BigUint Montgomery::mul(const BigUint& a, const BigUint& b) const {
  Residue x = reduce(a);
  const Residue y = reduce(b);
  to_mont(x.data(), x.data());            // a * R
  mont_mul(x.data(), y.data(), x.data());  // a * R * b * R^-1 = a * b
  return BigUint::from_limbs(std::span<const Limb>(x.data(), k_));
}

BigUint Montgomery::exp(const BigUint& base, const BigUint& exponent) const {
  Residue x = reduce(base);
  to_mont(x.data(), x.data());
  mont_exp(x.data(), exponent, x.data());
  from_mont(x.data(), x.data());
  return BigUint::from_limbs(std::span<const Limb>(x.data(), k_));
}

}  // namespace lookaside::crypto
