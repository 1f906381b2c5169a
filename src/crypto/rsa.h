// RSA key generation, signing and verification for the DNSSEC substrate.
//
// This mirrors RSASHA256 (DNSSEC algorithm 8): EMSA-PKCS1-v1_5-style padding
// over a SHA-256 digest. Key sizes are configurable down to 256 bits so that
// million-domain simulations stay fast; small keys are a simulation speed
// knob, not a security recommendation (see DESIGN.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "crypto/bigint.h"
#include "crypto/bytes.h"
#include "crypto/rng.h"

namespace lookaside::crypto {

/// RSA public key (n, e) plus a cached Montgomery context for fast verify.
class RsaPublicKey {
 public:
  /// Throws std::invalid_argument for a modulus Montgomery rejects (even,
  /// below 3 or wider than kMaxModulusBits).
  RsaPublicKey(const BigUint& modulus, const BigUint& public_exponent);

  [[nodiscard]] const BigUint& modulus() const { return n_; }
  [[nodiscard]] const BigUint& exponent() const { return e_; }
  [[nodiscard]] std::size_t modulus_bytes() const { return modulus_bytes_; }

  /// RFC 3110-style wire form: explen(1) | exponent | modulus.
  [[nodiscard]] Bytes to_wire() const;
  /// Parses the wire form; nullopt for malformed input, a modulus that is
  /// even, below 3 or wider than kMaxModulusBits, or an exponent that is
  /// zero or wider than the modulus.
  [[nodiscard]] static std::optional<RsaPublicKey> from_wire(const Bytes& wire);

  /// Verifies `signature` over `digest` (already hashed message). Never
  /// allocates.
  [[nodiscard]] bool verify_digest(std::span<const std::uint8_t> digest,
                                   const Bytes& signature) const;

 private:
  BigUint n_;
  BigUint e_;
  std::size_t modulus_bytes_;
  Montgomery mont_;
};

/// RSA private key; holds the matching public key and signs through the
/// CRT with per-prime Montgomery contexts computed once at construction.
class RsaPrivateKey {
 public:
  /// p and q must be the primes of the public modulus, of equal bit length
  /// (as generate_rsa_keypair makes them); either may be the larger. Throws
  /// std::invalid_argument otherwise.
  RsaPrivateKey(RsaPublicKey public_key, const BigUint& private_exponent,
                const BigUint& p, const BigUint& q);

  [[nodiscard]] const RsaPublicKey& public_key() const { return public_; }

  /// Signs an already-hashed message; output is modulus-width bytes and is
  /// the only allocation.
  [[nodiscard]] Bytes sign_digest(std::span<const std::uint8_t> digest) const;

 private:
  struct CrtState {
    Montgomery mont_p, mont_q;
    BigUint dp, dq;                     // d mod (p-1), d mod (q-1)
    Montgomery::Residue q_inv_mont_p;   // q^-1 mod p, Montgomery form
  };

  RsaPublicKey public_;
  std::shared_ptr<const CrtState> crt_;  // shared: keys are copied freely
};

/// A freshly generated RSA key pair.
struct RsaKeyPair {
  RsaPublicKey public_key;
  RsaPrivateKey private_key;
};

/// Generates an RSA key pair with an n of `modulus_bits` (256 to
/// kMaxModulusBits, multiple of 32) and e = 65537, using the caller's
/// deterministic RNG.
[[nodiscard]] RsaKeyPair generate_rsa_keypair(std::size_t modulus_bits,
                                              SplitMix64& rng);

/// Miller-Rabin primality test with `rounds` random bases. Exposed for tests.
[[nodiscard]] bool is_probable_prime(const BigUint& candidate, SplitMix64& rng,
                                     int rounds = 24);

/// Builds the padded EMSA block for a digest and modulus width; exposed for
/// tests. For widths too small for full PKCS#1 padding the digest is
/// truncated (documented simulation shortcut).
[[nodiscard]] Bytes emsa_pad(std::span<const std::uint8_t> digest,
                             std::size_t modulus_bytes);

}  // namespace lookaside::crypto
