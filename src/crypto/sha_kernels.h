// SHA-1 and SHA-256 compression kernels (FIPS 180-4 §6.1.2, §6.2.2).
//
// Each kernel absorbs `blocks` consecutive 64-byte blocks into `state`;
// the SHA-1 iterate kernels hash one block over and over. The scalar
// kernels are portable and are the reference. The SHA-NI kernels use the
// x86 SHA extensions and exist only on x86-64; they may be called only
// where cpu_has_sha_ni() holds. Sha1, Sha256 and the NSEC3 hash go through
// sha1_kernel()/sha256_kernel()/sha1_iterate_kernel(), which pick once per
// process; tests call each kernel directly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace lookaside::crypto::kernels {

using Sha1State = std::array<std::uint32_t, 5>;
using Sha256State = std::array<std::uint32_t, 8>;
using Sha1Kernel = void (*)(Sha1State& state, const std::uint8_t* data,
                            std::size_t blocks);
using Sha256Kernel = void (*)(Sha256State& state, const std::uint8_t* data,
                              std::size_t blocks);

/// FIPS 180-4 §5.3.1: the SHA-1 state before the first block.
inline constexpr Sha1State kSha1Initial = {0x67452301, 0xefcdab89, 0x98badcfe,
                                           0x10325476, 0xc3d2e1f0};

/// Iterated one-block SHA-1, the later rounds of the NSEC3 hash (RFC 5155
/// §5) when the digest and salt fit one block (20 + salt <= 55 octets).
/// `iterations` times: hash, from kSha1Initial, the 64-byte pre-padded
/// `block` with its first 20 octets replaced by the digest `state` holds
/// (its five words, big-endian), and make that hash the new `state`. The
/// first 20 octets of `block` are ignored.
using Sha1IterateKernel = void (*)(Sha1State& state, const std::uint8_t* block,
                                   std::size_t iterations);

void sha1_scalar(Sha1State& state, const std::uint8_t* data,
                 std::size_t blocks);
void sha1_iterate_scalar(Sha1State& state, const std::uint8_t* block,
                         std::size_t iterations);
void sha256_scalar(Sha256State& state, const std::uint8_t* data,
                   std::size_t blocks);

#if defined(__x86_64__)
void sha1_shani(Sha1State& state, const std::uint8_t* data,
                std::size_t blocks);
void sha1_iterate_shani(Sha1State& state, const std::uint8_t* block,
                        std::size_t iterations);
void sha256_shani(Sha256State& state, const std::uint8_t* data,
                  std::size_t blocks);
#endif

/// True on an x86-64 CPU with the SHA, SSSE3 and SSE4.1 extensions (CPUID
/// leaf 7 EBX bit 29; leaf 1 ECX bits 9 and 19).
[[nodiscard]] bool cpu_has_sha_ni();

/// The SHA-NI kernel where the CPU has it, else the scalar one. Picked on
/// first use and kept in a function-local static, so a hash taken during
/// another file's static initialisation still gets an initialised choice.
[[nodiscard]] Sha1Kernel sha1_kernel();
[[nodiscard]] Sha1IterateKernel sha1_iterate_kernel();
[[nodiscard]] Sha256Kernel sha256_kernel();

}  // namespace lookaside::crypto::kernels
