// SHA-1 and SHA-256 compression kernels (FIPS 180-4 §6.1.2, §6.2.2).
//
// Each kernel absorbs `blocks` consecutive 64-byte blocks into `state`.
// The scalar kernels are portable and are the reference. The SHA-NI
// kernels use the x86 SHA extensions and exist only on x86-64; they may be
// called only where cpu_has_sha_ni() holds. Sha1 and Sha256 go through
// sha1_kernel()/sha256_kernel(), which pick once per process; tests call
// each kernel directly.
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

void sha1_scalar(Sha1State& state, const std::uint8_t* data,
                 std::size_t blocks);
void sha256_scalar(Sha256State& state, const std::uint8_t* data,
                   std::size_t blocks);

#if defined(__x86_64__)
void sha1_shani(Sha1State& state, const std::uint8_t* data,
                std::size_t blocks);
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
[[nodiscard]] Sha256Kernel sha256_kernel();

}  // namespace lookaside::crypto::kernels
