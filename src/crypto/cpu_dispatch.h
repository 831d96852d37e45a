// Runtime selection between the scalar reference kernels and the
// hardware-accelerated ones (AES-NI, SHA extensions, the AVX-512 IFMA
// X25519 ladder).
//
// The selection is wall-clock-only: both backends execute the same
// primitive operations and increment the same op counters, so every
// virtual-time result is bit-identical regardless of which kernel ran.
// Detection happens once (CPUID), can be overridden by the environment
// variable SHIELD5G_CRYPTO_BACKEND=scalar|accel|auto, and can be forced
// at runtime by tests so both paths run in CI on any host.
#pragma once

namespace shield5g::crypto {

enum class CryptoBackend {
  kScalar,       // portable reference implementations
  kAccelerated,  // AES-NI / SHA-NI kernels, the IFMA X25519 ladder and
                 // the fixed-point X25519 path; each kernel still falls
                 // back to scalar when the host lacks its CPU feature
};

/// The backend in effect for this call. Resolved once from CPUID and
/// SHIELD5G_CRYPTO_BACKEND, unless a force is active.
CryptoBackend active_backend() noexcept;

/// Test hook: pin the backend regardless of CPU features or env.
void force_backend(CryptoBackend backend) noexcept;

/// Test hook: drop a force_backend() pin and return to auto selection.
void clear_forced_backend() noexcept;

/// Raw CPUID feature bits (false on non-x86 builds): AES-NI (with
/// SSE4.1) and the SHA extensions (with SSE4.1 and SSSE3), exactly what
/// the AES and SHA-256 kernels execute. cpu_has_ifma() is AVX-512
/// IFMA with F, DQ and VL, and the OS saving AVX-512 state (XCR0): what
/// the 4-lane X25519 ladder step is compiled for.
bool cpu_has_aesni() noexcept;
bool cpu_has_shani() noexcept;
bool cpu_has_ifma() noexcept;

/// Human-readable name for reports ("scalar" / "accel").
const char* backend_name(CryptoBackend backend) noexcept;

}  // namespace shield5g::crypto
