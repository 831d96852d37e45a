#include "crypto/cpu_dispatch.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace shield5g::crypto {

namespace {

// 0 = unset, 1 = scalar, 2 = accelerated. A single relaxed atomic keeps
// the per-call dispatch branch cheap and safe under sim::ShardPool's
// host threads.
std::atomic<int> g_forced{0};

struct CpuFeatures {
  bool aesni = false;
  bool shani = false;
  bool avx2 = false;
  bool avx512ifma = false;
};

#if defined(__x86_64__) || defined(__i386__)
// XCR0 via xgetbv; only legal once CPUID reports OSXSAVE.
std::uint64_t xcr0() noexcept {
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}
#endif

CpuFeatures detect_features() noexcept {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    const bool sse41 = (ecx & (1u << 19)) != 0;
    f.aesni = sse41 && (ecx & (1u << 25)) != 0;
    // The SHA-NI kernel also uses SSSE3 shuffles; leaf 1 ecx bit 9.
    const bool ssse3 = (ecx & (1u << 9)) != 0;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    // AVX2 needs the CPUID bit (leaf 7 ebx bit 5) *and* the OS saving
    // YMM state (XCR0 bits 1|2), or the first vpmuludq faults.
    const bool ymm_enabled = osxsave && (xcr0() & 0x6) == 0x6;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
      f.shani = sse41 && ssse3 && (ebx & (1u << 29)) != 0;
      f.avx2 = ymm_enabled && (ebx & (1u << 5)) != 0;
      // The IFMA ladder uses 256-bit vpmadd52 (IFMA+VL) and vpmullq
      // (DQ+VL); AVX-512 state needs XCR0 opmask|ZMM_Hi256|Hi16_ZMM
      // (bits 5-7) saved on top of YMM.
      const bool zmm_enabled = osxsave && (xcr0() & 0xe6) == 0xe6;
      const bool avx512f = (ebx & (1u << 16)) != 0;
      const bool avx512dq = (ebx & (1u << 17)) != 0;
      const bool avx512vl = (ebx & (1u << 31)) != 0;
      f.avx512ifma = zmm_enabled && avx512f && avx512dq && avx512vl &&
                     (ebx & (1u << 21)) != 0;
    }
  }
#endif
  return f;
}

const CpuFeatures& features() noexcept {
  static const CpuFeatures f = detect_features();
  return f;
}

CryptoBackend resolve_default() noexcept {
  const char* env = std::getenv("SHIELD5G_CRYPTO_BACKEND");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return CryptoBackend::kScalar;
    if (std::strcmp(env, "accel") == 0) return CryptoBackend::kAccelerated;
    // "auto" and anything unrecognized fall through to detection.
  }
  // The accelerated backend is worthwhile even without AES/SHA CPU bits:
  // it also selects the fixed-point X25519 path, which is portable.
  return CryptoBackend::kAccelerated;
}

}  // namespace

CryptoBackend active_backend() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced == 1) return CryptoBackend::kScalar;
  if (forced == 2) return CryptoBackend::kAccelerated;
  // One-time init is a C++11 magic static (as is features() above):
  // shard-pool workers racing into the first call serialize on the
  // guard and every later call is a plain load — TSan-clean, audited by
  // the MonteCarlo.* thread workloads. Tests that force_backend() must
  // do so before spawning workers; the forced flag itself is atomic.
  static const CryptoBackend resolved = resolve_default();
  return resolved;
}

void force_backend(CryptoBackend backend) noexcept {
  g_forced.store(backend == CryptoBackend::kScalar ? 1 : 2,
                 std::memory_order_relaxed);
}

void clear_forced_backend() noexcept {
  g_forced.store(0, std::memory_order_relaxed);
}

bool cpu_has_aesni() noexcept { return features().aesni; }
bool cpu_has_shani() noexcept { return features().shani; }
bool cpu_has_avx2() noexcept { return features().avx2; }
bool cpu_has_avx512ifma() noexcept { return features().avx512ifma; }

const char* backend_name(CryptoBackend backend) noexcept {
  return backend == CryptoBackend::kScalar ? "scalar" : "accel";
}

}  // namespace shield5g::crypto
