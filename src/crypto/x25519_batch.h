// Batched X25519: many independent scalar mults per call.
//
// The ephemeral-key pool (crypto/eph_pool.h) generates scalar mults in
// bursts: a refill mints a ring of keys (64 by default) on the base
// point, and a static-peer fill prepares shared secrets against one
// peer key, 4 at a time or a whole prewarmed burst.
// x25519_batch() executes such a burst through a 4-lane vector ladder
// (crypto/fe25519x4.h, crypto/fe25519ifma.h): four mults run in
// lock-step lanes, each lane bit-identical to the scalar ladder.
//
// Contracts:
//   * Bit-identity: outputs equal n serial crypto::x25519() calls, byte
//     for byte, on every input (twist points and u = 0 included) — the
//     scalar ladder stays the oracle, enforced by kernel_parity_test.
//   * Op-count neutrality: charges exactly n x25519 ops to the calling
//     thread's meter, same as n serial calls, so virtual-time results
//     do not depend on which engine ran.
//   * Fixed points: every item is one use of its point in the fixed-
//     point comb cache (crypto/x25519_internal.h, x25519_fixed_table).
//     Points with a comb table use it; only ladder-bound points are
//     grouped into vector lanes.
//   * Dispatch: vector engines run only when the binary carries the
//     kernels, the CPU has the ISA, and the accel backend is active
//     (SHIELD5G_CRYPTO_BACKEND honored). AVX-512 IFMA outranks AVX2.
//     SHIELD5G_X25519_BATCH=scalar forces the scalar engine and =x4
//     caps selection at the AVX2 kernel; tests pin engines via the
//     detail hooks. The scalar fallback is always available and
//     digest-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/fe25519.h"
#include "crypto/x25519.h"

namespace shield5g::crypto {

/// One scalar mult of a batch. The views must stay valid until the
/// x25519_batch() call returns; `out` receives X25519(scalar, point).
struct X25519BatchItem {
  SecretView scalar;
  ByteView point;
  X25519Key* out = nullptr;
};

/// Executes n independent mults (any n, including 0); partial groups
/// fall back to the scalar ladder. Charges n x25519 ops.
void x25519_batch(X25519BatchItem* items, std::size_t n);

enum class X25519BatchEngine {
  kScalar,  // per-item serial ladder for ladder-bound points
  kX4,      // 4-lane AVX2 ladder for ladder-bound points
  kIfma,    // 4-lane AVX-512 IFMA ladder (vpmadd52), preferred when the
            // CPU offers it; same batching shape as kX4
};

/// The engine x25519_batch() would use right now.
X25519BatchEngine x25519_batch_engine() noexcept;

/// "scalar" / "x4" / "ifma" for reports.
const char* x25519_batch_engine_name(X25519BatchEngine engine) noexcept;

/// Deterministic mult accumulator: callers enqueue independent mults as
/// a burst materializes and flush() executes them in enqueue order
/// through x25519_batch(). Single-threaded by design — owned by whoever
/// owns the burst (a pool refill or static-peer fill). Enqueued views
/// must outlive the flush.
class MultBatcher {
 public:
  void enqueue(SecretView scalar, ByteView point, X25519Key* out) {
    items_.push_back(X25519BatchItem{scalar, point, out});
  }
  std::size_t pending() const noexcept { return items_.size(); }
  void flush() {
    if (items_.empty()) return;
    x25519_batch(items_.data(), items_.size());
    items_.clear();
  }

 private:
  std::vector<X25519BatchItem> items_;
};

namespace detail {

/// Test hooks: pin the batch engine regardless of CPU/env/backend (kX4
/// still requires the kernels to be compiled in and the CPU to have
/// AVX2 — pinning cannot make an illegal instruction legal).
void force_batch_engine(X25519BatchEngine engine) noexcept;
void clear_forced_batch_engine() noexcept;

/// True when this binary carries the AVX2 4-lane kernels.
bool x25519_x4_compiled() noexcept;

/// Four ladders in lock-step lanes; scalars pre-clamped, points raw
/// 32-byte u-coordinates, outputs canonical. Only callable when
/// x25519_x4_compiled() && cpu_has_avx2().
void x25519_x4_ladder4(const std::uint8_t k[4][32],
                       const std::uint8_t* const u[4],
                       std::uint8_t out[4][32]);

/// Lane-sliced field ops round-tripped through the x4 domain, for the
/// fe25519 property tests. Inputs may carry limbs up to 2^54 (they are
/// re-carried at the boundary, value-preserving); outputs are carried
/// 5x51. Return false when the kernels are not compiled in.
bool x25519_x4_mul(const fe25519::Fe a[4], const fe25519::Fe b[4],
                   fe25519::Fe r[4]);
bool x25519_x4_sq(const fe25519::Fe a[4], fe25519::Fe r[4]);

/// True when this binary carries the AVX-512 IFMA 4-lane kernels.
bool x25519_ifma_compiled() noexcept;

/// IFMA twin of x25519_x4_ladder4; only callable when
/// x25519_ifma_compiled() && cpu_has_avx512ifma().
void x25519_ifma_ladder4(const std::uint8_t k[4][32],
                         const std::uint8_t* const u[4],
                         std::uint8_t out[4][32]);

/// IFMA twins of the x4 field-op hooks (radix-2^43 domain inside).
bool x25519_ifma_mul(const fe25519::Fe a[4], const fe25519::Fe b[4],
                     fe25519::Fe r[4]);
bool x25519_ifma_sq(const fe25519::Fe a[4], fe25519::Fe r[4]);

}  // namespace detail

}  // namespace shield5g::crypto
