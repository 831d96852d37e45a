// Batched X25519: many independent scalar mults per call.
//
// The ephemeral-key pool (crypto/eph_pool.h) generates scalar mults in
// bursts: a refill mints a ring of keys (64 by default) on the base
// point, and a static-peer fill prepares shared secrets against one
// peer key. x25519_batch() runs such a burst as a plain loop: each item
// is one fixed-point mult, exactly as x25519_public() runs it (clamp,
// the comb or the ladder, one inversion).
//
// Contracts:
//   * Bit-identity: outputs equal n serial crypto::x25519() calls, byte
//     for byte, on every input (twist points and u = 0 included) — the
//     scalar Montgomery ladder stays the oracle, enforced by
//     kernel_parity_test.
//   * Op-count neutrality: charges exactly n x25519 ops to the calling
//     thread's meter, same as n serial calls.
//   * Fixed points: every item is one use of its point in the fixed-
//     point comb cache (crypto/x25519_internal.h, x25519_fixed_table),
//     in item order. Points with a comb table use it; the rest take
//     the ladder.
#pragma once

#include <cstddef>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/x25519.h"

namespace shield5g::crypto {

/// One scalar mult of a batch. The views must stay valid until the
/// x25519_batch() call returns; `out` receives X25519(scalar, point).
struct X25519BatchItem {
  SecretView scalar;
  ByteView point;
  X25519Key* out = nullptr;
};

/// Executes n independent mults in item order (any n, including 0).
/// Charges n x25519 ops.
void x25519_batch(X25519BatchItem* items, std::size_t n);

/// The one batch engine: a per-item loop over the fixed-point path.
/// Kept as a named value because reports print it.
enum class X25519BatchEngine { kScalar };

inline X25519BatchEngine x25519_batch_engine() noexcept {
  return X25519BatchEngine::kScalar;
}

/// "scalar", for reports.
inline const char* x25519_batch_engine_name(X25519BatchEngine) noexcept {
  return "scalar";
}

}  // namespace shield5g::crypto
