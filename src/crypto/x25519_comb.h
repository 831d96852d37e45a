// Fixed-point X25519 via an Edwards comb (internal).
//
// The registration hot path multiplies two points over and over: the
// curve base point (every ephemeral keypair) and the peer's static
// public key (every client-side shared secret). For a point that
// repeats, we lift its Montgomery u-coordinate to edwards25519, build a
// 64-window x signed-4-bit comb table T[i][j] = j * 16^i * P (j = 1..8,
// affine entries) once, and replace each 255-double Montgomery ladder
// with 64 constant-time table scans and mixed additions. Points that do
// not lift (the curve's quadratic twist, or u = -1) keep the ladder.
//
// The output u-coordinate is bit-identical to the ladder's: both paths
// canonicalize the same field element. Only the fixed-point entry
// points use the comb (x25519.cpp): the base point through one static
// table, any other point through a per-thread LRU of 16 tables, built
// on a point's 6th use. They charge the same op counts on either path.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/fe25519.h"

namespace shield5g::crypto::detail {

struct CombTable;  // opaque; ~60 KiB, heap-allocated

struct CombTableDeleter {
  void operator()(CombTable* t) const noexcept;
};
using CombTablePtr = std::unique_ptr<CombTable, CombTableDeleter>;

/// Lifts the Montgomery u-coordinate `u32` (32 bytes, little-endian) to
/// edwards25519 and builds the comb table. Returns nullptr when the
/// point is not liftable (twist point or exceptional u); callers must
/// then keep using the ladder for this point.
CombTablePtr comb_build(const std::uint8_t* u32);

/// Computes the u-coordinate of clamped_scalar * P where P is the point
/// the table was built from. `scalar32` must already be RFC 7748
/// clamped. Output matches the Montgomery ladder bit for bit.
void comb_eval(const CombTable& table, const std::uint8_t* scalar32,
               std::uint8_t* out_u32);

/// comb_eval up to (but not including) the final field inversion:
/// u = num/den. Lets callers that perform several scalar mults batch
/// the inversions (Montgomery's trick) — den may be zero for the
/// degenerate cases where comb_eval would canonicalize u to 0.
void comb_eval_fraction(const CombTable& table, const std::uint8_t* scalar32,
                        fe25519::Fe& num, fe25519::Fe& den);

}  // namespace shield5g::crypto::detail
