// Internal X25519 entry points for parity tests and benchmarks.
//
// Production code calls the public entry points: x25519() always runs
// the ladder, and the fixed-point ones (x25519_public, x25519_keypair,
// x25519_keypair_shared) pick the comb on their own.
// These hooks let tests pin a specific path and assert that the two
// Montgomery ladders and the Edwards comb agree bit for bit.
#pragma once

#include <cstdint>

#include "crypto/fe25519.h"
#include "crypto/x25519.h"
#include "crypto/x25519_comb.h"

namespace shield5g::crypto::detail {

/// Montgomery ladder, unconditionally, on the engine x25519() picks
/// (x25519_ladder_name()). Does not charge op counts.
X25519Key x25519_ladder(SecretView scalar, ByteView u);

/// The portable 5x51 ladder, whatever the backend and CPU.
X25519Key x25519_ladder_portable(SecretView scalar, ByteView u);

/// The 4-lane AVX-512 IFMA ladder. Only call when cpu_has_ifma().
X25519Key x25519_ladder_ifma(SecretView scalar, ByteView u);

/// The IFMA ladder's body (x25519_ifma.cpp), up to the final
/// inversion: u = num/den with the same field values as the portable
/// ladder. `k` is the clamped scalar. Only call when cpu_has_ifma().
void ladder_fraction_ifma(const std::uint8_t k[32], ByteView u,
                          fe25519::Fe& num, fe25519::Fe& den);

/// The comb table for fixed point `u`, or nullptr to take the ladder
/// (always under the scalar backend). The base point has a table from
/// the first call. For any other point each call counts one use in
/// this thread's cache, and the point gets a table on its 6th use; the
/// 17th distinct point evicts the least recently used one.
const CombTable* x25519_fixed_table(ByteView u);

/// Edwards comb, unconditionally, through a throwaway table. Throws std::invalid_argument when the
/// point does not lift to edwards25519. Does not charge op counts.
X25519Key x25519_comb_forced(SecretView scalar, ByteView u);

/// True when `u` lifts to edwards25519 (i.e. the comb can serve it).
bool x25519_comb_liftable(ByteView u);

/// Drops this thread's fixed-point cache: use counts and tables (tests
/// reset between cases). The base point's table stays.
void x25519_cache_reset();

/// Points this thread's fixed-point cache currently remembers, with or
/// without a table (unliftable verdicts included).
std::size_t x25519_cache_size();

}  // namespace shield5g::crypto::detail
