// X25519 Diffie-Hellman over Curve25519 (RFC 7748), from scratch.
//
// This is the key-agreement primitive of ECIES "Profile A" used for SUPI
// concealment (TS 33.501 Annex C.3.4.1): the UE encrypts its permanent
// identifier to the home network's public key, producing the SUCI that
// the UDM/SIDF de-conceals inside the trust boundary.
#pragma once

#include <array>

#include "common/bytes.h"
#include "common/secret.h"

namespace shield5g::crypto {

constexpr std::size_t kX25519KeySize = 32;

using X25519Key = std::array<std::uint8_t, kX25519KeySize>;

/// Computes X25519(scalar, u). Both arguments are 32 bytes; the scalar
/// is the private key and is tainted. Variable-base: for a point seen
/// once, such as a peer's ephemeral key, it always runs the ladder.
X25519Key x25519(SecretView scalar, ByteView u);

/// The Montgomery ladder engine x25519() runs under the active backend
/// on this host, for reports: "ifma4" (each step as three 4-lane
/// AVX-512 IFMA multiplies; accelerated backend on a CPU with IFMA) or
/// "portable" (the 5x51 ladder). Outputs are identical either way.
const char* x25519_ladder_name() noexcept;

/// Public key for a private scalar: X25519(scalar, 9). This and the
/// other fixed-point entry points (x25519_keypair, the peer of
/// x25519_keypair_shared) may take the Edwards comb
/// (crypto/x25519_comb.h); the output is the same either way.
X25519Key x25519_public(SecretView scalar);

/// Key pair generated from 32 random bytes (clamped internally by the
/// scalar multiplication, per RFC 7748). The private scalar lives in
/// tainted fixed-size storage and zeroizes on destruction.
struct X25519KeyPair {
  Secret<kX25519KeySize> private_key;
  X25519Key public_key;
};
X25519KeyPair x25519_keypair(ByteView random32);

/// Key pair plus the shared secret with `peer_public`, fused: the two
/// scalar multiplications (base point and peer point) run back to back
/// and share one batched field inversion for their affine outputs
/// (Montgomery's trick), shaving ~1/3 of a fixed-base multiplication
/// off every TLS client handshake and every ECIES conceal. Outputs are
/// bit-identical to calling x25519_keypair() then x25519().
X25519KeyPair x25519_keypair_shared(ByteView random32, ByteView peer_public,
                                    X25519Key& shared_out);

/// An ephemeral key pair bundled with the shared secret it forms with a
/// known peer key — what a TLS first contact or an ECIES conceal
/// actually consumes. Minted off the op meter by
/// EphemeralKeyPool::acquire_shared (crypto/eph_pool.h).
struct X25519SharedKeyPair {
  X25519KeyPair kp;
  X25519Key shared{};
};

}  // namespace shield5g::crypto
