// Off-meter X25519 ephemeral-key source.
//
// Every TLS full handshake and every ECIES conceal needs one fresh
// ephemeral key pair plus its shared secret with a known peer key (the
// home-network SUCI key, a server's TLS identity). Minting the pair
// depends on nothing but entropy, so a real deployment runs it off the
// critical path. This pool models that: acquire_shared() draws 32 bytes
// from its own seeded RNG, runs the fused x25519_keypair_shared() (one
// inversion for both mults) off the consumer's op meter, and bills the
// consumer the one variable-base mult it would still owe.
//
// Determinism contract: one pool per Slice, seeded from the slice seed,
// consumed in the slice's deterministic event order, so the i-th
// acquisition always gets the i-th 32-byte draw of Rng(seed). Key bytes
// never reach virtual time or a digest; only the op bill does, and it
// is one x25519 op per acquisition. The pool reports through the
// process-wide `x25519.pool.hit` counter, which never feeds digests.
#pragma once

#include <cstdint>
#include <mutex>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "crypto/x25519.h"

namespace shield5g::crypto {

class EphemeralKeyPool {
 public:
  struct Config {
    std::uint64_t seed = 0;
  };

  explicit EphemeralKeyPool(Config config);

  EphemeralKeyPool(const EphemeralKeyPool&) = delete;
  EphemeralKeyPool& operator=(const EphemeralKeyPool&) = delete;

  /// Mints a key pair from the next 32-byte RNG draw together with its
  /// shared secret against `peer_public` (32 bytes, else
  /// std::invalid_argument). Charges the consumer's op meter exactly
  /// one x25519 op: the mults themselves run off-meter. Thread-safe:
  /// shard hammers may acquire concurrently, though in normal
  /// operation a pool belongs to one slice.
  X25519SharedKeyPair acquire_shared(ByteView peer_public);

 private:
  std::mutex mu_;
  Rng rng_ SHIELD_GUARDED_BY(mu_);
};

}  // namespace shield5g::crypto
