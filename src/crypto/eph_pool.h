// Precomputed X25519 ephemeral-key pool.
//
// PR 5's Amdahl breakdown pins ~78% of wall-clock on ladder-bound
// X25519, and half of every TLS client handshake / ECIES conceal is the
// fixed-base multiplication that mints the ephemeral key pair — work
// that depends on nothing but entropy and can run off the critical
// path. This pool pregenerates key pairs in batches from its own
// deterministic RNG stream, one x25519_batch() on the base point per
// refill.
//
// The pool also precomputes per-peer *shared secrets*: consumers that
// talk to a stable peer key (the home-network SUCI key, a server's TLS
// identity) can acquire_shared() a key pair bundled with its X25519
// shared secret. The pool prepares those in groups, one x25519_batch()
// per group; prewarm_shared() lets a scheduler that knows a burst is
// coming (the load generator's per-tick conceal coalescing) size the
// group exactly.
// The group shapes also fix the order in which ring keys are drawn, so
// they are part of the key stream.
//
// Determinism contract: one pool per Slice, seeded from the slice seed,
// consumed in the slice's deterministic event order — so sweep digests
// stay byte-identical at any shard worker count. Refills and shared
// prefills exclude their scalar mults from the thread's op meter
// (modeling background generation outside the virtual-time critical
// path); each consumed pair charges exactly the one x25519 op the
// serial path would, at acquisition. The pool reports through the
// process-wide `x25519.pool.{hit,refill_keys,shared_keys}` counters,
// which never feed digests.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "crypto/x25519.h"

namespace shield5g::crypto {

class EphemeralKeyPool {
 public:
  struct Config {
    std::size_t capacity = 64;  // key pairs generated per refill batch
    std::uint64_t seed = 0;
  };

  /// Pairs the shared-precompute path prepares at a time once a peer
  /// shows repeat traffic. Changing it changes which ring key each
  /// consumer draws, and with it every digest.
  static constexpr std::size_t kSharedBatch = 4;

  /// Distinct peer keys with prepared shared secrets; least recently
  /// used slot is evicted beyond this.
  static constexpr std::size_t kMaxPeerSlots = 8;

  explicit EphemeralKeyPool(Config config);

  EphemeralKeyPool(const EphemeralKeyPool&) = delete;
  EphemeralKeyPool& operator=(const EphemeralKeyPool&) = delete;

  /// Pops a key pair together with its precomputed shared secret
  /// against `peer_public` (32 bytes). Charges the consumer's op meter
  /// exactly one x25519 op — the same bill as popping a pregenerated
  /// key pair and running a serial x25519() against the peer — so
  /// virtual-time accounting is unchanged; the mult itself ran
  /// off-meter in a prepared group. A cold peer prepares a single pair;
  /// peers with repeat traffic prepare kSharedBatch at a time.
  /// Thread-safe: shard hammers may acquire concurrently, though in
  /// normal operation a pool belongs to one slice.
  X25519SharedKeyPair acquire_shared(ByteView peer_public);

  /// Ensures at least `count` prepared pairs are ready for
  /// `peer_public`, batching the variable-base mults off-meter. Call
  /// before a known burst (e.g. N conceals scheduled for the same
  /// tick) so the whole burst is prepared as one group.
  void prewarm_shared(ByteView peer_public, std::size_t count);

  /// Key pairs currently ready (diagnostics / tests).
  std::size_t available() const;

  /// Prepared shared pairs ready for `peer_public` (diagnostics / tests).
  std::size_t available_shared(ByteView peer_public) const;

  /// Key pairs generated so far, including the initial fill.
  std::uint64_t generated() const;

 private:
  struct PeerSlot {
    std::array<std::uint8_t, 32> peer{};
    std::vector<X25519SharedKeyPair> ready;  // consumed front-first (FIFO)
    std::uint64_t last_use = 0;
    std::uint64_t acquires = 0;
  };

  void refill_locked() SHIELD_REQUIRES(mu_);
  X25519KeyPair take_pair_locked() SHIELD_REQUIRES(mu_);
  PeerSlot& slot_for_locked(ByteView peer_public) SHIELD_REQUIRES(mu_);
  void fill_shared_locked(PeerSlot& slot, std::size_t count)
      SHIELD_REQUIRES(mu_);

  Config config_;
  mutable std::mutex mu_;
  Rng rng_ SHIELD_GUARDED_BY(mu_);
  std::vector<X25519KeyPair> ring_ SHIELD_GUARDED_BY(mu_);
  std::vector<PeerSlot> peers_ SHIELD_GUARDED_BY(mu_);
  std::uint64_t peer_clock_ SHIELD_GUARDED_BY(mu_) = 0;
  std::uint64_t generated_ SHIELD_GUARDED_BY(mu_) = 0;
};

}  // namespace shield5g::crypto
