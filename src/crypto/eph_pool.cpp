#include "crypto/eph_pool.h"

#include <stdexcept>

#include "common/hot_stage.h"
#include "common/stats.h"
#include "crypto/op_count.h"

namespace shield5g::crypto {

EphemeralKeyPool::EphemeralKeyPool(Config config) : rng_(config.seed) {}

X25519SharedKeyPair EphemeralKeyPool::acquire_shared(ByteView peer_public) {
  if (peer_public.size() != kX25519KeySize) {
    throw std::invalid_argument(
        "EphemeralKeyPool::acquire_shared: peer key must be 32 bytes");
  }
  Bytes random;
  {
    std::lock_guard<std::mutex> lock(mu_);
    random = rng_.bytes(32);
  }
  // The two mults model background generation: restore the meter so
  // the consumer is billed below for the one variable-base mult a
  // serial pop-then-x25519() would have charged.
  X25519SharedKeyPair out;
  const OpCounts before = op_counts();
  out.kp = x25519_keypair_shared(random, peer_public, out.shared);
  op_counts() = before;
  secure_zero(random.data(), random.size());
  {
    ScopedStage timer(HotStage::kCrypto);
    ++op_counts().x25519_ops;
  }
  counter_add("x25519.pool.hit");
  return out;
}

}  // namespace shield5g::crypto
