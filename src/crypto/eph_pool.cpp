#include "crypto/eph_pool.h"

#include <algorithm>
#include <stdexcept>

#include "common/hot_stage.h"
#include "common/stats.h"
#include "crypto/op_count.h"
#include "crypto/x25519_batch.h"

namespace shield5g::crypto {

namespace {

// RFC 7748 base point, the fixed operand of every refill mult.
constexpr std::uint8_t kBasePoint[32] = {9};

}  // namespace

EphemeralKeyPool::EphemeralKeyPool(Config config)
    : config_(config), rng_(config.seed) {
  if (config_.capacity == 0) {
    throw std::invalid_argument("EphemeralKeyPool: capacity must be > 0");
  }
  ring_.reserve(config_.capacity);
  peers_.reserve(kMaxPeerSlots);
}

void EphemeralKeyPool::refill_locked() {
  // Batch generation models the background refill thread of a real
  // deployment: the fixed-base mults do not charge the consumer's op
  // meter (they are off the critical path), so a handshake that drains
  // the pool is billed only for its own variable-base multiplication.
  //
  // Private scalars are drawn first, in the same RNG order the old
  // one-at-a-time loop used, so the key stream is bit-identical; the
  // public keys then compute as one x25519_batch() call.
  const OpCounts before = op_counts();
  ring_.clear();
  for (std::size_t i = 0; i < config_.capacity; ++i) {
    X25519KeyPair pair;
    pair.private_key = Secret<kX25519KeySize>(rng_.bytes(32));
    ring_.push_back(std::move(pair));
  }
  std::vector<X25519BatchItem> items;
  items.reserve(config_.capacity);
  for (X25519KeyPair& pair : ring_) {
    items.push_back(X25519BatchItem{pair.private_key,
                                    ByteView(kBasePoint, 32),
                                    &pair.public_key});
  }
  x25519_batch(items.data(), items.size());
  op_counts() = before;
  generated_ += config_.capacity;
  counter_add("x25519.pool.refill_keys", config_.capacity);
}

X25519KeyPair EphemeralKeyPool::take_pair_locked() {
  if (ring_.empty()) refill_locked();
  X25519KeyPair out = std::move(ring_.back());
  ring_.pop_back();
  return out;
}

EphemeralKeyPool::PeerSlot& EphemeralKeyPool::slot_for_locked(
    ByteView peer_public) {
  for (PeerSlot& slot : peers_) {
    // Peer public keys are not secret; still, branch on an accumulated
    // difference rather than byte-by-byte so the comparison shape
    // matches the rest of the crypto layer.
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < 32; ++i) acc |= slot.peer[i] ^ peer_public[i];
    if (acc == 0) {
      slot.last_use = ++peer_clock_;
      return slot;
    }
  }
  if (peers_.size() < kMaxPeerSlots) {
    peers_.emplace_back();
  } else {
    // Evict the least recently used peer; its prepared pairs are
    // discarded (they were generated off-meter, so nothing was billed).
    std::size_t victim = 0;
    for (std::size_t i = 1; i < peers_.size(); ++i) {
      if (peers_[i].last_use < peers_[victim].last_use) victim = i;
    }
    peers_[victim] = PeerSlot{};
    PeerSlot& slot = peers_[victim];
    std::copy(peer_public.begin(), peer_public.end(), slot.peer.begin());
    slot.last_use = ++peer_clock_;
    return slot;
  }
  PeerSlot& slot = peers_.back();
  std::copy(peer_public.begin(), peer_public.end(), slot.peer.begin());
  slot.last_use = ++peer_clock_;
  return slot;
}

void EphemeralKeyPool::fill_shared_locked(PeerSlot& slot, std::size_t count) {
  // Off-meter like refill_locked: the consumer is billed one op per
  // pair at acquisition, not here.
  const OpCounts before = op_counts();
  const std::size_t base = slot.ready.size();
  for (std::size_t i = 0; i < count; ++i) {
    X25519SharedKeyPair prep;
    prep.kp = take_pair_locked();
    slot.ready.push_back(std::move(prep));
  }
  std::vector<X25519BatchItem> items;
  items.reserve(count);
  for (std::size_t i = base; i < slot.ready.size(); ++i) {
    items.push_back(X25519BatchItem{
        slot.ready[i].kp.private_key,
        ByteView(slot.peer.data(), slot.peer.size()), &slot.ready[i].shared});
  }
  x25519_batch(items.data(), items.size());
  op_counts() = before;
  counter_add("x25519.pool.shared_keys", count);
}

X25519SharedKeyPair EphemeralKeyPool::acquire_shared(ByteView peer_public) {
  if (peer_public.size() != kX25519KeySize) {
    throw std::invalid_argument(
        "EphemeralKeyPool::acquire_shared: peer key must be 32 bytes");
  }
  std::lock_guard<std::mutex> lock(mu_);
  PeerSlot& slot = slot_for_locked(peer_public);
  ++slot.acquires;
  if (slot.ready.empty()) {
    // First contact prepares a single pair (no waste if the peer never
    // returns); repeat traffic fills kSharedBatch at a time.
    fill_shared_locked(slot, slot.acquires > 1 ? kSharedBatch : 1);
  }
  X25519SharedKeyPair out = std::move(slot.ready.front());
  slot.ready.erase(slot.ready.begin());
  // Bill the consumer for the one variable-base mult a serial
  // pop-then-x25519() would have charged here, keeping virtual-time
  // accounting bit-identical to the unbatched path.
  {
    ScopedStage timer(HotStage::kCrypto);
    ++op_counts().x25519_ops;
  }
  counter_add("x25519.pool.hit");
  return out;
}

void EphemeralKeyPool::prewarm_shared(ByteView peer_public,
                                      std::size_t count) {
  if (peer_public.size() != kX25519KeySize) {
    throw std::invalid_argument(
        "EphemeralKeyPool::prewarm_shared: peer key must be 32 bytes");
  }
  if (count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  PeerSlot& slot = slot_for_locked(peer_public);
  if (slot.ready.size() < count) {
    fill_shared_locked(slot, count - slot.ready.size());
  }
}

std::size_t EphemeralKeyPool::available() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::size_t EphemeralKeyPool::available_shared(ByteView peer_public) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const PeerSlot& slot : peers_) {
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < 32; ++i) acc |= slot.peer[i] ^ peer_public[i];
    if (acc == 0) return slot.ready.size();
  }
  return 0;
}

std::uint64_t EphemeralKeyPool::generated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generated_;
}

}  // namespace shield5g::crypto
