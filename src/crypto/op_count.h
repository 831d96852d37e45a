// Lightweight instrumentation of the crypto primitives.
//
// The cost models charge virtual time per primitive operation actually
// executed (AES block, SHA-256 compression, X25519 scalar mult), so the
// functional latency of a P-AKA handler is driven by the real work its
// real code performs rather than by a hard-coded per-handler constant.
//
// Counters are thread_local: a handler (and its OpMeter) always runs to
// completion on one thread, while sim::ShardPool fans shards out across
// host threads — per-thread counters keep each job's delta exact without
// putting atomics on the per-block hot path.
#pragma once

#include <cstdint>

namespace shield5g::crypto {

struct OpCounts {
  std::uint64_t aes_blocks = 0;
  std::uint64_t sha256_blocks = 0;
  std::uint64_t x25519_ops = 0;

  OpCounts operator-(const OpCounts& rhs) const noexcept {
    return OpCounts{aes_blocks - rhs.aes_blocks,
                    sha256_blocks - rhs.sha256_blocks,
                    x25519_ops - rhs.x25519_ops};
  }
};

/// Per-thread counter, incremented by the primitives.
OpCounts& op_counts() noexcept;

}  // namespace shield5g::crypto
