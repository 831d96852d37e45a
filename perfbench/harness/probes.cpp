#include "harness/probes.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

std::mutex g_retired_mutex;
shield5g::crypto::OpCounts g_retired;  // guarded by g_retired_mutex

/// One thread's op counts; folds into g_retired when the thread exits.
struct ThreadOps {
  shield5g::crypto::OpCounts counts;
  ~ThreadOps() {
    const std::lock_guard<std::mutex> lock(g_retired_mutex);
    g_retired.aes_blocks += counts.aes_blocks;
    g_retired.sha256_blocks += counts.sha256_blocks;
    g_retired.x25519_ops += counts.x25519_ops;
  }
};

thread_local ThreadOps t_ops;

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace shield5g::crypto {

OpCounts& op_counts() noexcept { return t_ops.counts; }

}  // namespace shield5g::crypto

namespace perfbench {

void set_alloc_counting(bool on) noexcept {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

shield5g::crypto::OpCounts op_counts_total() noexcept {
  shield5g::crypto::OpCounts total = t_ops.counts;
  const std::lock_guard<std::mutex> lock(g_retired_mutex);
  total.aes_blocks += g_retired.aes_blocks;
  total.sha256_blocks += g_retired.sha256_blocks;
  total.x25519_ops += g_retired.x25519_ops;
  return total;
}

}  // namespace perfbench
