// Batch dispatcher for x25519_batch() — built with the project's normal
// flags (no -mavx2) so the scalar fallback path cannot pick up AVX2
// instructions by autovectorization; the vector kernels live in
// x25519_x4.cpp alone.
#include "crypto/x25519_batch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/hot_stage.h"
#include "crypto/cpu_dispatch.h"
#include "crypto/op_count.h"
#include "crypto/x25519_comb.h"
#include "crypto/x25519_internal.h"

namespace shield5g::crypto {

namespace {

using fe25519::Fe;

// 0 = unset, 1 = scalar, 2 = x4, 3 = ifma; same relaxed-atomic pattern
// as cpu_dispatch's g_forced.
std::atomic<int> g_forced_engine{0};

// SHIELD5G_X25519_BATCH: unset/auto = best available, "x4" caps
// selection at the AVX2 kernel (the non-IFMA fallback smoke uses this),
// "scalar" forces the reference path.
enum class EnvCap { kAuto, kX4, kScalar };

EnvCap env_cap() noexcept {
  static const EnvCap cap = [] {
    const char* env = std::getenv("SHIELD5G_X25519_BATCH");
    if (env == nullptr) return EnvCap::kAuto;
    if (std::strcmp(env, "scalar") == 0) return EnvCap::kScalar;
    if (std::strcmp(env, "x4") == 0) return EnvCap::kX4;
    return EnvCap::kAuto;
  }();
  return cap;
}

bool x4_available() noexcept {
  return detail::x25519_x4_compiled() && cpu_has_avx2();
}

bool ifma_available() noexcept {
  return detail::x25519_ifma_compiled() && cpu_has_avx512ifma();
}

// Finishes one fraction to a canonical u-coordinate, the way the serial
// x25519() does.
void finish_item(const Fe& num, const Fe& den, X25519Key* out) {
  fe25519::fe_store(out->data(), fe25519::fe_mul(num, fe25519::fe_invert(den)));
}

}  // namespace

X25519BatchEngine x25519_batch_engine() noexcept {
  const int forced = g_forced_engine.load(std::memory_order_relaxed);
  if (forced == 1) return X25519BatchEngine::kScalar;
  if (forced == 3 && ifma_available()) return X25519BatchEngine::kIfma;
  if (forced == 2 || forced == 3) {
    return x4_available() ? X25519BatchEngine::kX4
                          : X25519BatchEngine::kScalar;
  }
  // SHIELD5G_CRYPTO_BACKEND=scalar pins the whole crypto stack to the
  // reference path, batch engine included.
  if (active_backend() != CryptoBackend::kAccelerated ||
      env_cap() == EnvCap::kScalar) {
    return X25519BatchEngine::kScalar;
  }
  if (ifma_available() && env_cap() == EnvCap::kAuto) {
    return X25519BatchEngine::kIfma;
  }
  if (x4_available()) return X25519BatchEngine::kX4;
  return X25519BatchEngine::kScalar;
}

const char* x25519_batch_engine_name(X25519BatchEngine engine) noexcept {
  switch (engine) {
    case X25519BatchEngine::kX4: return "x4";
    case X25519BatchEngine::kIfma: return "ifma";
    case X25519BatchEngine::kScalar: break;
  }
  return "scalar";
}

void x25519_batch(X25519BatchItem* items, std::size_t n) {
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (items[i].scalar.size() != 32 || items[i].point.size() != 32 ||
        items[i].out == nullptr) {
      throw std::invalid_argument(
          "x25519_batch: items need 32-byte scalar/point and an output");
    }
  }
  ScopedStage timer(HotStage::kCrypto);
  op_counts().x25519_ops += n;  // exactly what n serial calls charge

  std::vector<std::array<std::uint8_t, 32>> ks(n);
  for (std::size_t i = 0; i < n; ++i) {
    detail::x25519_clamp(ks[i].data(), items[i].scalar);
  }

  // Every item is one fixed-point use. Comb-served points evaluate
  // right away; the ladder-bound rest run 4 at a time through the
  // vector engine (IFMA or AVX2, same batching shape), if there is one.
  std::vector<std::size_t> ladder_queue;
  ladder_queue.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const detail::CombTable* table = detail::x25519_fixed_table(items[i].point);
    if (table != nullptr) {
      Fe num, den;
      detail::comb_eval_fraction(*table, ks[i].data(), num, den);
      finish_item(num, den, items[i].out);
    } else {
      ladder_queue.push_back(i);
    }
  }

  const X25519BatchEngine engine = x25519_batch_engine();
  const bool four_lane = engine != X25519BatchEngine::kScalar;
  const auto ladder4 = engine == X25519BatchEngine::kIfma
                           ? detail::x25519_ifma_ladder4
                           : detail::x25519_x4_ladder4;
  std::size_t q = 0;
  for (; four_lane && q + 4 <= ladder_queue.size(); q += 4) {
    std::uint8_t k4[4][32];
    const std::uint8_t* u4[4];
    std::uint8_t out4[4][32];
    for (int l = 0; l < 4; ++l) {
      const std::size_t idx = ladder_queue[q + l];
      std::memcpy(k4[l], ks[idx].data(), 32);
      u4[l] = items[idx].point.data();
    }
    ladder4(k4, u4, out4);
    for (int l = 0; l < 4; ++l) {
      std::memcpy(items[ladder_queue[q + l]].out->data(), out4[l], 32);
    }
    secure_zero(k4, sizeof(k4));
  }
  for (; q < ladder_queue.size(); ++q) {
    // Scalar engine or a partial group: the serial ladder.
    const std::size_t idx = ladder_queue[q];
    Fe num, den;
    detail::x25519_ladder_fraction(ks[idx].data(), items[idx].point, num, den);
    finish_item(num, den, items[idx].out);
  }
  secure_zero(ks.data(), n * sizeof(ks[0]));
}

namespace detail {

void force_batch_engine(X25519BatchEngine engine) noexcept {
  int v = 1;
  if (engine == X25519BatchEngine::kX4) v = 2;
  if (engine == X25519BatchEngine::kIfma) v = 3;
  g_forced_engine.store(v, std::memory_order_relaxed);
}

void clear_forced_batch_engine() noexcept {
  g_forced_engine.store(0, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace shield5g::crypto
