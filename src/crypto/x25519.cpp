#include "crypto/x25519.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "common/hot_stage.h"
#include "common/lru_cache.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "crypto/cpu_dispatch.h"
#include "crypto/fe25519.h"
#include "crypto/op_count.h"
#include "crypto/x25519_comb.h"
#include "crypto/x25519_internal.h"

namespace shield5g::crypto {

namespace {

using namespace fe25519;

void clamp(std::uint8_t k[32], SecretView scalar) {
  std::memcpy(k, scalar.unsafe_bytes().data(), 32);
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;
}

// The 4-lane IFMA ladder runs under the accelerated backend on a CPU
// with IFMA; the scalar backend and every other host keep the portable
// one. Both compute the same num/den field values.
bool use_ifma_ladder() {
  return active_backend() == CryptoBackend::kAccelerated && cpu_has_ifma();
}

// RFC 7748 Montgomery ladder over the shared fe25519 arithmetic,
// stopping short of the final inversion: u = num/den.
void ladder_fraction(const std::uint8_t k[32], ByteView u, Fe& num, Fe& den) {
  const Fe x1 = fe_load(u.data());
  Fe x2{1, 0, 0, 0, 0}, z2{0, 0, 0, 0, 0};
  Fe x3 = x1, z3{1, 0, 0, 0, 0};
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    const std::uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    fe_cswap(swap, x2, x3);
    fe_cswap(swap, z2, z3);
    swap = k_t;

    const Fe a = fe_add(x2, z2);
    const Fe aa = fe_sq(a);
    const Fe b = fe_sub(x2, z2);
    const Fe bb = fe_sq(b);
    const Fe e = fe_sub(aa, bb);
    const Fe c = fe_add(x3, z3);
    const Fe d = fe_sub(x3, z3);
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
  }
  fe_cswap(swap, x2, x3);
  fe_cswap(swap, z2, z3);
  num = x2;
  den = z2;
}

// The ladder body on the engine the backend and CPU select.
void dispatch_ladder_fraction(const std::uint8_t k[32], ByteView u, Fe& num,
                              Fe& den) {
  if (use_ifma_ladder()) {
    detail::ladder_fraction_ifma(k, u, num, den);
  } else {
    ladder_fraction(k, u, num, den);
  }
}

using FractionFn = void (*)(const std::uint8_t*, ByteView, Fe&, Fe&);

// One whole mult through `fraction`: clamp, fraction, inversion.
// Charges no op counts; the callers do.
X25519Key mult_with(FractionFn fraction, SecretView scalar, ByteView u) {
  if (scalar.size() != 32 || u.size() != 32) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  std::uint8_t k[32];
  clamp(k, scalar);
  Fe num, den;
  fraction(k, u, num, den);
  secure_zero(k, sizeof(k));
  X25519Key result{};
  fe_store(result.data(), fe_mul(num, fe_invert(den)));
  return result;
}

// Fixed-point comb tables. Only the fixed-point entry points below
// consult them; x25519() is variable-base and always takes the ladder.
// The base point has one immutable table per process. Any other fixed
// point (a server's TLS identity, the home network's ECIES key) is
// counted in a per-thread LRU and gets its own table on its
// kBuildThreshold-th use. A build costs about five ladders, so a point
// used fewer times, such as Slice::create's one-shot NRF registrations,
// never pays for one. An unliftable (twist) point is remembered with a
// null table and keeps the ladder.
constexpr int kBuildThreshold = 6;
constexpr std::size_t kCachedPoints = 16;  // ~60 KiB table each

constexpr std::array<std::uint8_t, 32> kBasePoint = {9};

bool same_u(const std::array<std::uint8_t, 32>& a, const std::uint8_t* b) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  }
  return acc == 0;
}

struct CachedPoint {
  int uses = 0;
  detail::CombTablePtr table;  // null until built, or when u won't lift
};

using PointCache = LruCache<std::array<std::uint8_t, 32>, CachedPoint>;

PointCache& point_cache() {
  thread_local PointCache cache SHIELD_THREAD_CONFINED(kCachedPoints);
  return cache;
}

// Returns the table to use for fixed point `u`, or nullptr to take the
// ladder. Counts one use of `u` unless it is the base point.
const detail::CombTable* fixed_table(ByteView u) {
  if (active_backend() != CryptoBackend::kAccelerated) return nullptr;
  if (same_u(kBasePoint, u.data())) {
    static const detail::CombTablePtr base =
        detail::comb_build(kBasePoint.data());
    return base.get();
  }
  std::array<std::uint8_t, 32> key{};
  std::copy(u.begin(), u.end(), key.begin());
  PointCache& cache = point_cache();
  CachedPoint* point = cache.find(key);
  if (point == nullptr) point = &cache.insert(key, CachedPoint{});
  if (point->uses < kBuildThreshold && ++point->uses == kBuildThreshold) {
    point->table = detail::comb_build(u.data());
    counter_add("x25519.comb.build");
  }
  return point->table.get();
}

// One fixed-point mult up to (not including) its final inversion.
void fixed_fraction(const std::uint8_t k[32], ByteView u, Fe& num, Fe& den) {
  if (const detail::CombTable* table = fixed_table(u)) {
    detail::comb_eval_fraction(*table, k, num, den);
  } else {
    dispatch_ladder_fraction(k, u, num, den);
  }
}

}  // namespace

X25519Key x25519(SecretView scalar, ByteView u) {
  if (scalar.size() != 32 || u.size() != 32) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  ScopedStage timer(HotStage::kCrypto);
  ++op_counts().x25519_ops;
  return detail::x25519_ladder(scalar, u);
}

const char* x25519_ladder_name() noexcept {
  return use_ifma_ladder() ? "ifma4" : "portable";
}

X25519KeyPair x25519_keypair_shared(ByteView random32, ByteView peer_public,
                                    X25519Key& shared_out) {
  if (random32.size() != 32 || peer_public.size() != 32) {
    throw std::invalid_argument("x25519_keypair_shared: need 32-byte inputs");
  }
  ScopedStage timer(HotStage::kCrypto);
  op_counts().x25519_ops += 2;  // two scalar mults, charged as always

  X25519KeyPair kp;
  kp.private_key = Secret<kX25519KeySize>(random32);
  std::uint8_t k[32];
  clamp(k, kp.private_key);

  Fe n1, d1, n2, d2;
  fixed_fraction(k, ByteView(kBasePoint), n1, d1);
  fixed_fraction(k, peer_public, n2, d2);
  secure_zero(k, sizeof(k));

  // Batched inversion, zero-safe: a zero denominator (low-order peer
  // point) must yield u = 0 exactly as the unfused path's
  // fe_invert(0) = 0 does, without poisoning the other result.
  const std::uint64_t zero1 = fe_is_zero(d1) ? 1 : 0;
  const std::uint64_t zero2 = fe_is_zero(d2) ? 1 : 0;
  Fe d1s = d1, d2s = d2;
  fe_cmov(d1s, fe_one(), zero1);
  fe_cmov(d2s, fe_one(), zero2);
  const Fe inv_all = fe_invert(fe_mul(d1s, d2s));
  Fe r1 = fe_mul(n1, fe_mul(inv_all, d2s));
  Fe r2 = fe_mul(n2, fe_mul(inv_all, d1s));
  fe_cmov(r1, fe_zero(), zero1);
  fe_cmov(r2, fe_zero(), zero2);
  fe_store(kp.public_key.data(), r1);
  fe_store(shared_out.data(), r2);
  return kp;
}

X25519Key x25519_public(SecretView scalar) {
  if (scalar.size() != 32) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  ScopedStage timer(HotStage::kCrypto);
  ++op_counts().x25519_ops;
  return mult_with(fixed_fraction, scalar, ByteView(kBasePoint));
}

X25519KeyPair x25519_keypair(ByteView random32) {
  if (random32.size() != 32) {
    throw std::invalid_argument("x25519_keypair: need 32 random bytes");
  }
  X25519KeyPair kp;
  kp.private_key = Secret<kX25519KeySize>(random32);
  kp.public_key = x25519_public(kp.private_key);
  return kp;
}

namespace detail {

const CombTable* x25519_fixed_table(ByteView u) { return fixed_table(u); }

X25519Key x25519_ladder(SecretView scalar, ByteView u) {
  return mult_with(dispatch_ladder_fraction, scalar, u);
}

X25519Key x25519_ladder_portable(SecretView scalar, ByteView u) {
  return mult_with(ladder_fraction, scalar, u);
}

X25519Key x25519_ladder_ifma(SecretView scalar, ByteView u) {
  return mult_with(ladder_fraction_ifma, scalar, u);
}

X25519Key x25519_comb_forced(SecretView scalar, ByteView u) {
  if (scalar.size() != 32 || u.size() != 32) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  const CombTablePtr table = comb_build(u.data());
  if (!table) {
    throw std::invalid_argument("x25519_comb_forced: point does not lift");
  }
  std::uint8_t k[32];
  clamp(k, scalar);
  X25519Key result;
  comb_eval(*table, k, result.data());
  secure_zero(k, sizeof(k));
  return result;
}

bool x25519_comb_liftable(ByteView u) {
  if (u.size() != 32) return false;
  return comb_build(u.data()) != nullptr;
}

void x25519_cache_reset() { point_cache().clear(); }

std::size_t x25519_cache_size() { return point_cache().size(); }

}  // namespace detail

}  // namespace shield5g::crypto
