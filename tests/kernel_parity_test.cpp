// Scalar-vs-accelerated kernel parity.
//
// The dispatch layer (crypto/cpu_dispatch.h) promises that backend
// choice is invisible: identical bytes out, identical op counts, on
// every input. These tests pin each backend in turn and diff the
// results — published vectors for anchoring, random inputs for breadth.
// On machines without AES-NI/SHA-NI the "accelerated" runs fall back to
// scalar and the comparisons degenerate to self-consistency, so the
// suite stays green in forced-fallback CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "common/stats.h"
#include "crypto/aes128.h"
#include "crypto/cpu_dispatch.h"
#include "crypto/hmac_sha256.h"
#include "crypto/op_count.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "crypto/x25519_internal.h"

namespace shield5g::crypto {
namespace {

// Pins a backend for the scope of one test body.
// Save/restore, not force/clear: with_backend() may nest inside an
// outer ForcedBackend scope, and a clearing destructor would hand
// control back to SHIELD5G_CRYPTO_BACKEND mid-test — the crypto-parity
// CI stage runs this suite with that env var pinned both ways.
class ForcedBackend {
 public:
  explicit ForcedBackend(CryptoBackend b) : prev_(current()) {
    force_backend(b);
    current() = State{true, b};
  }
  ~ForcedBackend() {
    current() = prev_;
    if (prev_.forced) {
      force_backend(prev_.backend);
    } else {
      clear_forced_backend();
    }
  }

 private:
  struct State {
    bool forced = false;
    CryptoBackend backend = CryptoBackend::kScalar;
  };
  static State& current() {
    static State s;
    return s;
  }
  State prev_;
};

template <typename Fn>
auto with_backend(CryptoBackend b, Fn&& fn) {
  ForcedBackend guard(b);
  return fn();
}

// Bumped once each time the fixed-point cache builds a comb table.
constexpr const char* kCombBuild = "x25519.comb.build";

// ---------------------------------------------------------------------
// AES-128
// ---------------------------------------------------------------------

TEST(KernelParity, Aes128Fips197BothBackends) {
  for (const auto backend :
       {CryptoBackend::kScalar, CryptoBackend::kAccelerated}) {
    ForcedBackend guard(backend);
    const Aes128Ctx aes(h2b("000102030405060708090a0b0c0d0e0f"));
    EXPECT_EQ(hex_encode(aes.encrypt_block(
                  h2b("00112233445566778899aabbccddeeff"))),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
    EXPECT_EQ(hex_encode(aes.decrypt_block(
                  h2b("69c4e0d86a7b0430d8cdb78070b4c55a"))),
              "00112233445566778899aabbccddeeff");
  }
}

TEST(KernelParity, Aes128BlockRandomInputs) {
  Rng rng(0xae5'0001);
  for (int i = 0; i < 64; ++i) {
    const Bytes key = rng.bytes(16);
    const Bytes pt = rng.bytes(16);
    const auto scalar_ct = with_backend(CryptoBackend::kScalar, [&] {
      return Aes128Ctx(key).encrypt_block(pt);
    });
    const auto accel_ct = with_backend(CryptoBackend::kAccelerated, [&] {
      return Aes128Ctx(key).encrypt_block(pt);
    });
    ASSERT_EQ(hex_encode(scalar_ct), hex_encode(accel_ct)) << "block " << i;
    const auto accel_pt = with_backend(CryptoBackend::kAccelerated, [&] {
      return Aes128Ctx(key).decrypt_block(scalar_ct);
    });
    ASSERT_EQ(Bytes(accel_pt.begin(), accel_pt.end()), pt);
  }
}

TEST(KernelParity, Aes128CtrRandomLengths) {
  Rng rng(0xae5'0002);
  // Lengths straddle the 4-block fast path, the single-block loop, and
  // partial final blocks.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{257}, std::size_t{1024}, std::size_t{1500}}) {
    const Bytes key = rng.bytes(16);
    const Bytes icb = rng.bytes(16);
    const Bytes data = rng.bytes(len);
    const auto scalar_out = with_backend(CryptoBackend::kScalar, [&] {
      return aes128_ctr(key, icb, data);
    });
    const auto accel_out = with_backend(CryptoBackend::kAccelerated, [&] {
      return aes128_ctr(key, icb, data);
    });
    ASSERT_EQ(hex_encode(scalar_out), hex_encode(accel_out)) << "len " << len;
  }
}

TEST(KernelParity, Aes128CtrCounterWraparound) {
  // Counter blocks near 2^64 and 2^128 exercise the carry into the high
  // qword — the exact spot a lane-swapped counter would corrupt.
  const Bytes key = h2b("2b7e151628aed2a6abf7158809cf4f3c");
  for (const std::string icb_hex :
       {"00000000000000000000000000000000", "0000000000000000fffffffffffffffe",
        "0000000000000000ffffffffffffffff", "fffffffffffffffffffffffffffffffe",
        "ffffffffffffffffffffffffffffffff"}) {
    const Bytes icb = h2b(icb_hex);
    const Bytes data(96, 0);  // six blocks of zeros: output = keystream
    const auto scalar_out = with_backend(CryptoBackend::kScalar, [&] {
      return aes128_ctr(key, icb, data);
    });
    const auto accel_out = with_backend(CryptoBackend::kAccelerated, [&] {
      return aes128_ctr(key, icb, data);
    });
    ASSERT_EQ(hex_encode(scalar_out), hex_encode(accel_out)) << icb_hex;
  }
}

TEST(KernelParity, Aes128OpCountsMatchAcrossBackends) {
  Rng rng(0xae5'0003);
  const Bytes key = rng.bytes(16);
  const Bytes icb = rng.bytes(16);
  const Bytes data = rng.bytes(100);  // 7 blocks incl. partial
  auto count = [&](CryptoBackend b) {
    ForcedBackend guard(b);
    const auto before = op_counts().aes_blocks;
    const Aes128Ctx aes(key);
    (void)aes.encrypt_block(ByteView(data.data(), 16));
    (void)aes128_ctr(aes, icb, data);
    return op_counts().aes_blocks - before;
  };
  EXPECT_EQ(count(CryptoBackend::kScalar), count(CryptoBackend::kAccelerated));
}

// ---------------------------------------------------------------------
// SHA-256 / HMAC
// ---------------------------------------------------------------------

TEST(KernelParity, Sha256Fips180BothBackends) {
  const struct {
    const char* msg;
    const char* digest;
  } kVectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (const auto backend :
       {CryptoBackend::kScalar, CryptoBackend::kAccelerated}) {
    ForcedBackend guard(backend);
    for (const auto& v : kVectors) {
      const std::string msg = v.msg;
      const auto digest =
          Sha256::digest(ByteView(reinterpret_cast<const std::uint8_t*>(
                                      msg.data()),
                                  msg.size()));
      EXPECT_EQ(hex_encode(digest), v.digest);
    }
  }
}

TEST(KernelParity, Sha256RandomLengths) {
  Rng rng(0x50a0001);
  for (std::size_t len = 0; len <= 300; len += 7) {
    const Bytes data = rng.bytes(len);
    const auto scalar_digest = with_backend(CryptoBackend::kScalar, [&] {
      return Sha256::digest(data);
    });
    const auto accel_digest = with_backend(CryptoBackend::kAccelerated, [&] {
      return Sha256::digest(data);
    });
    ASSERT_EQ(hex_encode(scalar_digest), hex_encode(accel_digest))
        << "len " << len;
  }
}

TEST(KernelParity, Sha256IncrementalUpdateSplits) {
  // The streaming path (partial buffer top-up + bulk blocks + tail)
  // must agree with one-shot hashing on both backends.
  Rng rng(0x50a0002);
  const Bytes data = rng.bytes(500);
  for (const auto backend :
       {CryptoBackend::kScalar, CryptoBackend::kAccelerated}) {
    ForcedBackend guard(backend);
    const auto oneshot = Sha256::digest(data);
    for (const std::size_t split : {std::size_t{1}, std::size_t{63},
                                    std::size_t{64}, std::size_t{65},
                                    std::size_t{129}, std::size_t{499}}) {
      Sha256 h;
      h.update(ByteView(data.data(), split));
      h.update(ByteView(data.data() + split, data.size() - split));
      ASSERT_EQ(hex_encode(h.finalize()), hex_encode(oneshot))
          << "split " << split;
    }
  }
}

TEST(KernelParity, HmacSha256TwoPartMatchesConcat) {
  Rng rng(0x4a'c0de);
  for (int i = 0; i < 16; ++i) {
    const Bytes key = rng.bytes(i * 5);  // includes >64-byte keys
    const Bytes p1 = rng.bytes(13);
    const Bytes p2 = rng.bytes(200);
    Bytes joined = p1;
    joined.insert(joined.end(), p2.begin(), p2.end());
    for (const auto backend :
         {CryptoBackend::kScalar, CryptoBackend::kAccelerated}) {
      ForcedBackend guard(backend);
      ASSERT_EQ(hex_encode(hmac_sha256(key, p1, p2)),
                hex_encode(hmac_sha256(key, joined)));
      ASSERT_EQ(hex_encode(hmac_sha256_trunc(key, p1, p2, 16)),
                hex_encode(hmac_sha256_trunc(key, joined, 16)));
    }
  }
}

TEST(KernelParity, Sha256OpCountsMatchAcrossBackends) {
  Rng rng(0x50a0003);
  const Bytes data = rng.bytes(333);
  auto count = [&](CryptoBackend b) {
    ForcedBackend guard(b);
    const auto before = op_counts().sha256_blocks;
    (void)Sha256::digest(data);
    return op_counts().sha256_blocks - before;
  };
  EXPECT_EQ(count(CryptoBackend::kScalar), count(CryptoBackend::kAccelerated));
}

// ---------------------------------------------------------------------
// X25519: Montgomery ladder vs Edwards comb
// ---------------------------------------------------------------------

TEST(KernelParity, X25519CombMatchesLadderRfc7748Vectors) {
  const Bytes scalar1 =
      h2b("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const Bytes u1 =
      h2b("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  ASSERT_TRUE(detail::x25519_comb_liftable(u1));
  EXPECT_EQ(hex_encode(detail::x25519_ladder(scalar1, u1)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
  EXPECT_EQ(hex_encode(detail::x25519_comb_forced(scalar1, u1)),
            hex_encode(detail::x25519_ladder(scalar1, u1)));

  // The Diffie-Hellman vector's public keys are genuine curve points
  // (they come from the base point), so the comb serves them and must
  // reproduce the published shared secret.
  const Bytes a =
      h2b("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const Bytes b_pub =
      h2b("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  ASSERT_TRUE(detail::x25519_comb_liftable(b_pub));
  const auto comb = detail::x25519_comb_forced(a, b_pub);
  EXPECT_EQ(hex_encode(comb),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
  EXPECT_EQ(hex_encode(comb), hex_encode(detail::x25519_ladder(a, b_pub)));
}

TEST(KernelParity, X25519CombMatchesLadderBasePoint) {
  Bytes base(32, 0);
  base[0] = 9;
  ASSERT_TRUE(detail::x25519_comb_liftable(base));
  Rng rng(0x25519'01);
  for (int i = 0; i < 8; ++i) {
    const Bytes scalar = rng.bytes(32);
    const auto ladder = detail::x25519_ladder(scalar, base);
    const auto comb = detail::x25519_comb_forced(scalar, base);
    ASSERT_EQ(hex_encode(comb), hex_encode(ladder)) << "scalar " << i;
  }
}

TEST(KernelParity, X25519CombMatchesLadderRandomPoints) {
  // Random u-coordinates land on the curve or its twist roughly evenly;
  // liftable ones must agree with the ladder, twist ones must be
  // refused (the dispatcher then keeps the ladder).
  Rng rng(0x25519'02);
  int liftable = 0, twist = 0;
  for (int i = 0; i < 24; ++i) {
    const Bytes u = rng.bytes(32);
    const Bytes scalar = rng.bytes(32);
    if (detail::x25519_comb_liftable(u)) {
      ++liftable;
      const auto ladder = detail::x25519_ladder(scalar, u);
      const auto comb = detail::x25519_comb_forced(scalar, u);
      ASSERT_EQ(hex_encode(comb), hex_encode(ladder)) << "point " << i;
    } else {
      ++twist;
      EXPECT_THROW(detail::x25519_comb_forced(scalar, u),
                   std::invalid_argument);
    }
  }
  EXPECT_GT(liftable, 0);
  EXPECT_GT(twist, 0);
}

TEST(KernelParity, X25519SmallOrderInputsAgree) {
  // u = 0 and u = 1 generate low-order subgroups; both paths must map
  // them to the same (all-zero or otherwise) outputs.
  Rng rng(0x25519'03);
  for (const std::uint8_t first : {0, 1}) {
    Bytes u(32, 0);
    u[0] = first;
    const Bytes scalar = rng.bytes(32);
    const auto ladder = detail::x25519_ladder(scalar, u);
    if (detail::x25519_comb_liftable(u)) {
      const auto comb = detail::x25519_comb_forced(scalar, u);
      EXPECT_EQ(hex_encode(comb), hex_encode(ladder))
          << "u[0]=" << int(first);
    }
  }
}

TEST(KernelParity, X25519PublicPathCachesAndStaysBitIdentical) {
  detail::x25519_cache_reset();
  Rng rng(0x25519'04);
  const Bytes scalar = rng.bytes(32);
  // Scalar backend: pure ladder, never touches a comb table.
  const auto reference = with_backend(CryptoBackend::kScalar, [&] {
    return x25519_public(scalar);
  });
  // Accelerated backend: the base point takes its static comb table
  // from the first call, so it never enters the per-thread cache.
  ForcedBackend guard(CryptoBackend::kAccelerated);
  const std::uint64_t builds = counter_value(kCombBuild);
  for (int i = 0; i < 10; ++i) {
    const auto out = x25519_public(scalar);
    ASSERT_EQ(hex_encode(out), hex_encode(reference)) << "call " << i;
  }
  EXPECT_EQ(detail::x25519_cache_size(), 0u);
  EXPECT_EQ(counter_value(kCombBuild), builds);
  detail::x25519_cache_reset();
}

TEST(KernelParity, X25519OpCountsMatchAcrossBackends) {
  detail::x25519_cache_reset();
  Rng rng(0x25519'05);
  const Bytes scalar = rng.bytes(32);
  auto count = [&](CryptoBackend b) {
    ForcedBackend guard(b);
    const auto before = op_counts().x25519_ops;
    for (int i = 0; i < 6; ++i) (void)x25519_public(scalar);
    return op_counts().x25519_ops - before;
  };
  EXPECT_EQ(count(CryptoBackend::kScalar), count(CryptoBackend::kAccelerated));
  detail::x25519_cache_reset();
}

// ---------------------------------------------------------------------
// X25519: the 4-lane IFMA ladder vs the portable 5x51 ladder
// ---------------------------------------------------------------------

#define SKIP_WITHOUT_IFMA()                                            \
  if (!cpu_has_ifma())                                                 \
  GTEST_SKIP() << "host lacks AVX-512 IFMA (or the OS does not save "  \
                  "its state): only the portable ladder can run"

TEST(KernelParity, X25519IfmaLadderRfc7748Vectors) {
  SKIP_WITHOUT_IFMA();
  // RFC 7748 section 5.2: two single scalar mults, then the iterated
  // test k, u <- X25519(k, u), k from k = u = 9, after 1 and 1000 steps.
  const struct {
    const char* scalar;
    const char* u;
    const char* out;
  } kVectors[] = {
      {"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
       "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
       "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"},
      {"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
       "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
       "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"},
  };
  for (const auto& v : kVectors) {
    EXPECT_EQ(hex_encode(detail::x25519_ladder_ifma(h2b(v.scalar), h2b(v.u))),
              v.out);
    EXPECT_EQ(
        hex_encode(detail::x25519_ladder_portable(h2b(v.scalar), h2b(v.u))),
        v.out);
  }
  // The iterated test's (scalar, point) pair is public here.
  Bytes scalar(32, 0), point(32, 0);
  scalar[0] = point[0] = 9;
  for (int i = 1; i <= 1000; ++i) {
    const X25519Key next = detail::x25519_ladder_ifma(scalar, point);
    ASSERT_EQ(hex_encode(next),
              hex_encode(detail::x25519_ladder_portable(scalar, point)))
        << "iteration " << i;
    point = scalar;
    scalar.assign(next.begin(), next.end());
    if (i == 1) {
      EXPECT_EQ(hex_encode(scalar),
                "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
    }
  }
  EXPECT_EQ(hex_encode(scalar),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(KernelParity, X25519IfmaLadderMatchesPortableRandom10k) {
  SKIP_WITHOUT_IFMA();
  // 10 000 random scalar/point pairs (about half the points on the
  // twist), with every 16th item replaced by a special point: the
  // low-order points (u = 0, 1, p - 1 and the two order-8 points),
  // non-canonical encodings (p, p + 1, bit 255 set on the others) and
  // u = 2^255 - 1.
  const char* kSpecial[] = {
      "0000000000000000000000000000000000000000000000000000000000000000",
      "0100000000000000000000000000000000000000000000000000000000000000",
      "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
      "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
  };
  std::vector<Bytes> special;
  for (const char* hex : kSpecial) {
    special.push_back(h2b(hex));
    Bytes high = special.back();
    high[31] |= 0x80;
    special.push_back(std::move(high));
  }
  Rng rng(0x25519'20);
  int zero_outputs = 0, twist = 0, liftable = 0;
  for (int i = 0; i < 10000; ++i) {
    const Bytes scalar = rng.bytes(32);
    Bytes u = rng.bytes(32);
    if (i % 16 == 0) u = special[(i / 16) % special.size()];
    const X25519Key ifma = detail::x25519_ladder_ifma(scalar, u);
    ASSERT_EQ(hex_encode(ifma),
              hex_encode(detail::x25519_ladder_portable(scalar, u)))
        << "item " << i << " u " << hex_encode(u);
    if (ifma == X25519Key{}) ++zero_outputs;
    // Liftability builds a throwaway table; sample the first items.
    if (i < 64 && i % 16 != 0) {
      ++(detail::x25519_comb_liftable(u) ? liftable : twist);
    }
  }
  EXPECT_GT(zero_outputs, 0);  // the low-order points collapse to zero
  EXPECT_GT(twist, 0);
  EXPECT_GT(liftable, 0);
}

TEST(KernelParity, X25519LadderEngineFollowsBackend) {
  const char* accel = cpu_has_ifma() ? "ifma4" : "portable";
  with_backend(CryptoBackend::kScalar,
               [] { EXPECT_STREQ(x25519_ladder_name(), "portable"); });
  with_backend(CryptoBackend::kAccelerated,
               [&] { EXPECT_STREQ(x25519_ladder_name(), accel); });
  // The engine this process runs under SHIELD5G_CRYPTO_BACKEND, for
  // the crypto-parity CI stage to check.
  std::printf("kernel_parity: x25519_ladder=%s cpu_ifma=%d\n",
              x25519_ladder_name(), cpu_has_ifma() ? 1 : 0);
}

// ---------------------------------------------------------------------
// X25519: x25519_keypair_shared vs the serial entry points
// ---------------------------------------------------------------------

// Runs of x25519_keypair_shared calls, the fixed-point work every
// ephemeral-pool draw does. Tests edit `randoms` and `peers` first, then
// run() makes one fused call per item.
struct SharedRun {
  std::vector<Bytes> randoms, peers;
  std::vector<X25519Key> publics, shareds;

  SharedRun(std::size_t n, Rng& rng)
      : randoms(n), peers(n), publics(n), shareds(n) {
    for (std::size_t i = 0; i < n; ++i) {
      randoms[i] = rng.bytes(32);
      peers[i] = rng.bytes(32);
    }
  }

  void run() {
    for (std::size_t i = 0; i < randoms.size(); ++i) {
      publics[i] =
          x25519_keypair_shared(randoms[i], peers[i], shareds[i]).public_key;
    }
  }

  // Both halves of item i against the serial path: the variable-base
  // x25519() ladder for the shared secret, x25519_public for the key.
  void expect_serial(std::size_t i, const std::string& where) const {
    ASSERT_EQ(hex_encode(shareds[i]), hex_encode(x25519(randoms[i], peers[i])))
        << where << " shared, item " << i;
    ASSERT_EQ(hex_encode(publics[i]), hex_encode(x25519_public(randoms[i])))
        << where << " public, item " << i;
  }
};

TEST(KernelParity, X25519BatchMatchesLadderRandom1k) {
  // 1024 fused calls under each backend, each checked against the
  // serial path: random peers (about half on the twist), the low-order
  // points u = 0 and u = 1, non-canonical u (the top bit set, and
  // p + 1), and the RFC 7748 section 5.2 vector as item 0.
  Bytes p_plus_1(32, 0xff);
  p_plus_1[0] = 0xee;
  p_plus_1[31] = 0x7f;
  for (const auto b : {CryptoBackend::kScalar, CryptoBackend::kAccelerated}) {
    detail::x25519_cache_reset();
    ForcedBackend backend(b);
    Rng rng(0x25519'10);
    SharedRun batch(1024, rng);
    batch.randoms[0] = h2b(
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
    batch.peers[0] = h2b(
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
    for (std::size_t i = 16; i + 3 < batch.peers.size(); i += 16) {
      batch.peers[i] = Bytes(32, 0);
      batch.peers[i + 1] = Bytes(32, 0);
      batch.peers[i + 1][0] = 1;
      batch.peers[i + 2][31] |= 0x80;
      batch.peers[i + 3] = p_plus_1;
    }
    batch.run();
    EXPECT_EQ(hex_encode(batch.shareds[0]),
              "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
    int zero_outputs = 0, twist = 0;
    for (std::size_t i = 0; i < batch.shareds.size(); ++i) {
      ASSERT_NO_FATAL_FAILURE(batch.expect_serial(i, backend_name(b)));
      if (batch.shareds[i] == X25519Key{}) ++zero_outputs;
      // Liftability builds a throwaway table; sample the first items.
      if (i < 32 && !detail::x25519_comb_liftable(batch.peers[i])) ++twist;
    }
    // The low-order items collapse to zero, as the serial ladder's do.
    EXPECT_GT(zero_outputs, 0);
    EXPECT_GT(twist, 0);
  }
  detail::x25519_cache_reset();
}

TEST(KernelParity, X25519BatchPartialSizesMatchSerial) {
  // A static peer used n times, for every n up to 9: runs that stop
  // before the peer's 6th use stay on the ladder, longer ones switch to
  // its comb table mid-run, and every call matches the serial path.
  ForcedBackend backend(CryptoBackend::kAccelerated);
  Rng rng(0x25519'11);
  for (std::size_t n = 0; n <= 9; ++n) {
    detail::x25519_cache_reset();
    const X25519Key peer_key = x25519_public(rng.bytes(32));
    const std::uint64_t builds = counter_value(kCombBuild);
    SharedRun batch(n, rng);
    for (Bytes& peer : batch.peers) peer.assign(peer_key.begin(), peer_key.end());
    batch.run();
    for (std::size_t i = 0; i < n; ++i) {
      batch.expect_serial(i, "n " + std::to_string(n));
    }
    EXPECT_EQ(counter_value(kCombBuild) - builds, n >= 6 ? 1u : 0u)
        << "n " << n;
  }
  detail::x25519_cache_reset();
}

TEST(KernelParity, X25519BatchOpCountNeutral) {
  // A fused call charges exactly the 2 ops of its serial pair
  // (x25519_public, then x25519), under each backend; a rejected call
  // charges nothing.
  Rng rng(0x25519'13);
  for (const auto b : {CryptoBackend::kScalar, CryptoBackend::kAccelerated}) {
    detail::x25519_cache_reset();
    ForcedBackend backend(b);
    SharedRun batch(7, rng);
    auto before = op_counts().x25519_ops;
    batch.run();
    const auto fused = op_counts().x25519_ops - before;
    before = op_counts().x25519_ops;
    for (std::size_t i = 0; i < 7; ++i) {
      (void)x25519_public(batch.randoms[i]);
      (void)x25519(batch.randoms[i], batch.peers[i]);
    }
    EXPECT_EQ(fused, op_counts().x25519_ops - before) << backend_name(b);
    EXPECT_EQ(fused, 2u * 7u) << backend_name(b);

    before = op_counts().x25519_ops;
    const Bytes short_point(31, 9);
    X25519Key out{};
    EXPECT_THROW((void)x25519_keypair_shared(batch.randoms[0], short_point, out),
                 std::invalid_argument);
    EXPECT_THROW((void)x25519_keypair_shared(short_point, batch.peers[0], out),
                 std::invalid_argument);
    EXPECT_EQ(op_counts().x25519_ops, before) << backend_name(b);
  }
  detail::x25519_cache_reset();
}

TEST(KernelParity, X25519BatchCombInterplayStaysBitIdentical) {
  // Fused calls against the base point (comb-served from the first
  // round) and a static peer (comb-served from its 6th use),
  // interleaved with calls against fresh points (ladder-bound): every
  // call must stay
  // bit-identical to the serial path, and every call counts as one use
  // of its peer, as a serial fixed-point call would.
  detail::x25519_cache_reset();
  ForcedBackend backend(CryptoBackend::kAccelerated);
  Bytes base(32, 0);
  base[0] = 9;
  Rng rng(0x25519'14);
  const X25519Key peer_key = x25519_public(rng.bytes(32));
  const Bytes peer(peer_key.begin(), peer_key.end());
  const std::uint64_t builds = counter_value(kCombBuild);
  for (int round = 0; round < 8; ++round) {
    SharedRun batch(4, rng);
    batch.peers[0] = base;
    batch.peers[1] = peer;
    batch.run();
    for (std::size_t i = 0; i < 4; ++i) {
      batch.expect_serial(i, "round " + std::to_string(round));
    }
    // The peer's table is built on its 6th use, in round 5.
    EXPECT_EQ(counter_value(kCombBuild) - builds, round >= 5 ? 1u : 0u)
        << "round " << round;
  }
  detail::x25519_cache_reset();
}

// ---------------------------------------------------------------------
// X25519: the per-thread fixed-point comb cache
// ---------------------------------------------------------------------

// Distinct points that lift to edwards25519: public keys of random
// scalars are multiples of the base point.
std::vector<Bytes> curve_points(std::size_t n, std::uint64_t seed) {
  Bytes base(32, 0);
  base[0] = 9;
  Rng rng(seed);
  std::vector<Bytes> points;
  for (std::size_t i = 0; i < n; ++i) {
    const X25519Key pub = detail::x25519_ladder(rng.bytes(32), base);
    points.emplace_back(pub.begin(), pub.end());
  }
  return points;
}

TEST(X25519CombCache, ManyStaticPeersEachGetATable) {
  // A redeploying core meets fresh server and home-network keys on
  // every deployment. Each of 100 distinct peers, used 6 times, must
  // get its own table, with no process-wide cap on how many points
  // ever do.
  detail::x25519_cache_reset();
  ForcedBackend backend(CryptoBackend::kAccelerated);
  const std::vector<Bytes> peers = curve_points(100, 0x25519'20);
  Bytes base(32, 0);
  base[0] = 9;
  Rng rng(0x25519'21);
  for (std::size_t p = 0; p < peers.size(); ++p) {
    const std::uint64_t builds = counter_value(kCombBuild);
    for (int use = 0; use < 6; ++use) {
      const Bytes random = rng.bytes(32);
      X25519Key shared{};
      const X25519KeyPair kp = x25519_keypair_shared(random, peers[p], shared);
      ASSERT_EQ(hex_encode(kp.public_key),
                hex_encode(detail::x25519_ladder(random, base)))
          << "peer " << p << " use " << use;
      ASSERT_EQ(hex_encode(shared),
                hex_encode(detail::x25519_ladder(random, peers[p])))
          << "peer " << p << " use " << use;
    }
    ASSERT_EQ(counter_value(kCombBuild) - builds, 1u) << "peer " << p;
  }
  detail::x25519_cache_reset();
}

TEST(X25519CombCache, VariableBasePathNeverBuilds) {
  // x25519() serves one-shot points (client ephemerals, SUCI ephemeral
  // keys): however often a point repeats there, no table is built and
  // the cache is not touched.
  detail::x25519_cache_reset();
  ForcedBackend backend(CryptoBackend::kAccelerated);
  const Bytes point = curve_points(1, 0x25519'22)[0];
  Rng rng(0x25519'23);
  const std::uint64_t builds = counter_value(kCombBuild);
  for (int i = 0; i < 20; ++i) {
    const Bytes scalar = rng.bytes(32);
    ASSERT_EQ(hex_encode(x25519(scalar, point)),
              hex_encode(detail::x25519_ladder(scalar, point)));
  }
  EXPECT_EQ(counter_value(kCombBuild), builds);
  EXPECT_EQ(detail::x25519_cache_size(), 0u);
}

TEST(X25519CombCache, SeventeenthPointEvictsLeastRecentlyUsed) {
  detail::x25519_cache_reset();
  ForcedBackend backend(CryptoBackend::kAccelerated);
  const std::vector<Bytes> points = curve_points(17, 0x25519'24);
  const auto six_uses = [](const Bytes& u) {
    for (int use = 0; use < 5; ++use) {
      EXPECT_EQ(detail::x25519_fixed_table(u), nullptr) << "use " << use;
    }
    return detail::x25519_fixed_table(u) != nullptr;
  };
  for (std::size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(six_uses(points[i])) << "point " << i;
  }
  EXPECT_EQ(detail::x25519_cache_size(), 16u);
  // Touch point 0, so point 1 is now the least recently used.
  ASSERT_NE(detail::x25519_fixed_table(points[0]), nullptr);
  ASSERT_TRUE(six_uses(points[16]));
  EXPECT_EQ(detail::x25519_cache_size(), 16u);
  EXPECT_NE(detail::x25519_fixed_table(points[0]), nullptr);
  // Point 1 was evicted: it starts again from its first use.
  EXPECT_EQ(detail::x25519_fixed_table(points[1]), nullptr);
  EXPECT_EQ(detail::x25519_cache_size(), 16u);
  detail::x25519_cache_reset();
}

TEST(X25519CombCache, UnliftablePointIsRememberedAndKeepsLadder) {
  detail::x25519_cache_reset();
  ForcedBackend backend(CryptoBackend::kAccelerated);
  Rng rng(0x25519'25);
  Bytes twist = rng.bytes(32);
  while (detail::x25519_comb_liftable(twist)) twist = rng.bytes(32);
  const std::uint64_t builds = counter_value(kCombBuild);
  for (int use = 0; use < 12; ++use) {
    const Bytes random = rng.bytes(32);
    X25519Key shared{};
    (void)x25519_keypair_shared(random, twist, shared);
    ASSERT_EQ(hex_encode(shared),
              hex_encode(detail::x25519_ladder(random, twist)))
        << "use " << use;
  }
  // One build attempt on the 6th use; its verdict is kept, so later
  // uses neither retry nor take a table.
  EXPECT_EQ(counter_value(kCombBuild) - builds, 1u);
  EXPECT_EQ(detail::x25519_cache_size(), 1u);
  EXPECT_EQ(detail::x25519_fixed_table(twist), nullptr);
  detail::x25519_cache_reset();
}

// ---------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------

TEST(KernelParity, ForcedBackendRoundTrip) {
  force_backend(CryptoBackend::kScalar);
  EXPECT_EQ(active_backend(), CryptoBackend::kScalar);
  EXPECT_STREQ(backend_name(CryptoBackend::kScalar), "scalar");
  force_backend(CryptoBackend::kAccelerated);
  EXPECT_EQ(active_backend(), CryptoBackend::kAccelerated);
  EXPECT_STREQ(backend_name(CryptoBackend::kAccelerated), "accel");
  clear_forced_backend();
}

}  // namespace
}  // namespace shield5g::crypto
