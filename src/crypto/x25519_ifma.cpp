// The X25519 Montgomery ladder with each step as three 4-lane AVX-512
// IFMA multiplies (internal; reached through x25519.cpp's dispatch).
//
// The ladder state [x2, z2, x3, z3] lives in the four qword lanes of
// one lane-sliced vector. The scalar step's ten field operations fold
// into three lane-wise products:
//
//   [A,  B, C,     D    ] * [A,  B,   B,     A    ] -> [AA, BB, CB, DA]
//   [AA, E, DA+CB, DA-CB] * [BB, a24, DA+CB, DA-CB]
//                                -> [x2', a24*E, x3', (DA-CB)^2]
//   [1,  E, 1,     x1   ] * [x2', AA+a24*E, x3', (DA-CB)^2]
//                                -> [x2', z2', x3', z3']
//
// with A = x2+z2, B = x2-z2, C = x3+z3, D = x3-z3, E = AA-BB and
// a24 = 121665. Lanes that multiply by 1 cost nothing extra: all four
// lanes run in the same instructions. Lane permutes, add4/sub4 and
// blends build each operand pair; the conditional swap is a masked
// [2,3,0,1] permute. The final inversion stays scalar (x25519.cpp).
//
// Field elements use six 43-bit limbs (2^258 = 152 mod p). vpmadd52
// reads only the low 52 bits of each multiplicand, so every mul4 input
// must stay below 2^52; mul4 is written for inputs below 2^46 (the
// accumulator bound below), and every operand in the step is one of:
//   * a mul4 output or a fe4_from_lanes constant: carried, <= 2^43 + 1;
//   * add4 of two carried values: < 2^44.1;
//   * sub4 of two carried values: < 2^45.6 (its 32p bias is ~2^45);
//   * the constants 1 and a24 < 2^17.
// Products of such limbs are < 2^92; each of the 12 column sums collects
// at most 6 low halves (< 2^52) plus the 9-bit-realigned high halves,
// staying under 2^54.8, and the 152x wrap fold lifts that to ~2^62.2,
// so no u64 accumulator overflows.
//
// Every function here carries the target attribute instead of the file
// being built with ISA flags: an inline fe25519.h helper compiled into
// this translation unit with -mavx512ifma could become the linker's
// chosen copy for the whole program and fault on a host without IFMA.
#include "crypto/x25519_internal.h"

#if defined(__x86_64__)

#include <immintrin.h>

#define SHIELD5G_IFMA __attribute__((target("avx512ifma,avx512vl,avx512dq")))

namespace shield5g::crypto::detail {

namespace {

using fe25519::Fe;

constexpr std::uint64_t kMask43 = (1ULL << 43) - 1;

// Four field elements, lane-sliced: element l lives in qword lane l of
// every h[i]; limb i weighs 2^43i.
struct Fe4 {
  __m256i h[6];
};

SHIELD5G_IFMA inline __m256i set1(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

// 152c = 128c + 16c + 8c (2^258 = 152 mod p); the operand never
// exceeds ~2^55, so the shifts cannot overflow.
SHIELD5G_IFMA inline __m256i times152(__m256i c) {
  return _mm256_add_epi64(
      _mm256_add_epi64(_mm256_slli_epi64(c, 7), _mm256_slli_epi64(c, 4)),
      _mm256_slli_epi64(c, 3));
}

// Full carry; accepts limbs up to ~2^62.6 and leaves them carried
// (<= 2^43 + 1). Two interleaved chains, h0->h1->h2->h3 and
// h3->h4->h5->(x152)->h0, then a trailing stage: 4 two-op stages
// instead of an 8-step sweep, since the carry follows every multiply on
// the ladder's serial critical path. Stage carries are < 2^19.7 and the
// wrap adds at most 152 * 2^19.7 < 2^27.3 to h0; the trailing stage
// re-carries h3 and h0, whose carries are then <= 1.
SHIELD5G_IFMA inline void carry6(Fe4& r) {
  const __m256i m43 = set1(kMask43);
  __m256i a, b;
  a = _mm256_srli_epi64(r.h[0], 43);
  b = _mm256_srli_epi64(r.h[3], 43);
  r.h[0] = _mm256_and_si256(r.h[0], m43);
  r.h[3] = _mm256_and_si256(r.h[3], m43);
  r.h[1] = _mm256_add_epi64(r.h[1], a);
  r.h[4] = _mm256_add_epi64(r.h[4], b);

  a = _mm256_srli_epi64(r.h[1], 43);
  b = _mm256_srli_epi64(r.h[4], 43);
  r.h[1] = _mm256_and_si256(r.h[1], m43);
  r.h[4] = _mm256_and_si256(r.h[4], m43);
  r.h[2] = _mm256_add_epi64(r.h[2], a);
  r.h[5] = _mm256_add_epi64(r.h[5], b);

  a = _mm256_srli_epi64(r.h[2], 43);
  b = _mm256_srli_epi64(r.h[5], 43);
  r.h[2] = _mm256_and_si256(r.h[2], m43);
  r.h[5] = _mm256_and_si256(r.h[5], m43);
  r.h[3] = _mm256_add_epi64(r.h[3], a);
  r.h[0] = _mm256_add_epi64(r.h[0], times152(b));

  a = _mm256_srli_epi64(r.h[3], 43);
  b = _mm256_srli_epi64(r.h[0], 43);
  r.h[3] = _mm256_and_si256(r.h[3], m43);
  r.h[0] = _mm256_and_si256(r.h[0], m43);
  r.h[4] = _mm256_add_epi64(r.h[4], a);
  r.h[1] = _mm256_add_epi64(r.h[1], b);
}

// Packs four 5x51 elements (limbs <= 2^52: carried or fe_load outputs)
// into the lane-sliced 6x43 form; outputs are carried. The slicing adds
// cross-limb pieces instead of OR-ing them, so loose 51-bit limbs
// (which overlap their neighbour's bit range) convert exactly.
SHIELD5G_IFMA Fe4 fe4_from_lanes(const Fe in[4]) {
  __m256i a[5];
  for (int i = 0; i < 5; ++i) {
    a[i] = _mm256_set_epi64x(
        static_cast<long long>(in[3][i]), static_cast<long long>(in[2][i]),
        static_cast<long long>(in[1][i]), static_cast<long long>(in[0][i]));
  }
  const __m256i m43 = set1(kMask43);
  Fe4 r;
  __m256i t, cy;
  r.h[0] = _mm256_and_si256(a[0], m43);
  cy = _mm256_srli_epi64(a[0], 43);

  t = _mm256_add_epi64(cy, _mm256_slli_epi64(a[1], 8));
  r.h[1] = _mm256_and_si256(t, m43);
  cy = _mm256_srli_epi64(t, 43);

  t = _mm256_add_epi64(
      cy, _mm256_slli_epi64(_mm256_and_si256(a[2], set1((1ULL << 27) - 1)),
                            16));
  r.h[2] = _mm256_and_si256(t, m43);
  cy = _mm256_srli_epi64(t, 43);

  t = _mm256_add_epi64(
      _mm256_add_epi64(cy, _mm256_srli_epi64(a[2], 27)),
      _mm256_slli_epi64(_mm256_and_si256(a[3], set1((1ULL << 19) - 1)), 24));
  r.h[3] = _mm256_and_si256(t, m43);
  cy = _mm256_srli_epi64(t, 43);

  t = _mm256_add_epi64(
      _mm256_add_epi64(cy, _mm256_srli_epi64(a[3], 19)),
      _mm256_slli_epi64(_mm256_and_si256(a[4], set1((1ULL << 11) - 1)), 32));
  r.h[4] = _mm256_and_si256(t, m43);
  cy = _mm256_srli_epi64(t, 43);

  r.h[5] = _mm256_add_epi64(cy, _mm256_srli_epi64(a[4], 11));
  return r;
}

// Unpacks carried lanes back to 5x51 (limbs <= 2^54, safe for fe_mul
// and fe_store). Bits of h[5] above its mask weigh 2^258 = 152 and fold
// into limb 0.
SHIELD5G_IFMA void fe4_to_lanes(const Fe4& v, Fe out[4]) {
  const __m256i m43 = set1(kMask43);
  __m256i a[5];
  a[0] = _mm256_add_epi64(
      _mm256_add_epi64(
          v.h[0], _mm256_slli_epi64(
                      _mm256_and_si256(v.h[1], set1((1ULL << 8) - 1)), 43)),
      times152(_mm256_srli_epi64(v.h[5], 43)));
  a[1] = _mm256_add_epi64(
      _mm256_srli_epi64(v.h[1], 8),
      _mm256_slli_epi64(_mm256_and_si256(v.h[2], set1((1ULL << 16) - 1)),
                        35));
  a[2] = _mm256_add_epi64(
      _mm256_srli_epi64(v.h[2], 16),
      _mm256_slli_epi64(_mm256_and_si256(v.h[3], set1((1ULL << 24) - 1)),
                        27));
  a[3] = _mm256_add_epi64(
      _mm256_srli_epi64(v.h[3], 24),
      _mm256_slli_epi64(_mm256_and_si256(v.h[4], set1((1ULL << 32) - 1)),
                        19));
  a[4] = _mm256_add_epi64(_mm256_srli_epi64(v.h[4], 32),
                          _mm256_slli_epi64(_mm256_and_si256(v.h[5], m43), 11));

  alignas(32) std::uint64_t lanes[5][4];
  for (int i = 0; i < 5; ++i) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[i]), a[i]);
  }
  for (int l = 0; l < 4; ++l) {
    for (int i = 0; i < 5; ++i) out[l][i] = lanes[i][l];
  }
}

SHIELD5G_IFMA inline Fe4 add4(const Fe4& a, const Fe4& b) {
  Fe4 r;
  for (int i = 0; i < 6; ++i) r.h[i] = _mm256_add_epi64(a.h[i], b.h[i]);
  return r;
}

// a + 32p - b with both inputs carried; limbs stay positive and below
// 2^45.6. 32p = (2^45 - 608) + (2^45 - 4) * (2^43 + 2^86 + ... + 2^215).
SHIELD5G_IFMA inline Fe4 sub4(const Fe4& a, const Fe4& b) {
  const __m256i bias0 = set1((1ULL << 45) - 608);
  const __m256i bias = set1((1ULL << 45) - 4);
  Fe4 r;
  r.h[0] = _mm256_add_epi64(a.h[0], _mm256_sub_epi64(bias0, b.h[0]));
  for (int i = 1; i < 6; ++i) {
    r.h[i] = _mm256_add_epi64(a.h[i], _mm256_sub_epi64(bias, b.h[i]));
  }
  return r;
}

// Lane-sliced schoolbook multiply. vpmadd52luq accumulates the low 52
// bits of each 104-bit partial product into its column; the high half
// lands one limb up, off the 43-bit grid by 52 - 43 = 9 bits, so high
// halves accumulate separately and shift into place once per column.
// Columns 6..11 then wrap by 152 and one carry pass finishes.
SHIELD5G_IFMA inline Fe4 mul4(const Fe4& f, const Fe4& g) {
  __m256i lo[12], hi[12];
  for (int k = 0; k < 12; ++k) lo[k] = hi[k] = _mm256_setzero_si256();
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      lo[i + j] = _mm256_madd52lo_epu64(lo[i + j], f.h[i], g.h[j]);
      hi[i + j + 1] = _mm256_madd52hi_epu64(hi[i + j + 1], f.h[i], g.h[j]);
    }
  }
  Fe4 r;
  for (int m = 0; m < 6; ++m) {
    const __m256i c = _mm256_add_epi64(lo[m], _mm256_slli_epi64(hi[m], 9));
    const __m256i w =
        _mm256_add_epi64(lo[m + 6], _mm256_slli_epi64(hi[m + 6], 9));
    r.h[m] = _mm256_add_epi64(c, times152(w));
  }
  carry6(r);
  return r;
}

// Lane l of the result is lane idx[l] of v; imm packs idx two bits per
// lane, lane 0 lowest.
template <int imm>
SHIELD5G_IFMA inline Fe4 permute4(const Fe4& v) {
  Fe4 r;
  for (int i = 0; i < 6; ++i) r.h[i] = _mm256_permutex_epi64(v.h[i], imm);
  return r;
}

// Lanes set in `mask` from b, the rest from a.
SHIELD5G_IFMA inline Fe4 blend4(__mmask8 mask, const Fe4& a, const Fe4& b) {
  Fe4 r;
  for (int i = 0; i < 6; ++i) {
    r.h[i] = _mm256_mask_blend_epi64(mask, a.h[i], b.h[i]);
  }
  return r;
}

// Lane permutes as imm8 selectors: lane l takes source lane
// (imm >> 2l) & 3.
constexpr int kSwapPairs = 0x4E;   // [2,3,0,1]: (x2,z2) <-> (x3,z3)
constexpr int kEvenLanes = 0xA0;   // [0,0,2,2]
constexpr int kOddLanes = 0xF5;    // [1,1,3,3]
constexpr int kABBA = 0x14;        // [0,1,1,0]
constexpr int kAADD = 0xF0;        // [0,0,3,3]
constexpr int kBBCC = 0xA5;        // [1,1,2,2]

constexpr __mmask8 kLane0 = 0x1, kLane1 = 0x2, kLane2 = 0x4;
constexpr __mmask8 kLanes13 = 0xA;

// Conditional swap of (x2,z2) with (x3,z3): a masked [2,3,0,1] permute
// whose mask is all four lanes or none. `swap` is the secret bit; the
// mask register is data, not a branch.
SHIELD5G_IFMA inline Fe4 cswap4(std::uint64_t swap, const Fe4& v) {
  const __mmask8 mask = static_cast<__mmask8>((0 - swap) & 0xF);
  Fe4 r;
  for (int i = 0; i < 6; ++i) {
    r.h[i] = _mm256_mask_permutex_epi64(v.h[i], mask, v.h[i], kSwapPairs);
  }
  return r;
}

}  // namespace

SHIELD5G_IFMA void ladder_fraction_ifma(const std::uint8_t k[32], ByteView u,
                                        Fe& num, Fe& den) {
  const Fe x1 = fe25519::fe_load(u.data());
  const Fe one = fe25519::fe_one(), zero = fe25519::fe_zero();
  const Fe a24 = fe25519::fe_from_u64(121665);
  const Fe init[4] = {one, zero, x1, one};    // [x2, z2, x3, z3]
  const Fe lanes3[4] = {one, zero, one, x1};  // step 3's [1, -, 1, x1]
  const Fe lanes2[4] = {zero, a24, zero, zero};
  Fe4 v = fe4_from_lanes(init);
  const Fe4 one_x1 = fe4_from_lanes(lanes3);
  const Fe4 a24_lane1 = fe4_from_lanes(lanes2);
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    const std::uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    v = cswap4(swap, v);
    swap = k_t;

    // [x2, x2, x3, x3] +/- [z2, z2, z3, z3] -> [A, B, C, D].
    const Fe4 xs = permute4<kEvenLanes>(v);
    const Fe4 zs = permute4<kOddLanes>(v);
    const Fe4 abcd = blend4(kLanes13, add4(xs, zs), sub4(xs, zs));
    const Fe4 m1 = mul4(abcd, permute4<kABBA>(abcd));  // [AA, BB, CB, DA]

    // [AA, AA, DA, DA] +/- [BB, BB, CB, CB]; lane 1 of the difference
    // is E, lanes 2/3 are DA+CB and DA-CB.
    const Fe4 aadd = permute4<kAADD>(m1);
    const Fe4 bbcc = permute4<kBBCC>(m1);
    const Fe4 mixed = blend4(kLane2, sub4(aadd, bbcc), add4(aadd, bbcc));
    const Fe4 f2 = blend4(kLane0, mixed, m1);             // [AA, E, +, -]
    const Fe4 g2 = blend4(kLane1, blend4(kLane0, mixed, bbcc), a24_lane1);
    const Fe4 m2 = mul4(f2, g2);  // [x2', a24*E, x3', (DA-CB)^2]

    // [1, E, 1, x1] * ([x2', a24*E, x3', (DA-CB)^2] + [0, AA, 0, 0]).
    Fe4 aa_lane1;
    for (int i = 0; i < 6; ++i) {
      aa_lane1.h[i] = _mm256_maskz_permutex_epi64(kLane1, m1.h[i], 0x00);
    }
    v = mul4(blend4(kLane1, one_x1, f2), add4(m2, aa_lane1));
  }
  v = cswap4(swap, v);

  Fe out[4];
  fe4_to_lanes(v, out);
  num = out[0];
  den = out[1];
}

}  // namespace shield5g::crypto::detail

#else  // !__x86_64__

#include <cstdlib>

namespace shield5g::crypto::detail {

// cpu_has_ifma() is false off x86-64, so the dispatch never gets here.
void ladder_fraction_ifma(const std::uint8_t*, ByteView, fe25519::Fe&,
                          fe25519::Fe&) {
  std::abort();
}

}  // namespace shield5g::crypto::detail

#endif
