// 4-wide AVX2 replication of hash::MultiHash::Slots for short fixed keys.
//
// The batched update path spends a large share of its per-packet budget in
// MultiHash::Slots — a 6-multiply scalar chain (KeyHash mix, h2 remix, then
// one salt multiply + one Lemire reduction per array). The chain is serial
// per key but independent ACROSS keys, so four keys ride the four 64-bit
// lanes of a ymm register and the multiplies overlap instead of serializing.
//
// Bit-exactness is the contract: every operation below is the same exact
// integer arithmetic as MultiHash::Slots / KeyHash / HashU64 / Fmix64 —
// 64-bit multiplies emulated from _mm256_mul_epu32 parts, the Lemire
// reduction computed from the identity (v * w) >> 64 =
// (v_hi*w + ((v_lo*w) >> 32)) >> 32 for w < 2^32. tests/simd_test.cpp
// checks lane-for-lane equality against the scalar Slots on random keys.
//
// Only keys of <= 16 bytes take the vector path (matching KeyHash's fast
// case); wider keys and the window tail fall back to the scalar Slots, so
// callers can use HashSlotsWindow unconditionally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "hash/multihash.h"
#include "simd/dispatch.h"

#if COCO_SIMD_HAVE_AVX2
#include <immintrin.h>

namespace coco::simd::avx2 {

namespace hash_detail {

// Low 64 bits of a 64x64 multiply per lane, from 32x32->64 partial products.
COCO_TARGET_AVX2 inline __m256i Mul64Lo(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
}

template <int S>
COCO_TARGET_AVX2 inline __m256i XorShr(__m256i h) {
  return _mm256_xor_si256(h, _mm256_srli_epi64(h, S));
}

// Lemire reduction (v * width) >> 64 per lane, exact for width < 2^32:
// the 96-bit product splits as v_hi*w*2^32 + v_lo*w and neither partial
// sum can overflow 64 bits.
COCO_TARGET_AVX2 inline __m256i MulHiWidth(__m256i v, __m256i w) {
  const __m256i lo = _mm256_mul_epu32(v, w);
  const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(v, 32), w);
  return _mm256_srli_epi64(_mm256_add_epi64(hi, _mm256_srli_epi64(lo, 32)),
                           32);
}

// The two overlapping 64-bit loads KeyHash uses for len <= 16.
template <size_t kLen>
inline void LoadShortKey(const uint8_t* p, uint64_t* a, uint64_t* b) {
  static_assert(kLen <= 16, "vector path covers the short-key mix only");
  if constexpr (kLen >= 8) {
    std::memcpy(a, p, 8);
    std::memcpy(b, p + kLen - 8, 8);
  } else {
    *a = hash::LoadTail(p, kLen, kLen);
    *b = 0;
  }
}

// Four 64-bit loads gathered into one ymm lane set without a stack
// round-trip (a store-to-load-forwarding stall per window otherwise —
// same hazard as the key probe, see simd/ops_scalar.h).
COCO_TARGET_AVX2 inline __m256i GatherLanes(const uint8_t* q0,
                                            const uint8_t* q1,
                                            const uint8_t* q2,
                                            const uint8_t* q3) {
  const __m128i lo = _mm_unpacklo_epi64(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q0)),
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q1)));
  const __m128i hi = _mm_unpacklo_epi64(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q2)),
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q3)));
  return _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
}

}  // namespace hash_detail

// Computes MultiHash::Slots for keys j..j+3 in one shot. `out[j][i]` gets
// array i's slot for key j, identical to the scalar Slots output.
template <size_t kLen, size_t kMaxD>
COCO_TARGET_AVX2 COCO_FORCE_INLINE void HashSlots4(const uint8_t* p0, const uint8_t* p1,
                                        const uint8_t* p2, const uint8_t* p3,
                                        uint64_t seed, const uint64_t* salts,
                                        size_t d, uint64_t width,
                                        uint32_t (*out)[kMaxD]) {
  using namespace hash_detail;
  constexpr uint64_t kLenMul = 0xc6a4a7935bd1e995ULL;
  constexpr uint64_t kMixA = 0x9ddfea08eb382d69ULL;
  constexpr uint64_t kMixB = 0xc3a5c85c97cb3127ULL;
  constexpr uint64_t kMixC = 0x9ae16a3b2f90404fULL;
  constexpr uint64_t kFmix1 = 0xff51afd7ed558ccdULL;
  constexpr uint64_t kFmix2 = 0xc4ceb9fe1a85ec53ULL;
  constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

  __m256i a, b;
  if constexpr (kLen >= 8) {
    // Register gather of KeyHash's two overlapping 8-byte loads per key.
    a = GatherLanes(p0, p1, p2, p3);
    b = GatherLanes(p0 + kLen - 8, p1 + kLen - 8, p2 + kLen - 8,
                    p3 + kLen - 8);
  } else {
    // Sub-word keys can't load 8 bytes; build the zero-padded lanes on the
    // stack (the partial-store forward is unavoidable here and these key
    // widths are rare on the hot path).
    alignas(32) uint64_t a_lanes[4];
    alignas(32) uint64_t b_lanes[4];
    LoadShortKey<kLen>(p0, &a_lanes[0], &b_lanes[0]);
    LoadShortKey<kLen>(p1, &a_lanes[1], &b_lanes[1]);
    LoadShortKey<kLen>(p2, &a_lanes[2], &b_lanes[2]);
    LoadShortKey<kLen>(p3, &a_lanes[3], &b_lanes[3]);
    a = _mm256_load_si256(reinterpret_cast<const __m256i*>(a_lanes));
    b = _mm256_load_si256(reinterpret_cast<const __m256i*>(b_lanes));
  }

  // KeyHash(data, kLen, seed), four lanes at once.
  __m256i h = _mm256_set1_epi64x(
      static_cast<long long>(seed ^ (kLen * kLenMul)));
  h = Mul64Lo(_mm256_xor_si256(h, a),
              _mm256_set1_epi64x(static_cast<long long>(kMixA)));
  h = XorShr<47>(h);
  h = Mul64Lo(_mm256_xor_si256(h, b),
              _mm256_set1_epi64x(static_cast<long long>(kMixB)));
  h = XorShr<44>(h);
  h = Mul64Lo(h, _mm256_set1_epi64x(static_cast<long long>(kMixC)));
  const __m256i h1 = XorShr<41>(h);

  // h2 = HashU64(h1, seed ^ golden) | 1  (Fmix64 of h1*kMixA + seed').
  __m256i k = _mm256_add_epi64(
      Mul64Lo(h1, _mm256_set1_epi64x(static_cast<long long>(kMixA))),
      _mm256_set1_epi64x(static_cast<long long>(seed ^ kGolden)));
  k = XorShr<33>(k);
  k = Mul64Lo(k, _mm256_set1_epi64x(static_cast<long long>(kFmix1)));
  k = XorShr<33>(k);
  k = Mul64Lo(k, _mm256_set1_epi64x(static_cast<long long>(kFmix2)));
  k = XorShr<33>(k);
  const __m256i h2 = _mm256_or_si256(k, _mm256_set1_epi64x(1));

  const __m256i w = _mm256_set1_epi64x(static_cast<long long>(width));
  // Extract slots for array pairs (i, i+1): each 64-bit lane packs the two
  // uint32 slots of one key, so out[j][i..i+1] is a single 8-byte store
  // instead of four per-lane cross-domain extracts per array.
  size_t i = 0;
  for (; i + 2 <= d; i += 2) {
    const __m256i v0 = _mm256_add_epi64(
        h1,
        Mul64Lo(_mm256_set1_epi64x(static_cast<long long>(salts[i])), h2));
    const __m256i v1 = _mm256_add_epi64(
        h1,
        Mul64Lo(_mm256_set1_epi64x(static_cast<long long>(salts[i + 1])),
                h2));
    const __m256i merged = _mm256_or_si256(
        MulHiWidth(v0, w), _mm256_slli_epi64(MulHiWidth(v1, w), 32));
    const __m128i lo = _mm256_castsi256_si128(merged);
    const __m128i hi = _mm256_extracti128_si256(merged, 1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(&out[0][i]), lo);
    _mm_storeh_pd(reinterpret_cast<double*>(&out[1][i]),
                  _mm_castsi128_pd(lo));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(&out[2][i]), hi);
    _mm_storeh_pd(reinterpret_cast<double*>(&out[3][i]),
                  _mm_castsi128_pd(hi));
  }
  if (i < d) {
    alignas(32) uint64_t slot_lanes[4];
    const __m256i v = _mm256_add_epi64(
        h1,
        Mul64Lo(_mm256_set1_epi64x(static_cast<long long>(salts[i])), h2));
    _mm256_store_si256(reinterpret_cast<__m256i*>(slot_lanes),
                       MulHiWidth(v, w));
    out[0][i] = static_cast<uint32_t>(slot_lanes[0]);
    out[1][i] = static_cast<uint32_t>(slot_lanes[1]);
    out[2][i] = static_cast<uint32_t>(slot_lanes[2]);
    out[3][i] = static_cast<uint32_t>(slot_lanes[3]);
  }
}

// Slot derivation for a whole batch window: vector groups of four, scalar
// tail. Record must expose a FixedKey-style `key` member. Wide keys
// (> 16 bytes) and widths >= 2^32 take the scalar path wholesale — the
// output is MultiHash::Slots either way.
template <typename Record, size_t kMaxD>
COCO_TARGET_AVX2 inline void HashSlotsWindow(const coco::hash::MultiHash& mh,
                                             const Record* recs, size_t n,
                                             uint32_t (*out)[kMaxD]) {
  using Key = std::remove_cv_t<std::remove_reference_t<decltype(recs[0].key)>>;
  constexpr size_t kLen = Key::kSize;
  size_t j = 0;
  if constexpr (kLen <= 16) {
    if (mh.width() <= 0xFFFFFFFFull) {
      const uint64_t seed = mh.seed();
      const uint64_t* salts = mh.salts();
      const size_t d = mh.d();
      const uint64_t width = mh.width();
      for (; j + 4 <= n; j += 4) {
        HashSlots4<kLen, kMaxD>(
            recs[j].key.data(), recs[j + 1].key.data(), recs[j + 2].key.data(),
            recs[j + 3].key.data(), seed, salts, d, width, out + j);
      }
    }
  }
  for (; j < n; ++j) {
    mh.Slots(recs[j].key.data(), kLen, out[j]);
  }
}

}  // namespace coco::simd::avx2

#endif  // COCO_SIMD_HAVE_AVX2
