// AVX2 tier of the kernel contracts in ops_scalar.h.
//
// Compiled via per-function target attributes (COCO_TARGET_AVX2) so no
// global -mavx2 / -march=native flag is needed and the binary stays portable;
// callers must only reach these after simd::DetectTier() reports kAvx2.
//
// Only the kernels that measure faster than scalar live here (the layer
// table in bench/bench_micro_update.cpp decides): the counter scans, 8
// counters per step — NonZeroOffsets, the occupied-bucket walk behind
// Decode and MergeAll, and the stats scans SumU32, CountNonZero, MaxU32 and
// MinNonZeroU32. The update rule's key compares have no vector kernel: the
// register probe (ops_scalar.h) beat every vector probe tried for keys of
// <= 16 bytes, and a 32-byte-step compare for wider keys measured within
// the run-to-run spread of scalar.
//
// Everything is exact integer arithmetic — results are bit-identical to the
// scalar tier, which tests/simd_test.cpp enforces.
#pragma once

#include "simd/dispatch.h"
#include "simd/ops_scalar.h"

#if COCO_SIMD_HAVE_AVX2
#include <immintrin.h>

namespace coco::simd::avx2 {

COCO_TARGET_AVX2 inline uint64_t SumU32(const uint32_t* v, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    acc = _mm256_add_epi64(acc, _mm256_unpacklo_epi32(x, zero));
    acc = _mm256_add_epi64(acc, _mm256_unpackhi_epi32(x, zero));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) total += v[i];
  return total;
}

COCO_TARGET_AVX2 inline size_t CountNonZero(const uint32_t* v, size_t n) {
  size_t zeros = 0;
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const int zmask =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(x, zero)));
    zeros += static_cast<size_t>(__builtin_popcount(zmask));
  }
  size_t count = i - zeros;
  for (; i < n; ++i) count += v[i] != 0;
  return count;
}

namespace internal {
// kLanePack.lanes[m] lists the set bits of the 8-bit mask m in ascending
// order (unused lanes zero): one 8-byte load turns a block's non-zero mask
// into its packed offsets.
struct LanePack {
  alignas(8) uint8_t lanes[256][8];
};
constexpr LanePack MakeLanePack() {
  LanePack p{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned k = 0;
    for (unsigned b = 0; b < 8; ++b) {
      if ((m >> b) & 1) p.lanes[m][k++] = static_cast<uint8_t>(b);
    }
  }
  return p;
}
inline constexpr LanePack kLanePack = MakeLanePack();
}  // namespace internal

// Left-packs 8 counters per step with no data-dependent branch: the block's
// non-zero mask indexes kLanePack, the 8 byte offsets widen to 32-bit
// lanes, and all 8 are stored while the cursor advances by the mask's
// popcount. The store never passes out[n - 1]: count <= i before a block.
COCO_TARGET_AVX2 inline size_t NonZeroOffsets(const uint32_t* v, size_t n,
                                              uint32_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const unsigned nz = ~static_cast<unsigned>(_mm256_movemask_ps(
                            _mm256_castsi256_ps(_mm256_cmpeq_epi32(x, zero)))) &
                        0xFF;
    const __m256i lanes = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(internal::kLanePack.lanes[nz])));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + count),
        _mm256_add_epi32(lanes, _mm256_set1_epi32(static_cast<int>(i))));
    count += static_cast<size_t>(__builtin_popcount(nz));
  }
  for (; i < n; ++i) {
    out[count] = static_cast<uint32_t>(i);
    count += v[i] != 0;
  }
  return count;
}

COCO_TARGET_AVX2 inline uint32_t MaxU32(const uint32_t* v, size_t n) {
  __m256i best = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    best = _mm256_max_epu32(
        best, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)));
  }
  alignas(32) uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
  uint32_t out = 0;
  for (uint32_t lane : lanes) out = lane > out ? lane : out;
  for (; i < n; ++i) out = v[i] > out ? v[i] : out;
  return out;
}

COCO_TARGET_AVX2 inline uint32_t MinNonZeroU32(const uint32_t* v, size_t n) {
  // Zero lanes are masked up to UINT32_MAX so they never win the min.
  const __m256i zero = _mm256_setzero_si256();
  __m256i best = _mm256_set1_epi32(-1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i masked = _mm256_or_si256(x, _mm256_cmpeq_epi32(x, zero));
    best = _mm256_min_epu32(best, masked);
  }
  alignas(32) uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
  uint32_t out = UINT32_MAX;
  bool any = false;
  for (uint32_t lane : lanes) {
    if (lane != UINT32_MAX) {
      any = true;
      if (lane < out) out = lane;
    }
  }
  for (; i < n; ++i) {
    if (v[i] != 0) {
      any = true;
      if (v[i] < out) out = v[i];
    }
  }
  // A real UINT32_MAX counter is indistinguishable from the mask in the
  // vector pass; rescan scalar in that (vanishingly rare) case.
  if (!any) {
    return scalar::MinNonZeroU32(v, n);
  }
  return out;
}

}  // namespace coco::simd::avx2

#else  // !COCO_SIMD_HAVE_AVX2

// Without the AVX2 tier every avx2:: call resolves to the scalar kernel, so
// dispatching callers need no #if guards.
namespace coco::simd::avx2 {
using namespace coco::simd::scalar;
}  // namespace coco::simd::avx2

#endif  // COCO_SIMD_HAVE_AVX2
