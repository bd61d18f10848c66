// Tier-dispatched entry points for the control-plane scans (stats, decode,
// merge): the scan runs over thousands of buckets, so one predicted branch
// up front is free and callers stay tier-agnostic.
//
// The per-packet update rules do not come through here: their key compares
// are ops_scalar.h's kernels on every host. Without the AVX2 tier, avx2::
// names the scalar kernels (ops_avx2.h), so every branch below is
// well-formed on any build.
#pragma once

#include "simd/dispatch.h"
#include "simd/ops_avx2.h"
#include "simd/ops_scalar.h"

namespace coco::simd {

inline uint64_t SumU32(Tier tier, const uint32_t* v, size_t n) {
  return tier == Tier::kAvx2 ? avx2::SumU32(v, n) : scalar::SumU32(v, n);
}

inline size_t CountNonZero(Tier tier, const uint32_t* v, size_t n) {
  return tier == Tier::kAvx2 ? avx2::CountNonZero(v, n)
                             : scalar::CountNonZero(v, n);
}

// Calls fn(i) for every i in [0, n) with v[i] != 0, in ascending order: the
// occupied-bucket walk behind Decode and MergeAll. The kernel packs one
// chunk's occupied offsets into a stack buffer per call, so a full array
// costs one kernel call per chunk, not one per occupied bucket, and empty
// runs are skipped without a branch per counter.
template <typename Fn>
inline void ForEachNonZero(Tier tier, const uint32_t* v, size_t n, Fn&& fn) {
  constexpr size_t kChunk = 256;
  uint32_t offsets[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = n - base < kChunk ? n - base : kChunk;
    const size_t count = tier == Tier::kAvx2
                             ? avx2::NonZeroOffsets(v + base, m, offsets)
                             : scalar::NonZeroOffsets(v + base, m, offsets);
    for (size_t j = 0; j < count; ++j) fn(base + offsets[j]);
  }
}

inline uint32_t MaxU32(Tier tier, const uint32_t* v, size_t n) {
  return tier == Tier::kAvx2 ? avx2::MaxU32(v, n) : scalar::MaxU32(v, n);
}

inline uint32_t MinNonZeroU32(Tier tier, const uint32_t* v, size_t n) {
  return tier == Tier::kAvx2 ? avx2::MinNonZeroU32(v, n)
                             : scalar::MinNonZeroU32(v, n);
}

}  // namespace coco::simd
