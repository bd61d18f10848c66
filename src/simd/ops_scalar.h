// Scalar reference implementations of the SIMD kernel contracts.
//
// Every kernel is a pure function over words/counters. The key compares
// (FindMatch, KeyEqMask and the *Short kernels) exist only here: the update
// rules run them on every host. The counter scans have AVX2 counterparts
// (ops_avx2.h) that must return bit-identical results — the contracts are
// defined HERE and the AVX2 kernels are checked against these by
// tests/simd_test.cpp, both directly and through the byte-identical
// sketch-state matrix.
//
// Kernel vocabulary (all operating on the word-addressable bucket layout of
// core/bucket_array.h — keys stored as W zero-padded 64-bit words per slot,
// counters as a parallel uint32 array):
//
//   FindMatch    — first array i whose mapped bucket is occupied AND holds
//                  the probe key (CocoSketch pass 1: "already tracked?").
//   KeyEqMask    — per-array key-equality bitmask, no occupancy condition
//                  (HwCocoSketch's per-array replacement decision).
//   SumU32       — 64-bit sum of counters (TotalValue / stats mass).
//   CountNonZero — occupied-bucket count (stats / delta sizing).
//   NonZeroOffsets — the occupied offsets of a counter run, packed in
//                  ascending order (the decode / merge walk, see
//                  simd::ForEachNonZero).
//   MaxU32 / MinNonZeroU32 — occupancy extremes for sketch stats.
//
// The *Short kernels are the register-probe variants for keys up to 16
// bytes, the update rule's only pass-1 path at those widths: the padded key
// words are assembled straight from the key bytes into registers instead of
// bouncing through a stack-resident PaddedKey, whose 8-byte stores reloaded
// as one wider vector cost a store-to-load-forwarding stall per packet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace coco::simd::scalar {

// The zero-padded key words of a <=16-byte key, in registers. Identical
// bytes to BucketArray's stored key words (pads are zero), so word equality
// is byte equality.
template <size_t kSize>
struct ShortProbe {
  uint64_t w0;
  uint64_t w1;
};

template <size_t kSize>
inline ShortProbe<kSize> MakeShortProbe(const uint8_t* key) {
  static_assert(kSize >= 1 && kSize <= 16,
                "register probes cover the short-key layouts only");
  ShortProbe<kSize> p{0, 0};
  if constexpr (kSize >= 8) {
    std::memcpy(&p.w0, key, 8);
    if constexpr (kSize > 8) {
      // Overlapping tail load, shifted down so the pad bytes become zero —
      // exactly the bytes SetKeyBytes stores for word 1.
      uint64_t tail;
      std::memcpy(&tail, key + kSize - 8, 8);
      p.w1 = tail >> ((16 - kSize) * 8);
    }
  } else {
    std::memcpy(&p.w0, key, kSize);
  }
  return p;
}

template <size_t kSize>
inline bool KeyEqShort(const uint64_t* slot, const ShortProbe<kSize>& p) {
  if constexpr (kSize <= 8) {
    return slot[0] == p.w0;
  } else {
    // Branchless combine: one test instead of two data-dependent branches.
    return ((slot[0] ^ p.w0) | (slot[1] ^ p.w1)) == 0;
  }
}

template <size_t kSize>
inline int FindMatchShort(const uint64_t* keys, const uint32_t* values,
                          const size_t* idx, size_t d,
                          const ShortProbe<kSize>& p) {
  // Branchless accumulation instead of an early exit: WHICH array holds a
  // tracked flow is data-dependent (~uniform over arrays), so the exit
  // branch mispredicts about once per matched packet — worth ~2.5 ns at
  // d=2 — while the extra compares read lines the batch driver already
  // prefetched. (Wide keys keep the early-exit FindMatch below: their
  // multi-word compare is expensive enough to be worth skipping.)
  constexpr size_t W = (kSize + 7) / 8;
  uint32_t mask = 0;
  for (size_t i = 0; i < d; ++i) {
    const uint32_t hit =
        static_cast<uint32_t>(values[idx[i]] != 0) &
        static_cast<uint32_t>(KeyEqShort<kSize>(keys + idx[i] * W, p));
    mask |= hit << i;
  }
  return mask == 0 ? -1 : __builtin_ctz(mask);
}

template <size_t kSize>
inline uint32_t KeyEqMaskShort(const uint64_t* keys, const size_t* idx,
                               size_t d, const ShortProbe<kSize>& p) {
  constexpr size_t W = (kSize + 7) / 8;
  uint32_t mask = 0;
  for (size_t i = 0; i < d; ++i) {
    mask |= static_cast<uint32_t>(KeyEqShort<kSize>(keys + idx[i] * W, p))
            << i;
  }
  return mask;
}

template <size_t kSize>
inline void StoreShortKey(uint64_t* keys, size_t bucket,
                          const ShortProbe<kSize>& p) {
  constexpr size_t W = (kSize + 7) / 8;
  keys[bucket * W] = p.w0;
  if constexpr (W == 2) keys[bucket * W + 1] = p.w1;
}

template <size_t W>
inline bool KeyEq(const uint64_t* slot, const uint64_t* probe) {
  bool eq = true;
  for (size_t w = 0; w < W; ++w) eq &= slot[w] == probe[w];
  return eq;
}

// First i in [0, d) with values[idx[i]] != 0 and key slot idx[i] == probe;
// -1 when no array tracks the probe key.
template <size_t W>
inline int FindMatch(const uint64_t* keys, const uint32_t* values,
                     const size_t* idx, size_t d, const uint64_t* probe) {
  for (size_t i = 0; i < d; ++i) {
    if (values[idx[i]] != 0 && KeyEq<W>(keys + idx[i] * W, probe)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// Bit i set iff key slot idx[i] equals probe (occupancy NOT consulted —
// the hardware variant compares keys unconditionally).
template <size_t W>
inline uint32_t KeyEqMask(const uint64_t* keys, const size_t* idx, size_t d,
                          const uint64_t* probe) {
  uint32_t mask = 0;
  for (size_t i = 0; i < d; ++i) {
    mask |= static_cast<uint32_t>(KeyEq<W>(keys + idx[i] * W, probe)) << i;
  }
  return mask;
}

inline uint64_t SumU32(const uint32_t* v, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += v[i];
  return total;
}

inline size_t CountNonZero(const uint32_t* v, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += v[i] != 0;
  return count;
}

// Writes every i in [0, n) with v[i] != 0 to out[0..count), ascending, and
// returns count. `out` must hold n entries (n < 2^32). Branchless: every
// offset is stored and only the non-zero ones advance the cursor, so the
// cost does not depend on where the occupied counters sit.
inline size_t NonZeroOffsets(const uint32_t* v, size_t n, uint32_t* out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    out[count] = static_cast<uint32_t>(i);
    count += v[i] != 0;
  }
  return count;
}

inline uint32_t MaxU32(const uint32_t* v, size_t n) {
  uint32_t best = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] > best) best = v[i];
  }
  return best;
}

// Smallest non-zero counter; 0 when every counter is zero.
inline uint32_t MinNonZeroU32(const uint32_t* v, size_t n) {
  uint32_t best = UINT32_MAX;
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] != 0) {
      any = true;
      if (v[i] < best) best = v[i];
    }
  }
  return any ? best : 0;
}

}  // namespace coco::simd::scalar
