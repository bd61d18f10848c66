// Runtime SIMD tier selection for the sketches' control-plane scans.
//
// Two tiers — AVX2 and scalar — implement the kernel contracts of
// simd/ops_scalar.h with bit-identical results; the tier only changes how
// fast the answer is computed, never the answer. Selection order:
//
//   1. Detection: on x86 GCC/Clang builds, __builtin_cpu_supports("avx2")
//      picks the AVX2 tier. AVX2 code is emitted through per-function
//      target("avx2") attributes and only executed after that check, so the
//      default build carries no -march flags and runs on any x86-64. Other
//      architectures always run scalar.
//   2. COCO_SIMD environment override: "scalar" | "avx2", clamped to the
//      detected tier so requesting avx2 on a host without it degrades
//      instead of faulting; unknown names fall back to detection. This
//      keeps the scalar tier testable on any machine (the byte-identical
//      state matrix in tests/simd_test.cpp, CI's scalar legs).
//
// Sketches capture ActiveTier() at construction (override per instance via
// SetSimdTier), so a running sketch never observes a tier change mid-stream.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

// COCO_SIMD_HAVE_AVX2: the AVX2 tier is compiled in.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define COCO_SIMD_HAVE_AVX2 1
#else
#define COCO_SIMD_HAVE_AVX2 0
#endif

// Per-function target attribute: lets AVX2 intrinsics live in headers built
// without global -mavx2 flags, so the binary stays runnable on any x86-64.
#if COCO_SIMD_HAVE_AVX2
#define COCO_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define COCO_TARGET_AVX2
#endif

// Forces a helper to inline into its caller. GCC's inliner otherwise leaves
// the sketches' per-packet update rule outlined inside the batch driver's
// per-window apply loop, which costs two calls per packet on the hot path.
#if defined(__GNUC__) || defined(__clang__)
#define COCO_FORCE_INLINE inline __attribute__((always_inline))
#else
#define COCO_FORCE_INLINE inline
#endif

namespace coco::simd {

enum class Tier : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

inline const char* TierName(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "?";
}

// Best tier this build + this CPU can execute.
inline Tier DetectTier() {
#if COCO_SIMD_HAVE_AVX2
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

// Every tier this build + CPU can execute, scalar first: the list the
// cross-tier tests and the tier table iterate.
inline std::vector<Tier> HostTiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  if (DetectTier() == Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  return tiers;
}

// Parses a COCO_SIMD-style tier name. Returns false on unknown input.
inline bool ParseTier(const char* s, Tier* out) {
  if (s == nullptr) return false;
  if (std::strcmp(s, "scalar") == 0) {
    *out = Tier::kScalar;
  } else if (std::strcmp(s, "avx2") == 0) {
    *out = Tier::kAvx2;
  } else {
    return false;
  }
  return true;
}

// Clamp a requested tier to what this build + CPU can execute: asking for
// avx2 on a host without it degrades instead of faulting.
inline Tier ClampTier(Tier t) {
  const Tier detected = DetectTier();
  return t < detected ? t : detected;
}

// Detection + COCO_SIMD env override, clamped to the detected ceiling.
inline Tier ResolveTier() {
  Tier requested;
  if (ParseTier(std::getenv("COCO_SIMD"), &requested)) {
    return ClampTier(requested);
  }
  return DetectTier();
}

namespace internal {
inline Tier& ActiveTierSlot() {
  static Tier tier = ResolveTier();
  return tier;
}
}  // namespace internal

// The process-wide default tier new sketches pick up. Resolved once (env +
// CPUID) on first use.
inline Tier ActiveTier() { return internal::ActiveTierSlot(); }

// Test hook: force the process default (clamped to what the CPU supports).
// Call before constructing the sketches that should use it; existing
// sketches keep the tier they captured.
inline void SetActiveTier(Tier t) { internal::ActiveTierSlot() = ClampTier(t); }

}  // namespace coco::simd
