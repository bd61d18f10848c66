// The hash + prefetch window pipeline shared by CocoSketch::UpdateBatch and
// HwCocoSketch::UpdateBatch.
//
// The seed carried two verbatim copies of this loop, one per sketch; they
// are deduped here as a driver the sketches befriend. Per window of
// Sketch::kBatchWindow records:
//
//   phase 1 — derive every mapped slot (MultiHash::Slots per record),
//             convert to absolute bucket indices, and issue software
//             prefetches for both halves of each bucket (counter line +
//             key-word line of the SoA layout);
//   phase 2 — run the sketch's exact scalar update rule in stream order
//             against now-resident lines.
//
// Phase 2 runs one update-rule instantiation per compile-time d and has no
// SIMD tier: the rule is scalar for every key width.
//
// Hashing has no side effects and phase 2 preserves stream order, so the
// resulting state — including RNG consumption order — is byte-identical to
// per-packet Update() calls (tests/batch_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.h"

namespace coco::core::detail {

struct BatchDriver {
  template <typename Record, typename Sketch>
  static void Run(Sketch& sk, const Record* records, size_t count) {
    constexpr size_t kWindow = Sketch::kBatchWindow;
    constexpr size_t kMaxD = Sketch::kMaxD;
    uint32_t slots[kWindow][kMaxD];
    size_t idx[kWindow][kMaxD];
    const size_t d = sk.d_;
    const size_t l = sk.l_;
    for (size_t base = 0; base < count; base += kWindow) {
      const size_t n = count - base < kWindow ? count - base : kWindow;
      // Pull the NEXT window's records toward L1 while this one is hashed
      // and applied: the hash chain starts by loading key bytes, and a
      // trace streaming from L3/DRAM stalls the whole window otherwise.
      const size_t ahead = count - base - n < kWindow ? count - base - n
                                                      : kWindow;
      const auto* next = reinterpret_cast<const uint8_t*>(records + base + n);
      const auto* next_end =
          reinterpret_cast<const uint8_t*>(records + base + n + ahead);
      for (const auto* p = next; p < next_end; p += 64) {
        __builtin_prefetch(p, 0, 3);
      }
      const Record* recs = records + base;
      for (size_t j = 0; j < n; ++j) {
        sk.hash_.Slots(recs[j].key.data(), recs[j].key.size(), slots[j]);
      }
      for (size_t j = 0; j < n; ++j) {
        for (size_t i = 0; i < d; ++i) {
          idx[j][i] = i * l + slots[j][i];
          sk.buckets_.Prefetch(idx[j][i]);
        }
      }
      ApplyWindow(sk, recs, n, idx);
    }
  }

  // d == 2 (the paper's default and the benchmarked operating point) gets a
  // dedicated instantiation: with d a compile-time constant the probe and
  // min-scan loops in the update rule unroll to straight-line code. All
  // other depths share the runtime-d instantiation (kD = 0).
  template <typename Record, typename Sketch>
  COCO_FORCE_INLINE static void ApplyWindow(
      Sketch& sk, const Record* recs, size_t n,
      const size_t (*idx)[Sketch::kMaxD]) {
    if (sk.d_ == 2) {
      for (size_t j = 0; j < n; ++j) {
        sk.template UpdateRule<2>(idx[j], recs[j].key, recs[j].weight);
      }
      return;
    }
    for (size_t j = 0; j < n; ++j) {
      sk.template UpdateRule<0>(idx[j], recs[j].key, recs[j].weight);
    }
  }
};

}  // namespace coco::core::detail
