// The bucket-sketch core shared by CocoSketch (§4.1) and HwCocoSketch (§4.2).
//
// The two variants differ only in the per-packet rule and in the query. All
// the rest lives here, once:
//   - geometry: d arrays of l buckets sized from a memory budget, stored in
//     the word-addressable SoA layout of core/bucket_array.h; bucket b of
//     array i lives at absolute index i*l + b;
//   - hashing: one MultiHash pass per key yields all d mapped buckets
//     (MappedBuckets);
//   - the seed, the replacement RNG (seeded from the seed and a per-variant
//     salt) and Reseed, which rebuilds both;
//   - the batched update pipeline, the delta-sync dirty flags, the counters
//     behind Stats(), and the checksummed state images of core/state_image.h.
//
// A variant derives as `class V : public BucketSketch<V, Key, kRngSalt>` and
// supplies `template <size_t kD> UpdateRule(idx, key, weight)`: the scalar
// rule on the d precomputed absolute bucket indices (kD is a compile-time d,
// 0 = runtime d). Update() and UpdateBatch() both end in that one rule, so
// the two paths cannot drift.
//
// The rule is scalar on every host. The SIMD tier captured at construction
// (simd/dispatch.h) only picks the kernels of the control-plane scans
// (decode, merge, stats), so sketch state, including RNG consumption order,
// is byte-identical on every tier (tests/simd_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/bucket_array.h"
#include "core/sketch_stats.h"
#include "core/state_image.h"
#include "hash/multihash.h"
#include "simd/dispatch.h"
#include "simd/ops.h"

namespace coco::core {

template <typename Derived, typename Key, uint64_t kRngSalt>
class BucketSketch {
 public:
  using KeyType = Key;

  static constexpr size_t kMaxD = 8;
  static constexpr size_t kKeyWords = BucketArray<Key>::kKeyWords;

  // Packets per software-pipeline window in UpdateBatch: large enough to
  // cover DRAM latency with outstanding prefetches, small enough that the
  // per-window index scratch stays in L1.
  static constexpr size_t kBatchWindow = 32;

  // Logical per-bucket footprint (key bytes + 32-bit counter), the layout a
  // hardware deployment would use; memory budgets are divided by this. The
  // in-memory word padding of BucketArray deliberately does NOT count —
  // geometry (and therefore state images) stays identical to the seed.
  static constexpr size_t BucketBytes() {
    return Key::kSize + sizeof(uint32_t);
  }

  void Update(const Key& key, uint32_t weight) {
    size_t idx[kMaxD];
    MappedBuckets(key, idx);
    self().template UpdateRule<0>(idx, key, weight);
  }

  // Batched fast path: processes records (anything with `.key` convertible
  // to Key and a uint32_t `.weight`, e.g. coco::Packet) in windows of
  // kBatchWindow records:
  //   phase 1 — hash every record, then derive its mapped buckets and
  //             prefetch both halves of each (counter line + key-word line);
  //   phase 2 — run the exact scalar update rule in stream order against
  //             now-resident lines.
  // Hashing has no side effects and phase 2 preserves stream order, so the
  // state — including RNG consumption order — is byte-identical to
  // per-packet Update() calls (tests/batch_test.cpp).
  template <typename Record>
  void UpdateBatch(const Record* records, size_t count) {
    uint32_t slots[kBatchWindow][kMaxD];
    size_t idx[kBatchWindow][kMaxD];
    const size_t d = d_;
    const size_t l = l_;
    for (size_t base = 0; base < count; base += kBatchWindow) {
      const size_t n = std::min(count - base, kBatchWindow);
      // Pull the NEXT window's records toward L1 while this one is hashed
      // and applied: the hash chain starts by loading key bytes, and a
      // trace streaming from L3/DRAM stalls the whole window otherwise.
      const size_t ahead = std::min(count - base - n, kBatchWindow);
      const auto* next = reinterpret_cast<const uint8_t*>(records + base + n);
      const auto* next_end =
          reinterpret_cast<const uint8_t*>(records + base + n + ahead);
      for (const auto* p = next; p < next_end; p += 64) {
        __builtin_prefetch(p, 0, 3);
      }
      const Record* recs = records + base;
      for (size_t j = 0; j < n; ++j) {
        hash_.Slots(recs[j].key.data(), recs[j].key.size(), slots[j]);
      }
      for (size_t j = 0; j < n; ++j) {
        for (size_t i = 0; i < d; ++i) {
          idx[j][i] = i * l + slots[j][i];
          buckets_.Prefetch(idx[j][i]);
        }
      }
      // d == 2 (the paper's default and the benchmarked operating point)
      // gets a dedicated instantiation: with d a compile-time constant the
      // rule's per-array loops unroll to straight-line code. All other
      // depths share the runtime-d instantiation.
      if (d == 2) {
        for (size_t j = 0; j < n; ++j) {
          self().template UpdateRule<2>(idx[j], recs[j].key, recs[j].weight);
        }
      } else {
        for (size_t j = 0; j < n; ++j) {
          self().template UpdateRule<0>(idx[j], recs[j].key, recs[j].weight);
        }
      }
    }
  }

  template <typename Record>
  void UpdateBatch(std::span<const Record> batch) {
    UpdateBatch(batch.data(), batch.size());
  }

  void Clear() {
    buckets_.ClearAll();
    key_replacements_ = 0;
    updates_ = 0;
    pass1_misses_ = 0;
    MarkAllDirty();
  }

  // Moves the sketch onto `seed`: rebuilds the hash and restarts the RNG
  // exactly as a sketch constructed with `seed` would have them. Buckets are
  // left alone — callers either clear them first (seed rotation) or
  // overwrite them from an image hashed with `seed` (RestoreState).
  void Reseed(uint64_t seed) {
    seed_ = seed;
    hash_ = hash::MultiHash(seed_, d_, l_);
    rng_ = Rng(seed_ ^ kRngSalt);
  }

  size_t MemoryBytes() const { return buckets_.size() * BucketBytes(); }
  size_t d() const { return d_; }
  size_t l() const { return l_; }
  uint64_t seed() const { return seed_; }

  // The SIMD tier this instance's control-plane scans run on.
  // Captured from the process default at construction; override (clamped to
  // what the CPU supports) to compare tiers on one host. Switching tiers
  // never changes sketch state — only how fast the same state is computed.
  simd::Tier SimdTier() const { return tier_; }
  void SetSimdTier(simd::Tier t) { tier_ = simd::ClampTier(t); }

  // Raw bucket readout for the control-plane merge path (core/merge.h).
  const BucketArray<Key>& Buckets() const { return buckets_; }
  // Mutable access is merge-only: anything else writing buckets directly
  // bypasses the update rule and voids the unbiasedness guarantees.
  BucketArray<Key>& MutableBuckets() { return buckets_; }

  // ---- Delta-sync dirty tracking (net/delta.h) ----------------------------
  // When enabled, every bucket whose value changes is flagged; the network
  // agent ships only flagged buckets each epoch and clears the flags once
  // the collector acknowledges them. Disabled (the default) the cost is one
  // empty() branch per bucket write.
  void EnableDeltaTracking() { dirty_.assign(buckets_.size(), 0); }
  bool DeltaTrackingEnabled() const { return !dirty_.empty(); }
  const std::vector<uint8_t>& DirtyFlags() const { return dirty_; }
  void ClearDirtyFlags() {
    std::fill(dirty_.begin(), dirty_.end(), uint8_t{0});
  }
  void MarkAllDirty() {
    std::fill(dirty_.begin(), dirty_.end(), uint8_t{1});
  }
  void MarkDirty(size_t bucket_index) {
    if (!dirty_.empty()) dirty_[bucket_index] = 1;
  }

  // Occupancy / load-factor / churn introspection (core/sketch_stats.h) —
  // a control-plane scan of the counter array, no hot-path bookkeeping
  // beyond the three rule counters.
  SketchStats Stats() const {
    SketchStats stats = ComputeBucketStats(tier_, buckets_.values(), d_, l_);
    stats.key_replacements = key_replacements_;
    stats.updates = updates_;
    stats.pass1_misses = pass1_misses_;
    return stats;
  }

  // Total recorded weight over all buckets.
  uint64_t TotalValue() const {
    return simd::SumU32(tier_, buckets_.values(), buckets_.size());
  }

  // Control-plane readout: a flat image of the bucket state (checksummed
  // geometry header + key bytes + 32-bit value per bucket, see
  // core/state_image.h), the payload a switch would ship to the controller —
  // and the checkpoint format the OVS datapath recovers from.
  std::vector<uint8_t> SerializeState() const {
    return SerializeBucketImage(buckets_, Key::kSize, d_, l_, seed_);
  }

  // Rejects truncated, geometry-mismatched, and bit-flipped images without
  // touching any bucket — a failed restore leaves the sketch exactly as it
  // was. The restoring sketch ADOPTS the image's hash seed: bucket indices
  // are a function of the seed the serializing sketch hashed with, so
  // keeping a different local seed would misroute every future update and
  // point query against the restored buckets. A same-seed restore keeps the
  // RNG where it is. Aggregation paths that must NOT mix seeds (merge, the
  // network collector) enforce seed equality themselves before restore ever
  // runs.
  bool RestoreState(const std::vector<uint8_t>& image) {
    uint64_t img_d = 0, img_l = 0, img_seed = 0;
    if (!PeekStateImageHeader(image, &img_d, &img_l, &img_seed)) return false;
    if (!ValidateStateImage(image, d_, l_, img_seed,
                            buckets_.size() * BucketBytes())) {
      return false;
    }
    RestoreBucketImage(image, Key::kSize, &buckets_);
    if (img_seed != seed_) Reseed(img_seed);
    MarkAllDirty();
    return true;
  }

 protected:
  BucketSketch(size_t memory_bytes, size_t d, uint64_t seed)
      : d_(d),
        l_(memory_bytes / (d * BucketBytes())),
        seed_(seed),
        hash_(seed, d_, l_ == 0 ? 1 : l_),
        rng_(seed ^ kRngSalt),
        tier_(simd::ActiveTier()),
        buckets_(d_ * l_) {
    COCO_CHECK(d_ >= 1 && d_ <= kMaxD, "d out of range");
    COCO_CHECK(l_ >= 1, "memory too small for one bucket per array");
  }

  // The d absolute bucket indices `key` maps to, one per array.
  COCO_FORCE_INLINE void MappedBuckets(const Key& key, size_t* idx) const {
    // d_ >= 1 (checked at construction): idx[0] is always written.
    if (d_ == 0) __builtin_unreachable();
    uint32_t slot[kMaxD];
    hash_.Slots(key.data(), key.size(), slot);
    for (size_t i = 0; i < d_; ++i) idx[i] = i * l_ + slot[i];
  }

  size_t d_;
  size_t l_;
  uint64_t seed_;
  hash::MultiHash hash_;
  Rng rng_;
  simd::Tier tier_;
  BucketArray<Key> buckets_;
  std::vector<uint8_t> dirty_;  // empty = delta tracking off
  // Rule counters: key writes, rule applications, and pass-1 misses (the
  // attack-detection signals of core/attack_monitor.h). Register increments
  // on the hot path.
  uint64_t key_replacements_ = 0;
  uint64_t updates_ = 0;
  uint64_t pass1_misses_ = 0;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

}  // namespace coco::core
