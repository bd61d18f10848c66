// Basic CocoSketch (§4.1) — stochastic variance minimization over d choices.
//
// Data structure: d arrays of l (key, value) buckets with independent hash
// functions. Per packet (e, w):
//   1. if e matches a mapped bucket in any array, add w to that bucket;
//   2. otherwise add w to the smallest mapped bucket and replace its key
//      with probability w / V_new (Theorem 1's variance-minimizing rule,
//      restricted to the d mapped buckets — "power of d choices").
// Exactly one value and at most one key are written per packet.
//
// With d == total bucket count this degenerates to Unbiased SpaceSaving;
// with small d (2-4) the update cost is O(d) while estimates stay unbiased
// with bounded variance (§5). Unbiasedness over arbitrary partial keys is
// property-tested in tests/cocosketch_test.cpp.
//
// Storage is the word-addressable SoA layout of core/bucket_array.h. The
// update rule is scalar on every host: keys of <= 16 bytes probe with the
// register compare, wider keys with the padded word compare. The SIMD tier
// captured at construction (simd/dispatch.h) only picks the kernels of the
// control-plane scans (decode, merge, stats), so sketch state, including
// RNG consumption order, is byte-identical on every tier
// (tests/simd_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/flow_table.h"
#include "common/rng.h"
#include "core/batch_window.h"
#include "core/bucket_array.h"
#include "core/sketch_stats.h"
#include "core/state_image.h"
#include "hash/multihash.h"
#include "simd/dispatch.h"
#include "simd/ops.h"

namespace coco::core {

template <typename Key>
class CocoSketch {
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

  // The default seed is per-process entropy (coco::ProcessSeed) so a
  // white-box adversary cannot precompute colliding key sets against a
  // deployment; pass an explicit seed for deterministic tests/benches and
  // for cross-process aggregation (or set COCO_SEED).
  CocoSketch(size_t memory_bytes, size_t d = 2, uint64_t seed = ProcessSeed())
      : d_(d),
        l_(memory_bytes / (d * BucketBytes())),
        seed_(seed),
        hash_(seed, d_, l_ == 0 ? 1 : l_),
        rng_(seed ^ 0x5eedf00d),
        tier_(simd::ActiveTier()),
        buckets_(d_ * l_) {
    COCO_CHECK(d_ >= 1 && d_ <= kMaxD, "d out of range");
    COCO_CHECK(l_ >= 1, "memory too small for one bucket per array");
  }

  void Update(const Key& key, uint32_t weight) {
    // d_ >= 1 (checked at construction): idx[0] is always written.
    if (d_ == 0) __builtin_unreachable();
    uint32_t slot[kMaxD];
    hash_.Slots(key.data(), key.size(), slot);
    size_t idx[kMaxD];
    for (size_t i = 0; i < d_; ++i) idx[i] = i * l_ + slot[i];
    UpdateRule(idx, key, weight);
  }

  // Batched fast path: processes records (anything with `.key` convertible
  // to Key and a uint32_t `.weight`, e.g. coco::Packet) through the shared
  // hash+prefetch window pipeline (core/batch_window.h). State — including
  // RNG consumption order — is byte-identical to per-packet Update() calls
  // (state-equality-tested in tests/batch_test.cpp).
  template <typename Record>
  void UpdateBatch(const Record* records, size_t count) {
    detail::BatchDriver::Run(*this, records, count);
  }

  template <typename Record>
  void UpdateBatch(std::span<const Record> batch) {
    UpdateBatch(batch.data(), batch.size());
  }

  // Point query: the tracked value, 0 if untracked. (A key occupies at most
  // one bucket at a time: matches are incremented in place and replacement
  // writes only happen when no bucket matched.)
  uint64_t Query(const Key& key) const {
    uint32_t slot[kMaxD];
    hash_.Slots(key.data(), key.size(), slot);
    size_t idx[kMaxD];
    for (size_t i = 0; i < d_; ++i) idx[i] = i * l_ + slot[i];
    const PaddedKey<Key> probe(key);
    const int match = simd::scalar::FindMatch<kKeyWords>(
        buckets_.key_words(), buckets_.values(), idx, d_, probe.words);
    return match < 0 ? 0 : buckets_.Value(idx[match]);
  }

  // Step 3 of the workflow (Fig. 1): the (FullKey, Size) table of all
  // recorded flows, input to the partial-key query front-end. The occupied
  // buckets are enumerated with the tier's occupied-offset scan (no branch
  // per empty bucket), and each bucket's padded key words go straight into
  // the table (hashed as words, copied once). A key held in several buckets
  // (after a merge) is summed.
  FlowTable<Key> Decode() const {
    FlowTable<Key> out;
    out.reserve(buckets_.size());
    const uint32_t* values = buckets_.values();
    simd::ForEachNonZero(tier_, values, buckets_.size(), [&](size_t i) {
      out.AddWords(buckets_.KeyWords(i), values[i]);
    });
    return out;
  }

  void Clear() {
    buckets_.ClearAll();
    key_replacements_ = 0;
    updates_ = 0;
    pass1_misses_ = 0;
    MarkAllDirty();
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
  // Bucket index b of array i lives at i*l + b.
  const BucketArray<Key>& Buckets() const { return buckets_; }
  // Mutable access is merge-only: anything else writing buckets directly
  // bypasses the update rule and voids the unbiasedness guarantees.
  BucketArray<Key>& MutableBuckets() { return buckets_; }

  // ---- Delta-sync dirty tracking (net/delta.h) ----------------------------
  // When enabled, every bucket whose value changes is flagged; the network
  // agent ships only flagged buckets each epoch and clears the flags once
  // the collector acknowledges them. Disabled (the default) the cost is one
  // empty() branch per update.
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
  // beyond the key-replacement counter.
  SketchStats Stats() const {
    SketchStats stats = ComputeBucketStats(tier_, buckets_.values(), d_, l_);
    stats.key_replacements = key_replacements_;
    stats.updates = updates_;
    stats.pass1_misses = pass1_misses_;
    return stats;
  }

  // Total recorded weight — conservation is a tested invariant: every
  // packet's weight lands in exactly one bucket.
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
  // point query against the restored buckets. Aggregation paths that must
  // NOT mix seeds (merge, the network collector) enforce seed equality
  // themselves before restore ever runs.
  bool RestoreState(const std::vector<uint8_t>& image) {
    uint64_t img_d = 0, img_l = 0, img_seed = 0;
    if (!PeekStateImageHeader(image, &img_d, &img_l, &img_seed)) return false;
    if (!ValidateStateImage(image, d_, l_, img_seed,
                            buckets_.size() * BucketBytes())) {
      return false;
    }
    RestoreBucketImage(image, Key::kSize, &buckets_);
    if (img_seed != seed_) {
      seed_ = img_seed;
      hash_ = hash::MultiHash(seed_, d_, l_);
      rng_ = decltype(rng_)(seed_ ^ 0x5eedf00d);
    }
    MarkAllDirty();
    return true;
  }

 private:
  friend struct detail::BatchDriver;

  // The scalar update rule of §4.1, operating on precomputed absolute
  // bucket indices (array i's slot offset by i*l). Shared verbatim by
  // Update() and UpdateBatch() so the two paths cannot drift.
  //
  // Pass 1 probes keys of <= 16 bytes with the register probe (no stack
  // round-trip — see simd/ops_scalar.h on the store-to-load-forwarding stall
  // that avoids) and wider keys with the padded word array. Both produce the
  // exact stored byte layout.
  //
  // kD: compile-time d for the batch driver's specialized instantiations
  // (0 = runtime d_). With d a constant the probe and min-scan loops unroll
  // to straight-line code — worth a few percent at the paper's d=2.
  template <size_t kD = 0>
  COCO_FORCE_INLINE void UpdateRule(const size_t* idx, const Key& key,
                                    uint32_t weight) {
    const size_t d = kD == 0 ? d_ : kD;
    if constexpr (Key::kSize <= 16) {
      const auto probe = simd::scalar::MakeShortProbe<Key::kSize>(key.data());
      const int match = simd::scalar::FindMatchShort<Key::kSize>(
          buckets_.key_words(), buckets_.values(), idx, d, probe);
      ApplyRule(idx, d, weight, match, [&](size_t chosen) {
        simd::scalar::StoreShortKey<Key::kSize>(buckets_.mutable_key_words(),
                                                chosen, probe);
      });
    } else {
      const PaddedKey<Key> probe(key);
      const int match = simd::scalar::FindMatch<kKeyWords>(
          buckets_.key_words(), buckets_.values(), idx, d, probe.words);
      ApplyRule(idx, d, weight, match, [&](size_t chosen) {
        buckets_.SetKeyWords(chosen, probe.words);
      });
    }
  }

  // The probe-representation-independent body of §4.1. Pass 1's result comes
  // in as `match`; `store_key` writes the probe into a bucket slot on
  // replacement.
  template <typename StoreFn>
  COCO_FORCE_INLINE void ApplyRule(const size_t* idx, size_t d,
                                   uint32_t weight, int match,
                                   StoreFn&& store_key) {
    ++updates_;
    // Pass 1: if the flow is already tracked, increment it — variance
    // increment zero (Theorem 2).
    if (match >= 0) {
      buckets_.AddValue(idx[match], weight);
      MarkDirty(idx[match]);
      return;
    }
    ++pass1_misses_;
    // Pass 2: smallest mapped bucket, ties broken uniformly at random
    // (reservoir over equal minima, as §4.1 specifies).
    size_t chosen = idx[0];
    size_t ties = 1;
    for (size_t i = 1; i < d; ++i) {
      const uint32_t v = buckets_.Value(idx[i]);
      const uint32_t best = buckets_.Value(chosen);
      if (v < best) {
        chosen = idx[i];
        ties = 1;
      } else if (v == best) {
        ++ties;
        if (rng_.NextBelow(ties) == 0) chosen = idx[i];
      }
    }
    buckets_.AddValue(chosen, weight);
    MarkDirty(chosen);
    // Replace with probability weight / V_new, computed in exact integer
    // arithmetic: replace iff rand32 * V < weight * 2^32.
    if (static_cast<uint64_t>(rng_.Next32()) * buckets_.Value(chosen) <
        (static_cast<uint64_t>(weight) << 32)) {
      store_key(chosen);
      ++key_replacements_;
    }
  }

  size_t d_;
  size_t l_;
  uint64_t seed_;
  hash::MultiHash hash_;
  Rng rng_;
  simd::Tier tier_;
  BucketArray<Key> buckets_;
  std::vector<uint8_t> dirty_;  // empty = delta tracking off
  uint64_t key_replacements_ = 0;
  // Attack-detection signal counters (core/attack_monitor.h): total update
  // rule applications and pass-1 misses. Two register increments on the hot
  // path, same cost class as key_replacements_.
  uint64_t updates_ = 0;
  uint64_t pass1_misses_ = 0;
};

}  // namespace coco::core
