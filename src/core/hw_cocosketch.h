// Hardware-friendly CocoSketch (§4.2) — circular dependencies removed.
//
// Each of the d arrays runs an independent d=1 instance of stochastic
// variance minimization: the mapped bucket's value is ALWAYS incremented
// (no dependence on the key comparison) and the key is replaced with
// probability w / V_new (no dependence across arrays). This matches what an
// RMT pipeline or a fully pipelined FPGA design can execute at line rate.
//
// Because a flow may now be recorded in several arrays, queries take the
// median of the per-array estimates (value if the key occupies its mapped
// bucket, else 0) — the control-plane rule of §4.3. Each per-array estimate
// is unbiased (Lemma 4) with variance f(e)·f̄(e)/l (Lemma 5); the median
// sharpens the tail per Theorem 3.
//
// Division mode selects how the replacement probability is realized:
//   kExact       — full-width reciprocal (FPGA variant, §6.1);
//   kApproximate — Tofino math-unit top-4-bit reciprocal (P4 variant, §6.2).
//
// Storage and SIMD tiering mirror CocoSketch: word-addressable SoA buckets
// (core/bucket_array.h), a scalar update rule (the d-way key-equality mask
// from the register compare for keys of <= 16 bytes, the padded word compare
// for wider keys; RNG-consuming replacement draws array-ordered), and the
// tier only on the control-plane scans — state is byte-identical on every
// tier. The per-array mask is safe to precompute before the increments
// because array i only ever writes bucket range [i*l, (i+1)*l): no array's
// key write can affect another array's compare.
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
#include "hw/approx_divider.h"
#include "simd/dispatch.h"
#include "simd/ops.h"

namespace coco::core {

enum class DivisionMode {
  kExact,        // FPGA variant
  kApproximate,  // P4 / Tofino variant
};

template <typename Key>
class HwCocoSketch {
 public:
  using KeyType = Key;

  static constexpr size_t kMaxD = 8;
  static constexpr size_t kKeyWords = BucketArray<Key>::kKeyWords;
  static constexpr size_t kBatchWindow = 32;

  static constexpr size_t BucketBytes() {
    return Key::kSize + sizeof(uint32_t);
  }

  // Default seed is per-process entropy; see CocoSketch's constructor note.
  HwCocoSketch(size_t memory_bytes, size_t d = 2,
               DivisionMode division = DivisionMode::kExact,
               uint64_t seed = ProcessSeed())
      : d_(d),
        l_(memory_bytes / (d * BucketBytes())),
        division_(division),
        seed_(seed),
        hash_(seed, d_, l_ == 0 ? 1 : l_),
        rng_(seed ^ 0x5eedf11d),
        tier_(simd::ActiveTier()),
        buckets_(d_ * l_) {
    COCO_CHECK(d_ >= 1 && d_ <= kMaxD, "d out of range");
    COCO_CHECK(l_ >= 1, "memory too small for one bucket per array");
  }

  void Update(const Key& key, uint32_t weight) {
    uint32_t slot[kMaxD];
    hash_.Slots(key.data(), key.size(), slot);
    size_t idx[kMaxD];
    for (size_t i = 0; i < d_; ++i) idx[i] = i * l_ + slot[i];
    UpdateRule(idx, key, weight);
  }

  // Batched fast path through the shared hash+prefetch window pipeline
  // (core/batch_window.h) — state byte-identical to scalar Update calls.
  template <typename Record>
  void UpdateBatch(const Record* records, size_t count) {
    detail::BatchDriver::Run(*this, records, count);
  }

  template <typename Record>
  void UpdateBatch(std::span<const Record> batch) {
    UpdateBatch(batch.data(), batch.size());
  }

  // Per-array estimate: V if the key owns its mapped bucket, else 0
  // (the estimator of Lemma 4).
  uint64_t EstimateInArray(size_t array, const Key& key) const {
    uint32_t slot[kMaxD];
    hash_.Slots(key.data(), key.size(), slot);
    const PaddedKey<Key> probe(key);
    const size_t idx = array * l_ + slot[array];
    return (buckets_.Value(idx) != 0 && buckets_.KeyEquals(idx, probe.words))
               ? buckets_.Value(idx)
               : 0;
  }

  // §4.3: "since one flow may appear in multiple arrays, we will take the
  // median estimated size in different arrays as its final estimated size" —
  // the median is over the arrays actually recording the flow (average of
  // the middle two when that count is even). Flows recorded nowhere query
  // as 0. The strictly unbiased Lemma-4 estimator (0 for absent arrays) is
  // available per array via EstimateInArray.
  uint64_t Query(const Key& key) const {
    uint32_t slot[kMaxD];
    hash_.Slots(key.data(), key.size(), slot);
    const PaddedKey<Key> probe(key);
    uint64_t est[kMaxD];
    size_t recorded = 0;
    for (size_t i = 0; i < d_; ++i) {
      const size_t idx = i * l_ + slot[i];
      const uint32_t v = buckets_.Value(idx);
      if (v != 0 && buckets_.KeyEquals(idx, probe.words)) est[recorded++] = v;
    }
    return recorded == 0 ? 0 : Median(est, recorded);
  }

  // The strict Lemma-4 median: absent arrays contribute 0. Unbiased per
  // array and tail-bounded per Theorem 3 (used by the Fig. 17(b) error-CDF
  // analysis); under-reports flows recorded in fewer than d/2 arrays, which
  // is why the reporting path above conditions on recorded arrays instead.
  uint64_t UnbiasedQuery(const Key& key) const {
    uint32_t slot[kMaxD];
    hash_.Slots(key.data(), key.size(), slot);
    const PaddedKey<Key> probe(key);
    uint64_t est[kMaxD];
    for (size_t i = 0; i < d_; ++i) {
      const size_t idx = i * l_ + slot[i];
      const uint32_t v = buckets_.Value(idx);
      est[i] = (v != 0 && buckets_.KeyEquals(idx, probe.words)) ? v : 0;
    }
    return Median(est, d_);
  }

  // Full-key flow table: every key recorded anywhere, scored by Query().
  FlowTable<Key> Decode() const {
    FlowTable<Key> recorded;  // dedupe first, score below
    recorded.reserve(buckets_.size());
    simd::ForEachNonZero(tier_, buckets_.values(), buckets_.size(),
                         [&](size_t i) {
                           recorded.AddWords(buckets_.KeyWords(i), 0);
                         });
    // Median-of-zeros can score a recorded key at 0; drop those — they are
    // indistinguishable from unrecorded flows.
    FlowTable<Key> out;
    out.reserve(recorded.size());
    for (const auto& [key, unused] : recorded) {
      if (const uint64_t est = Query(key); est != 0) out.Add(key, est);
    }
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
  DivisionMode division() const { return division_; }

  // SIMD tier control; see CocoSketch::SimdTier.
  simd::Tier SimdTier() const { return tier_; }
  void SetSimdTier(simd::Tier t) { tier_ = simd::ClampTier(t); }

  // Total recorded weight across all arrays. Unlike CocoSketch this EXCEEDS
  // the stream mass: every array increments its mapped bucket, so the stream
  // is recorded (up to) d times.
  uint64_t TotalValue() const {
    return simd::SumU32(tier_, buckets_.values(), buckets_.size());
  }

  // Raw bucket readout for the control-plane merge path (core/merge.h).
  const BucketArray<Key>& Buckets() const { return buckets_; }
  // Mutable access is merge-only (see CocoSketch::MutableBuckets).
  BucketArray<Key>& MutableBuckets() { return buckets_; }

  // Delta-sync dirty tracking (net/delta.h); see CocoSketch. The hardware
  // variant writes all d mapped buckets per packet, so its deltas are up to
  // d× larger for the same traffic.
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

  // Occupancy / load-factor / churn introspection (core/sketch_stats.h).
  // Note the hardware variant's total_value exceeds the stream mass: every
  // array increments its mapped bucket, so mass is recorded d times.
  SketchStats Stats() const {
    SketchStats stats = ComputeBucketStats(tier_, buckets_.values(), d_, l_);
    stats.key_replacements = key_replacements_;
    stats.updates = updates_;
    stats.pass1_misses = pass1_misses_;
    return stats;
  }

  // Same checksummed control-plane image format as
  // CocoSketch::SerializeState (core/state_image.h).
  std::vector<uint8_t> SerializeState() const {
    return SerializeBucketImage(buckets_, Key::kSize, d_, l_, seed_);
  }

  // Rejects truncated, geometry-mismatched, and bit-flipped images without
  // touching any bucket; adopts the image's hash seed on success (see
  // CocoSketch::RestoreState for why).
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
      rng_ = decltype(rng_)(seed_ ^ 0x5eedf11d);
    }
    MarkAllDirty();
    return true;
  }

 private:
  friend struct detail::BatchDriver;

  static uint64_t Median(uint64_t* v, size_t n) {
    std::sort(v, v + n);
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }

  // The §4.2 per-array rule on precomputed absolute bucket indices; shared
  // by Update and UpdateBatch so the two paths cannot drift. The d key
  // compares happen in one call up front (arrays write disjoint bucket
  // ranges, so no increment or key write below can invalidate the mask).
  // Like CocoSketch::UpdateRule, the probe representation splits on key
  // width: <= 16 bytes rides the register probe, wider keys the padded word
  // array; both produce the exact stored byte layout. kD: compile-time d
  // from the batch driver's specialized instantiations, 0 = runtime d_.
  template <size_t kD = 0>
  COCO_FORCE_INLINE void UpdateRule(const size_t* idx, const Key& key,
                                    uint32_t weight) {
    const size_t d = kD == 0 ? d_ : kD;
    if constexpr (Key::kSize <= 16) {
      const auto probe = simd::scalar::MakeShortProbe<Key::kSize>(key.data());
      const uint32_t eq = simd::scalar::KeyEqMaskShort<Key::kSize>(
          buckets_.key_words(), idx, d, probe);
      ApplyRule(idx, d, weight, eq, [&](size_t chosen) {
        simd::scalar::StoreShortKey<Key::kSize>(buckets_.mutable_key_words(),
                                                chosen, probe);
      });
    } else {
      const PaddedKey<Key> probe(key);
      const uint32_t eq = simd::scalar::KeyEqMask<kKeyWords>(
          buckets_.key_words(), idx, d, probe.words);
      ApplyRule(idx, d, weight, eq, [&](size_t chosen) {
        buckets_.SetKeyWords(chosen, probe.words);
      });
    }
  }

  // The probe-representation-independent body of §4.2: per-array increment
  // plus reciprocal replacement draw; `store_key` writes the probe into a
  // bucket slot on replacement.
  template <typename StoreFn>
  COCO_FORCE_INLINE void ApplyRule(const size_t* idx, size_t d,
                                   uint32_t weight, uint32_t eq,
                                   StoreFn&& store_key) {
    ++updates_;
    // "Pass-1 miss" for the hardware variant: the flow's key owned none of
    // its d mapped buckets when the packet arrived.
    if (eq == 0) ++pass1_misses_;
    for (size_t i = 0; i < d; ++i) {
      // Value stage: unconditional increment — no dependence on the key.
      buckets_.AddValue(idx[i], weight);
      MarkDirty(idx[i]);
      if ((eq >> i) & 1) continue;  // matching key needs no replacement draw
      // Key stage: replace w.p. weight / V_new via reciprocal comparison,
      // exactly as the hardware pipelines execute it.
      const uint32_t recip =
          division_ == DivisionMode::kExact
              ? hw::ApproxDivider::ExactReciprocal(buckets_.Value(idx[i]))
              : hw::ApproxDivider::Reciprocal(buckets_.Value(idx[i]));
      const uint64_t threshold = static_cast<uint64_t>(recip) * weight;
      if (static_cast<uint64_t>(rng_.Next32()) < threshold) {
        store_key(idx[i]);
        ++key_replacements_;
      }
    }
  }

  size_t d_;
  size_t l_;
  DivisionMode division_;
  uint64_t seed_;
  hash::MultiHash hash_;
  Rng rng_;
  simd::Tier tier_;
  BucketArray<Key> buckets_;
  std::vector<uint8_t> dirty_;  // empty = delta tracking off
  uint64_t key_replacements_ = 0;
  // Attack-detection signal counters (core/attack_monitor.h).
  uint64_t updates_ = 0;
  uint64_t pass1_misses_ = 0;
};

}  // namespace coco::core
