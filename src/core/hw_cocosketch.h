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
// Storage, hashing, seeds, batching, state images and delta tracking are the
// shared bucket-sketch core (core/bucket_sketch.h); this class adds only the
// §4.2 rule and the median estimators. The rule is scalar: the d-way
// key-equality mask comes from the register compare for keys of <= 16 bytes
// and the padded word compare for wider keys, and the RNG-consuming
// replacement draws run in array order. The mask is safe to precompute
// before the increments because array i only ever writes bucket range
// [i*l, (i+1)*l): no array's key write can affect another array's compare.
//
// Every array increments its mapped bucket, so TotalValue() and
// Stats().total_value record the stream d times, and delta-sync
// payloads are up to d× larger than CocoSketch's for the same traffic.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/flow_table.h"
#include "common/rng.h"
#include "common/small_median.h"
#include "core/bucket_array.h"
#include "core/bucket_sketch.h"
#include "hw/approx_divider.h"
#include "simd/dispatch.h"
#include "simd/ops.h"

namespace coco::core {

enum class DivisionMode {
  kExact,        // FPGA variant
  kApproximate,  // P4 / Tofino variant
};

template <typename Key>
class HwCocoSketch : public BucketSketch<HwCocoSketch<Key>, Key, 0x5eedf11d> {
  using Base = BucketSketch<HwCocoSketch<Key>, Key, 0x5eedf11d>;
  friend Base;

 public:
  using Base::kKeyWords;

  // Default seed is per-process entropy; see CocoSketch's constructor note.
  HwCocoSketch(size_t memory_bytes, size_t d = 2,
               DivisionMode division = DivisionMode::kExact,
               uint64_t seed = ProcessSeed())
      : Base(memory_bytes, d, seed), division_(division) {}

  DivisionMode division() const { return division_; }

  // Per-array estimate: V if the key owns its mapped bucket, else 0
  // (the estimator of Lemma 4).
  uint64_t EstimateInArray(size_t array, const Key& key) const {
    size_t idx[Base::kMaxD];
    this->MappedBuckets(key, idx);
    const PaddedKey<Key> probe(key);
    const uint32_t v = buckets_.Value(idx[array]);
    return (v != 0 && buckets_.KeyEquals(idx[array], probe.words)) ? v : 0;
  }

  // §4.3: "since one flow may appear in multiple arrays, we will take the
  // median estimated size in different arrays as its final estimated size" —
  // the median is over the arrays actually recording the flow (average of
  // the middle two when that count is even). Flows recorded nowhere query
  // as 0. The strictly unbiased Lemma-4 estimator (0 for absent arrays) is
  // available per array via EstimateInArray.
  uint64_t Query(const Key& key) const {
    size_t idx[Base::kMaxD];
    this->MappedBuckets(key, idx);
    const PaddedKey<Key> probe(key);
    uint64_t est[Base::kMaxD];
    size_t recorded = 0;
    for (size_t i = 0; i < d_; ++i) {
      const uint32_t v = buckets_.Value(idx[i]);
      if (v != 0 && buckets_.KeyEquals(idx[i], probe.words)) {
        est[recorded++] = v;
      }
    }
    return SmallMedian(est, recorded);
  }

  // The strict Lemma-4 median: absent arrays contribute 0. Unbiased per
  // array and tail-bounded per Theorem 3 (used by the Fig. 17(b) error-CDF
  // analysis); under-reports flows recorded in fewer than d/2 arrays, which
  // is why the reporting path above conditions on recorded arrays instead.
  uint64_t UnbiasedQuery(const Key& key) const {
    size_t idx[Base::kMaxD];
    this->MappedBuckets(key, idx);
    const PaddedKey<Key> probe(key);
    uint64_t est[Base::kMaxD];
    for (size_t i = 0; i < d_; ++i) {
      const uint32_t v = buckets_.Value(idx[i]);
      est[i] = (v != 0 && buckets_.KeyEquals(idx[i], probe.words)) ? v : 0;
    }
    return SmallMedian(est, d_);
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

 private:
  using Base::buckets_;
  using Base::d_;
  using Base::key_replacements_;
  using Base::pass1_misses_;
  using Base::rng_;
  using Base::tier_;
  using Base::updates_;

  // The §4.2 per-array rule on precomputed absolute bucket indices; shared
  // by Update and UpdateBatch so the two paths cannot drift. The d key
  // compares happen in one call up front (arrays write disjoint bucket
  // ranges, so no increment or key write below can invalidate the mask).
  // Like CocoSketch::UpdateRule, the probe representation splits on key
  // width: <= 16 bytes rides the register probe, wider keys the padded word
  // array; both produce the exact stored byte layout. kD: compile-time d
  // from UpdateBatch's d=2 instantiation, 0 = runtime d_.
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
      this->MarkDirty(idx[i]);
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

  DivisionMode division_;
};

}  // namespace coco::core
