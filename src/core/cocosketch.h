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
// Storage, hashing, seeds, batching, state images and delta tracking are the
// shared bucket-sketch core (core/bucket_sketch.h); this class adds only the
// §4.1 rule and its estimator. The rule is scalar: keys of <= 16 bytes probe
// with the register compare, wider keys with the padded word compare. Every
// packet's weight lands in exactly one bucket, so TotalValue() equals the
// stream mass exactly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/flow_table.h"
#include "common/rng.h"
#include "core/bucket_array.h"
#include "core/bucket_sketch.h"
#include "simd/dispatch.h"
#include "simd/ops.h"

namespace coco::core {

template <typename Key>
class CocoSketch : public BucketSketch<CocoSketch<Key>, Key, 0x5eedf00d> {
  using Base = BucketSketch<CocoSketch<Key>, Key, 0x5eedf00d>;
  friend Base;

 public:
  using Base::kKeyWords;

  // The default seed is per-process entropy (coco::ProcessSeed) so a
  // white-box adversary cannot precompute colliding key sets against a
  // deployment; pass an explicit seed for deterministic tests/benches and
  // for cross-process aggregation (or set COCO_SEED).
  CocoSketch(size_t memory_bytes, size_t d = 2, uint64_t seed = ProcessSeed())
      : Base(memory_bytes, d, seed) {}

  // Point query: the tracked value, 0 if untracked. (A key occupies at most
  // one bucket at a time: matches are incremented in place and replacement
  // writes only happen when no bucket matched.)
  uint64_t Query(const Key& key) const {
    size_t idx[Base::kMaxD];
    this->MappedBuckets(key, idx);
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

 private:
  using Base::buckets_;
  using Base::d_;
  using Base::key_replacements_;
  using Base::pass1_misses_;
  using Base::rng_;
  using Base::tier_;
  using Base::updates_;

  // The scalar update rule of §4.1, operating on precomputed absolute
  // bucket indices (array i's slot offset by i*l). Shared verbatim by
  // Update() and UpdateBatch() so the two paths cannot drift.
  //
  // Pass 1 probes keys of <= 16 bytes with the register probe (no stack
  // round-trip — see simd/ops_scalar.h on the store-to-load-forwarding stall
  // that avoids) and wider keys with the padded word array. Both produce the
  // exact stored byte layout.
  //
  // kD: compile-time d for UpdateBatch's d=2 instantiation
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
      this->MarkDirty(idx[match]);
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
    this->MarkDirty(chosen);
    // Replace with probability weight / V_new, computed in exact integer
    // arithmetic: replace iff rand32 * V < weight * 2^32.
    if (static_cast<uint64_t>(rng_.Next32()) * buckets_.Value(chosen) <
        (static_cast<uint64_t>(weight) << 32)) {
      store_key(chosen);
      ++key_replacements_;
    }
  }
};

}  // namespace coco::core
