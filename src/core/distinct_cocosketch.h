// Distinct-counting CocoSketch — an exploratory implementation of the
// extension the paper leaves as future work (§8: "We leave the exploration
// of extending CocoSketch to support distinct counting for future work",
// referencing BeauCoup's multi-key distinct queries).
//
// The flow metric changes from packet/byte count to SPREAD: the number of
// distinct attribute values (e.g. distinct SrcIPs contacting a DstIP, the
// super-spreader / SYN-flood signal of §1). Buckets pair a full key with a
// HyperLogLog; the stochastic-variance-minimization skeleton is kept, with
// the bucket's cardinality estimate standing in for the counter:
//   * if the key matches a mapped bucket, add the attribute to its HLL;
//   * otherwise pick the mapped bucket with the smallest estimate, add the
//     attribute, and take over the key with probability 1 / estimate —
//     the w=1 replacement rule applied to the spread metric.
//
// Unlike the size metric, distinct counts are not additive under key
// takeover (the HLL retains the previous owner's items), so estimates are
// biased UP by collisions rather than unbiased; this matches the fidelity
// the paper claims for the extension (none — it is future work) and the
// tests pin down the behaviour we do provide: exactness below capacity,
// monotonicity, and reliable super-spreader ranking.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "hash/bobhash.h"
#include "sketch/hyperloglog.h"

namespace coco::core {

template <typename Key, typename Item>
class DistinctCocoSketch {
 public:
  DistinctCocoSketch(size_t d, size_t buckets_per_array,
                     uint8_t hll_precision_bits = 8,
                     uint64_t seed = ProcessSeed())
      : d_(d), l_(buckets_per_array), hash_(seed), rng_(seed ^ 0x7e11) {
    COCO_CHECK(d_ >= 1 && d_ <= 8, "d out of range");
    COCO_CHECK(l_ >= 1, "need at least one bucket per array");
    buckets_.reserve(d_ * l_);
    for (size_t i = 0; i < d_ * l_; ++i) {
      buckets_.push_back(Bucket{Key{}, false,
                                sketch::HyperLogLog(hll_precision_bits,
                                                    seed ^ 0x9d9)});
    }
  }

  // Observes `item` under flow `key` (e.g. key = DstIP, item = SrcIP).
  void Update(const Key& key, const Item& item) {
    // d_ >= 1 (checked at construction): the probe runs at least once, so
    // idx[0] is always written.
    size_t idx[8];
    size_t i = 0;
    do {
      idx[i] = Slot(i, key);
      Bucket& b = buckets_[idx[i]];
      if (b.occupied && b.key == key) {
        b.hll.AddKey(item);
        return;
      }
    } while (++i < d_);
    size_t chosen = idx[0];
    double best = Spread(buckets_[chosen]);
    for (i = 1; i < d_; ++i) {
      const double s = Spread(buckets_[idx[i]]);
      if (s < best) {
        best = s;
        chosen = idx[i];
      }
    }
    Bucket& b = buckets_[chosen];
    b.hll.AddKey(item);
    const double estimate = std::max(1.0, Spread(b));
    if (!b.occupied || rng_.NextDouble() * estimate < 1.0) {
      b.key = key;
      b.occupied = true;
    }
  }

  // Estimated spread of `key`; 0 when untracked.
  double Query(const Key& key) const {
    for (size_t i = 0; i < d_; ++i) {
      const Bucket& b = buckets_[Slot(i, key)];
      if (b.occupied && b.key == key) return b.hll.Estimate();
    }
    return 0.0;
  }

  // All tracked keys with their spread estimates.
  std::unordered_map<Key, double> Decode() const {
    std::unordered_map<Key, double> out;
    out.reserve(buckets_.size());
    for (const Bucket& b : buckets_) {
      if (!b.occupied) continue;
      auto [it, inserted] = out.emplace(b.key, b.hll.Estimate());
      if (!inserted && b.hll.Estimate() > it->second) {
        it->second = b.hll.Estimate();
      }
    }
    return out;
  }

  void Clear() {
    for (Bucket& b : buckets_) {
      b.occupied = false;
      b.key = Key{};
      b.hll.Clear();
    }
  }

  size_t MemoryBytes() const {
    return buckets_.size() *
           (sizeof(Key) + 1 + buckets_.front().hll.MemoryBytes());
  }

  size_t d() const { return d_; }
  size_t l() const { return l_; }

 private:
  struct Bucket {
    Key key;
    bool occupied;
    sketch::HyperLogLog hll;
  };

  double Spread(const Bucket& b) const {
    return b.occupied ? b.hll.Estimate() : 0.0;
  }

  size_t Slot(size_t array, const Key& key) const {
    return array * l_ + hash_(array, key.data(), key.size()) % l_;
  }

  size_t d_;
  size_t l_;
  hash::HashFamily hash_;
  Rng rng_;
  std::vector<Bucket> buckets_;
};

}  // namespace coco::core
