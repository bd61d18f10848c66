// Count sketch [Charikar, Chen, Farach-Colton 2004] and its heavy-hitter
// wrapper ("C-Heap").
//
// Like Count-Min but with a +/-1 sign hash per row and a median-of-rows
// estimator, giving an unbiased (two-sided) estimate instead of CM's
// one-sided overestimate. Also the per-level summary inside UnivMon.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "hash/bobhash.h"
#include "sketch/top_k_heap.h"

namespace coco::sketch {

template <typename Key>
class CountSketch {
 public:
  CountSketch(size_t memory_bytes, size_t rows = 3, uint64_t seed = 0xce)
      : rows_(rows),
        width_(memory_bytes / (rows * sizeof(int32_t))),
        hash_(seed),
        sign_hash_(seed ^ 0x51519ull),
        counters_(rows_ * width_, 0) {
    COCO_CHECK(width_ > 0, "memory too small for Count sketch row");
  }

  void Update(const Key& key, uint32_t weight) {
    for (size_t r = 0; r < rows_; ++r) {
      counters_[Slot(r, key)] += Sign(r, key) * static_cast<int32_t>(weight);
    }
  }

  // Median of per-row signed estimates — the unbiased estimator. Exposed
  // for analysis; tasks use the clamped Query below.
  int64_t SignedQuery(const Key& key) const {
    int32_t est[16];
    COCO_DCHECK(rows_ <= 16, "too many rows");
    for (size_t r = 0; r < rows_; ++r) {
      est[r] = Sign(r, key) * counters_[Slot(r, key)];
    }
    std::nth_element(est, est + rows_ / 2, est + rows_);
    return est[rows_ / 2];
  }

  // Signed median clamped at zero (flow sizes are non-negative).
  uint64_t Query(const Key& key) const {
    const int64_t median = SignedQuery(key);
    return median > 0 ? static_cast<uint64_t>(median) : 0;
  }

  void Clear() { std::fill(counters_.begin(), counters_.end(), 0); }

  size_t MemoryBytes() const { return counters_.size() * sizeof(int32_t); }
  size_t rows() const { return rows_; }
  size_t width() const { return width_; }

 private:
  size_t Slot(size_t row, const Key& key) const {
    return row * width_ + hash_(row, key.data(), key.size()) % width_;
  }

  int32_t Sign(size_t row, const Key& key) const {
    return (sign_hash_(row, key.data(), key.size()) & 1) ? 1 : -1;
  }

  size_t rows_;
  size_t width_;
  hash::HashFamily hash_;
  hash::HashFamily sign_hash_;
  std::vector<int32_t> counters_;
};

// Count sketch + top-K heap: the C-Heap baseline's heavy-hitter pipeline.
template <typename Key>
using CHeap = SketchHeap<Key, CountSketch<Key>, 0xce>;

}  // namespace coco::sketch
