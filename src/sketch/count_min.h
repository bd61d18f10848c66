// Count-Min sketch [Cormode & Muthukrishnan 2005] and its heavy-hitter
// wrapper ("CM-Heap" in the paper's figures).
//
// CM is the canonical single-key baseline: r rows of w counters; update adds
// the weight to one counter per row; query takes the row minimum, which only
// ever over-estimates. An optional conservative-update mode (only raise the
// minimum counters) is provided as an ablation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "hash/bobhash.h"
#include "sketch/top_k_heap.h"

namespace coco::sketch {

template <typename Key>
class CountMinSketch {
 public:
  // `memory_bytes` is split evenly across `rows` rows of 32-bit counters.
  CountMinSketch(size_t memory_bytes, size_t rows = 3, uint64_t seed = 0xc0,
                 bool conservative = false)
      : rows_(rows),
        width_(memory_bytes / (rows * sizeof(uint32_t))),
        conservative_(conservative),
        hash_(seed),
        counters_(rows_ * width_, 0) {
    COCO_CHECK(width_ > 0, "memory too small for CM row");
  }

  void Update(const Key& key, uint32_t weight) {
    if (!conservative_) {
      for (size_t r = 0; r < rows_; ++r) {
        counters_[Slot(r, key)] += weight;
      }
      return;
    }
    // Conservative update: raise only counters below new_min = min + weight.
    uint32_t current = std::numeric_limits<uint32_t>::max();
    for (size_t r = 0; r < rows_; ++r) {
      current = std::min(current, counters_[Slot(r, key)]);
    }
    const uint32_t target = current + weight;
    for (size_t r = 0; r < rows_; ++r) {
      uint32_t& c = counters_[Slot(r, key)];
      if (c < target) c = target;
    }
  }

  uint64_t Query(const Key& key) const {
    uint32_t result = std::numeric_limits<uint32_t>::max();
    for (size_t r = 0; r < rows_; ++r) {
      result = std::min(result, counters_[Slot(r, key)]);
    }
    return result;
  }

  void Clear() { std::fill(counters_.begin(), counters_.end(), 0); }

  size_t MemoryBytes() const { return counters_.size() * sizeof(uint32_t); }
  size_t rows() const { return rows_; }
  size_t width() const { return width_; }

 private:
  size_t Slot(size_t row, const Key& key) const {
    return row * width_ + hash_(row, key.data(), key.size()) % width_;
  }

  size_t rows_;
  size_t width_;
  bool conservative_;
  hash::HashFamily hash_;
  std::vector<uint32_t> counters_;
};

// Count-Min + top-K heap: the CM baseline's heavy-hitter pipeline.
template <typename Key>
using CmHeap = SketchHeap<Key, CountMinSketch<Key>, 0xc0>;

}  // namespace coco::sketch
