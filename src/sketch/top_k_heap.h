// Indexed fixed-capacity min-heap used by the "sketch + min-heap" baselines
// (Count-Min + heap, Count + heap, UnivMon levels), and SketchHeap, the
// frequency sketch + heap pipeline behind CmHeap and CHeap.
//
// The heap tracks the current top-K keys by estimated size. A hash index maps
// key -> heap slot so that updating an already-tracked key is O(log K)
// instead of O(K). This is the standard companion structure for turning a
// frequency sketch into a heavy-hitter reporter.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace coco::sketch {

template <typename Key>
class TopKHeap {
 public:
  struct Entry {
    Key key;
    uint64_t estimate;
  };

  explicit TopKHeap(size_t capacity) : capacity_(capacity) {
    COCO_CHECK(capacity > 0, "heap capacity must be positive");
    entries_.reserve(capacity);
    index_.reserve(capacity * 2);
  }

  // Offers (key, estimate). If the key is tracked, its estimate is raised
  // (estimates from sketches are monotone); otherwise it is inserted, evicting
  // the smallest entry when full and the newcomer beats it.
  void Offer(const Key& key, uint64_t estimate) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      const size_t pos = it->second;
      if (estimate > entries_[pos].estimate) {
        entries_[pos].estimate = estimate;
        SiftDown(pos);  // estimate grew, so it may need to move away from root
      }
      return;
    }
    if (entries_.size() < capacity_) {
      entries_.push_back({key, estimate});
      index_[key] = entries_.size() - 1;
      SiftUp(entries_.size() - 1);
      return;
    }
    if (estimate > entries_[0].estimate) {
      index_.erase(entries_[0].key);
      entries_[0] = {key, estimate};
      index_[key] = 0;
      SiftDown(0);
    }
  }

  bool Contains(const Key& key) const { return index_.count(key) != 0; }

  uint64_t EstimateOf(const Key& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? 0 : entries_[it->second].estimate;
  }

  uint64_t MinEstimate() const {
    return entries_.empty() ? 0 : entries_[0].estimate;
  }

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

  const std::vector<Entry>& entries() const { return entries_; }

  std::unordered_map<Key, uint64_t> ToMap() const {
    std::unordered_map<Key, uint64_t> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.emplace(e.key, e.estimate);
    return out;
  }

  void Clear() {
    entries_.clear();
    index_.clear();
  }

  // Bytes per tracked entry, charged against the sketch memory budget:
  // the entry itself plus the hash index slot.
  static constexpr size_t EntryBytes() {
    return sizeof(Entry) + sizeof(Key) + sizeof(size_t) +
           2 * sizeof(void*);  // unordered_map node overhead approximation
  }

 private:
  void SiftUp(size_t pos) {
    while (pos > 0) {
      const size_t parent = (pos - 1) / 2;
      if (entries_[parent].estimate <= entries_[pos].estimate) break;
      SwapSlots(pos, parent);
      pos = parent;
    }
  }

  void SiftDown(size_t pos) {
    const size_t n = entries_.size();
    for (;;) {
      size_t smallest = pos;
      const size_t l = 2 * pos + 1;
      const size_t r = 2 * pos + 2;
      if (l < n && entries_[l].estimate < entries_[smallest].estimate) {
        smallest = l;
      }
      if (r < n && entries_[r].estimate < entries_[smallest].estimate) {
        smallest = r;
      }
      if (smallest == pos) break;
      SwapSlots(pos, smallest);
      pos = smallest;
    }
  }

  void SwapSlots(size_t a, size_t b) {
    std::swap(entries_[a], entries_[b]);
    index_[entries_[a].key] = a;
    index_[entries_[b].key] = b;
  }

  size_t capacity_;
  std::vector<Entry> entries_;
  std::unordered_map<Key, size_t> index_;
};

// A frequency sketch + top-K heap: the full heavy-hitter pipeline of a
// single-key baseline (CmHeap, CHeap). Every update offers the key to the
// heap with its new estimate; the reported flows are the heap contents. A
// fraction of the memory budget goes to the heap, the rest to the sketch,
// built as Sketch(budget, rows, seed).
template <typename Key, typename Sketch, uint64_t kDefaultSeed>
class SketchHeap {
 public:
  SketchHeap(size_t memory_bytes, size_t heap_capacity = 1024,
             size_t rows = 3, uint64_t seed = kDefaultSeed)
      : heap_(ClampHeap(memory_bytes, heap_capacity)),
        sketch_(SketchBudget(memory_bytes, heap_.capacity()), rows, seed) {}

  void Update(const Key& key, uint32_t weight) {
    sketch_.Update(key, weight);
    heap_.Offer(key, sketch_.Query(key));
  }

  uint64_t Query(const Key& key) const { return sketch_.Query(key); }

  std::unordered_map<Key, uint64_t> Decode() const { return heap_.ToMap(); }

  void Clear() {
    sketch_.Clear();
    heap_.Clear();
  }

  size_t MemoryBytes() const {
    return sketch_.MemoryBytes() +
           heap_.capacity() * TopKHeap<Key>::EntryBytes();
  }

 private:
  // At most half the budget goes to the heap; small per-key budgets (e.g.
  // R-HHH's 33-way split) get a proportionally smaller heap instead of
  // failing outright.
  static size_t ClampHeap(size_t memory_bytes, size_t heap_capacity) {
    const size_t max_entries =
        memory_bytes / (2 * TopKHeap<Key>::EntryBytes());
    const size_t clamped = std::min(heap_capacity, max_entries);
    return clamped == 0 ? 1 : clamped;
  }

  static size_t SketchBudget(size_t memory_bytes, size_t heap_capacity) {
    const size_t heap_bytes = heap_capacity * TopKHeap<Key>::EntryBytes();
    COCO_CHECK(memory_bytes > heap_bytes, "budget smaller than heap");
    return memory_bytes - heap_bytes;
  }

  TopKHeap<Key> heap_;
  Sketch sketch_;
};

}  // namespace coco::sketch
