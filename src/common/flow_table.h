// The (key, size) table of the query path: what every CocoSketch-family
// Decode() returns (step 3 of Fig. 1) and what a GROUP BY sums into
// (query::Aggregate, step 4).
//
// Entries are (key, size) pairs stored contiguously in first-insertion
// order, found through a power-of-two array of uint32_t entry positions
// (load <= 1/2, linear probing on Key::Hash()). Entries are never erased.
// Iterators and pointers to entries stay valid until the next insert,
// reserve or clear.
//
// Fixed-width keys can also be inserted straight from their padded-word
// bucket representation (core/bucket_array.h) with AddWords: hashed word by
// word with Key::HashWords (bit-identical to Key::Hash()) and copied once
// into the new entry, never through a Key temporary — that round-trip's
// store-to-load-forwarding stalls cost more than the rest of a decode.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.h"

namespace coco {

template <typename Key>
class FlowTable {
 public:
  using key_type = Key;
  using mapped_type = uint64_t;
  using value_type = std::pair<Key, uint64_t>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlowTable() = default;

  // The table of the (key, size) pairs in [first, last); sizes of equal
  // keys are summed.
  template <typename It>
  FlowTable(It first, It last) {
    for (; first != last; ++first) Add(first->first, first->second);
  }

  // Room for n entries without growing.
  void reserve(size_t n) {
    entries_.reserve(n);
    if (2 * n > slots_.size()) Rehash(std::bit_ceil(2 * n));
  }

  void clear() {
    entries_.clear();
    slots_.clear();
  }

  // key's size, inserted as 0 when the key is absent.
  uint64_t& operator[](const Key& key) {
    return FindOrAppend(
               key.Hash(), [&](const Key& k) { return k == key; },
               [&] { entries_.emplace_back(key, 0); })
        .second;
  }

  // SUM: adds `size` to key's entry, appending the entry if it is new.
  void Add(const Key& key, uint64_t size) { (*this)[key] += size; }

  // Add for the key held in Key::kWords zero-padded words (a bucket slot).
  void AddWords(const uint64_t* words, uint64_t size) {
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words);
    FindOrAppend(
        Key::HashWords(words),
        [&](const Key& k) {
          return std::memcmp(k.data(), bytes, Key::kSize) == 0;
        },
        [&] {
          entries_.emplace_back();
          std::memcpy(entries_.back().first.data(), bytes, Key::kSize);
        })
        .second += size;
  }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const_iterator find(const Key& key) const {
    if (slots_.empty()) return end();
    const uint32_t index =
        slots_[SlotOf(key.Hash(), [&](const Key& k) { return k == key; })];
    return index == kEmpty ? end() : begin() + index;
  }
  size_t count(const Key& key) const { return find(key) != end(); }
  const uint64_t& at(const Key& key) const {
    const auto it = find(key);
    if (it == end()) throw std::out_of_range("FlowTable::at: absent key");
    return it->second;
  }

  // Same key set with the same sizes, whatever the insertion order.
  friend bool operator==(const FlowTable& a, const FlowTable& b) {
    if (a.size() != b.size()) return false;
    for (const auto& [key, size] : a) {
      const auto it = b.find(key);
      if (it == b.end() || it->second != size) return false;
    }
    return true;
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kMinSlots = 16;

  // The slot holding the position of the entry whose key `matches`, or the
  // empty slot that ends the probe from `hash`. Some slot is always empty,
  // because load <= 1/2.
  template <typename Matches>
  size_t SlotOf(uint64_t hash, Matches&& matches) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (slots_[i] != kEmpty && !matches(entries_[slots_[i]].first)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // The entry whose key `matches`; if there is none, `append` pushes it with
  // size 0 and its slot is claimed.
  template <typename Matches, typename Append>
  value_type& FindOrAppend(uint64_t hash, Matches&& matches,
                           Append&& append) {
    if (2 * (entries_.size() + 1) > slots_.size()) {
      Rehash(std::max(kMinSlots, 2 * slots_.size()));
    }
    uint32_t& slot = slots_[SlotOf(hash, matches)];
    if (slot == kEmpty) {
      slot = static_cast<uint32_t>(entries_.size());
      append();
    }
    return entries_[slot];
  }

  void Rehash(size_t slot_count) {
    // Entry positions must stay below kEmpty.
    COCO_CHECK(slot_count <= (size_t{1} << 32), "flow table too large");
    slots_.assign(slot_count, kEmpty);
    for (size_t e = 0; e < entries_.size(); ++e) {
      slots_[SlotOf(entries_[e].first.Hash(),
                    [](const Key&) { return false; })] =
          static_cast<uint32_t>(e);
    }
  }

  std::vector<value_type> entries_;
  std::vector<uint32_t> slots_;
};

}  // namespace coco
