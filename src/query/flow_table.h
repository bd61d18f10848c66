// Partial-key query front-end (§4.3, steps 3-4 of Fig. 1).
//
// The data plane is decoded once into a (FullKey, Size) table; any partial
// key is then answered by the relational aggregation
//     SELECT g(k_F), SUM(Size) FROM table GROUP BY g(k_F)
// implemented here as Aggregate(), which sums into a GroupTable. Heavy
// changes are the aggregated absolute difference of two windows' tables.
//
// The read-side helpers (AbsDiff, TopEntries, TopRows, FilterThreshold) take
// any table that iterates (key, size) pairs, exposes key_type and has
// find(): a decoded FlowTable or a GroupTable.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "packet/keys.h"

namespace coco::query {

// A decoded full-key table: what every sketch's Decode() returns.
template <typename Key>
using FlowTable = std::unordered_map<Key, uint64_t>;

// The result of a GROUP BY: one (key, summed size) entry per group, stored
// contiguously in first-insertion order and found through a power-of-two
// array of uint32_t entry positions (load <= 1/2, linear probing on
// Key::Hash()). Groups are never erased. Iterators and pointers to entries
// stay valid until the next Add or reserve.
template <typename Key>
class GroupTable {
 public:
  using key_type = Key;
  using mapped_type = uint64_t;
  using value_type = std::pair<Key, uint64_t>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  // Room for n groups without growing.
  void reserve(size_t n) {
    entries_.reserve(n);
    if (2 * n > slots_.size()) Rehash(std::bit_ceil(2 * n));
  }

  // SUM: adds `size` to key's group, appending the group if it is new.
  void Add(const Key& key, uint64_t size) {
    if (2 * (entries_.size() + 1) > slots_.size()) {
      Rehash(std::max(kMinSlots, 2 * slots_.size()));
    }
    uint32_t& slot = slots_[SlotOf(key)];
    if (slot == kEmpty) {
      slot = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back(key, size);
    } else {
      entries_[slot].second += size;
    }
  }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const_iterator find(const Key& key) const {
    if (slots_.empty()) return end();
    const uint32_t index = slots_[SlotOf(key)];
    return index == kEmpty ? end() : begin() + index;
  }
  size_t count(const Key& key) const { return find(key) != end(); }
  const uint64_t& at(const Key& key) const {
    const auto it = find(key);
    if (it == end()) throw std::out_of_range("GroupTable::at: absent key");
    return it->second;
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kMinSlots = 16;

  // The slot holding key's entry position, or the empty slot that ends its
  // probe. Some slot is always empty, because load <= 1/2.
  size_t SlotOf(const Key& key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(key.Hash()) & mask;
    while (slots_[i] != kEmpty && !(entries_[slots_[i]].first == key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Rehash(size_t slot_count) {
    // Entry positions must stay below kEmpty.
    COCO_CHECK(slot_count <= (size_t{1} << 32), "group table too large");
    slots_.assign(slot_count, kEmpty);
    const size_t mask = slot_count - 1;
    for (size_t e = 0; e < entries_.size(); ++e) {
      size_t i = static_cast<size_t>(entries_[e].first.Hash()) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(e);
    }
  }

  std::vector<value_type> entries_;
  std::vector<uint32_t> slots_;
};

// GROUP BY g(k_F) SUM(Size): `Spec` is any mapping exposing
// Apply(Key) -> partial key (keys::TupleKeySpec, keys::PrefixSpec,
// keys::V6KeySpec, ...); the output key type follows the spec. Groups come
// out in the order the table first produces them.
template <typename Key, typename Spec>
auto Aggregate(const FlowTable<Key>& table, const Spec& spec) {
  using OutKey = decltype(spec.Apply(std::declval<const Key&>()));
  GroupTable<OutKey> out;
  out.reserve(table.size());
  for (const auto& [key, size] : table) out.Add(spec.Apply(key), size);
  return out;
}

// |a - b| per key over the union of key sets — the heavy-change signal.
template <typename Table>
GroupTable<typename Table::key_type> AbsDiff(const Table& a, const Table& b) {
  GroupTable<typename Table::key_type> out;
  out.reserve(a.size() + b.size());
  for (const auto& [key, va] : a) {
    const auto it = b.find(key);
    const uint64_t vb = it == b.end() ? 0 : it->second;
    out.Add(key, va > vb ? va - vb : vb - va);
  }
  for (const auto& [key, vb] : b) {
    if (a.find(key) == a.end()) out.Add(key, vb);
  }
  return out;
}

// Deterministic total order on keys: length, then bytes, then (for DynKeys)
// the significant bit count. Used to break size ties so sorted output does
// not depend on table iteration order.
template <typename Key>
bool KeyOrderLess(const Key& a, const Key& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  if (a.size() != 0) {
    const int c = std::memcmp(a.data(), b.data(), a.size());
    if (c != 0) return c < 0;
  }
  if constexpr (requires { a.bits; }) return a.bits < b.bits;
  return false;
}

// The n largest entries of a table with size >= min_size, as (size, key)
// pairs in result order: size descending, equal sizes by key
// (KeyOrderLess). The order is total, so output is stable across runs and
// platforms. Bounded top-k: a heap of at most n entries whose front is the
// worst kept one; a candidate smaller than it is rejected by one size
// compare, and keys are compared only on a size tie. Only pointers into the
// table are moved, never keys; they stay valid while the table is
// unmodified.
template <typename Table>
std::vector<std::pair<uint64_t, const typename Table::key_type*>> TopEntries(
    const Table& table, size_t n, uint64_t min_size = 0) {
  std::vector<std::pair<uint64_t, const typename Table::key_type*>> heap;
  if (n == 0) return heap;
  heap.reserve(std::min(n, table.size()));
  const auto before = [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return KeyOrderLess(*a.second, *b.second);
  };
  for (const auto& [key, size] : table) {
    if (size < min_size) continue;
    if (heap.size() < n) {
      heap.emplace_back(size, &key);
      std::push_heap(heap.begin(), heap.end(), before);
      continue;
    }
    const auto& [worst_size, worst_key] = heap.front();
    if (size < worst_size ||
        (size == worst_size && !KeyOrderLess(key, *worst_key))) {
      continue;
    }
    std::pop_heap(heap.begin(), heap.end(), before);
    heap.back() = {size, &key};
    std::push_heap(heap.begin(), heap.end(), before);
  }
  std::sort_heap(heap.begin(), heap.end(), before);
  return heap;
}

// Rows of a table sorted by size descending, truncated to n — the
// human-readable query result the examples print. Equal sizes are ordered
// by key (KeyOrderLess), so output is stable across runs and platforms.
template <typename Table>
std::vector<std::pair<typename Table::key_type, uint64_t>> TopRows(
    const Table& table, size_t n) {
  const auto top = TopEntries(table, n);
  std::vector<std::pair<typename Table::key_type, uint64_t>> rows;
  rows.reserve(top.size());
  for (const auto& [size, key] : top) rows.emplace_back(*key, size);
  return rows;
}

// Keys at or above a threshold — the reported set for HH / HC tasks.
template <typename Table>
FlowTable<typename Table::key_type> FilterThreshold(const Table& table,
                                                    uint64_t threshold) {
  FlowTable<typename Table::key_type> out;
  for (const auto& [key, size] : table) {
    if (size >= threshold) out.emplace(key, size);
  }
  return out;
}

}  // namespace coco::query
