// Partial-key query front-end (§4.3, steps 3-4 of Fig. 1).
//
// The data plane is decoded once into a (FullKey, Size) FlowTable; any
// partial key is then answered by the relational aggregation
//     SELECT g(k_F), SUM(Size) FROM table GROUP BY g(k_F)
// implemented here as Aggregate(), which sums into another FlowTable. Heavy
// changes are the aggregated absolute difference of two windows' tables.
//
// The read-side helpers (AbsDiff, TopEntries, TopRows, FilterThreshold) take
// any table that iterates (key, size) pairs, exposes key_type and has
// find(): a FlowTable or a std::unordered_map.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flow_table.h"
#include "packet/keys.h"

namespace coco::query {

// The decoded full-key table and the GROUP BY result: one flat
// open-addressing (key, size) table (common/flow_table.h).
using coco::FlowTable;

// GROUP BY g(k_F) SUM(Size) over any (key, size) table (a decoded
// FlowTable, or ExactCounter::counts()): `Spec` is any mapping exposing
// Apply(Key) -> partial key, normally a keys::KeySpec over the table's full
// key (TupleKeySpec, PrefixSpec, PrefixPairSpec, V6KeySpec); the output key
// type follows the spec. Groups come out in the order the table first
// produces them.
template <typename Table, typename Spec>
auto Aggregate(const Table& table, const Spec& spec) {
  using Key = typename Table::key_type;
  using OutKey = decltype(spec.Apply(std::declval<const Key&>()));
  FlowTable<OutKey> out;
  out.reserve(table.size());
  for (const auto& [key, size] : table) out.Add(spec.Apply(key), size);
  return out;
}

// |a - b| per key over the union of key sets — the heavy-change signal.
template <typename Table>
FlowTable<typename Table::key_type> AbsDiff(const Table& a, const Table& b) {
  FlowTable<typename Table::key_type> out;
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
std::unordered_map<typename Table::key_type, uint64_t> FilterThreshold(
    const Table& table, uint64_t threshold) {
  std::unordered_map<typename Table::key_type, uint64_t> out;
  for (const auto& [key, size] : table) {
    if (size >= threshold) out.emplace(key, size);
  }
  return out;
}

}  // namespace coco::query
