// The accuracy scorer of every experiment (§7.1): heavy hitters and heavy
// changes, scored per partial key by RR / PR / F1 / ARE at one threshold.
// The figure benches (through bench/harness.h or directly) and the
// integration tests all score through the two scorers below.
//
// A scorer takes three things:
//   * the ground truth of each partial key, built once per trace with
//     ExactCounter::Aggregate (PartialKeyTruth, ChangeTruth) and shared by
//     every estimator and memory point scored against it;
//   * the threshold, fixed once per task (HeavyHitterThreshold,
//     HeavyChangeThreshold);
//   * a callable `table_for(i)` returning the estimator's (key, size) table
//     for spec i: a GROUP BY of one full-key decode (GroupedBy), a per-key
//     baseline's own table, an R-HHH level, ...
// Scores come back one per spec, in spec order. The ARE of spec i sums over
// the truth table in its iteration order, so equal inputs give equal bits.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "metrics/accuracy.h"
#include "query/flow_table.h"
#include "trace/ground_truth.h"

namespace coco::query {

// Heavy-hitter threshold: `fraction` of the total traffic (the paper uses
// 1e-4), truncated.
inline uint64_t HeavyHitterThreshold(uint64_t total, double fraction) {
  return static_cast<uint64_t>(fraction * static_cast<double>(total));
}

// Heavy-change threshold: `fraction` of the mean of the two windows' totals.
// The mean is taken in floating point, so an odd combined total keeps its
// half before the product is truncated.
inline uint64_t HeavyChangeThreshold(uint64_t total_before,
                                     uint64_t total_after, double fraction) {
  return static_cast<uint64_t>(
      fraction * 0.5 * static_cast<double>(total_before + total_after));
}

// Ground truth per partial key: truth.Aggregate(specs[i]) for every spec.
template <typename Key, typename Spec>
auto PartialKeyTruth(const trace::ExactCounter<Key>& truth,
                     const std::vector<Spec>& specs) {
  std::vector<decltype(truth.Aggregate(std::declval<const Spec&>()))> out;
  out.reserve(specs.size());
  for (const Spec& spec : specs) out.push_back(truth.Aggregate(spec));
  return out;
}

// Heavy-change ground truth per partial key: |before - after| of every
// partial key whose size changed between the two windows.
template <typename Key, typename Spec>
auto ChangeTruth(const trace::ExactCounter<Key>& before,
                 const trace::ExactCounter<Key>& after,
                 const std::vector<Spec>& specs) {
  std::vector<decltype(before.Aggregate(std::declval<const Spec&>()))> out;
  out.reserve(specs.size());
  for (const Spec& spec : specs) {
    auto& changes = out.emplace_back();
    for (const auto& [key, diff] :
         before.Aggregate(spec).HeavyChanges(after.Aggregate(spec), 1)) {
      changes.Add(key, diff);
    }
  }
  return out;
}

// table_for over one decoded full-key table (a FlowTable, or a baseline's
// std::unordered_map decode): spec i's table is its GROUP BY specs[i]. The
// callable owns the table and refers to `specs`, which must outlive it.
template <typename Table, typename Spec>
auto GroupedBy(Table decoded, const std::vector<Spec>& specs) {
  return [decoded = std::move(decoded), &specs](size_t i) {
    return Aggregate(decoded, specs[i]);
  };
}

// Heavy hitters: scores table_for(i) against truth[i] for every spec i.
// `truth` is any indexable range of ExactCounters (a PartialKeyTruth, or a
// std::span over its first specs).
template <typename Truth, typename TableFor>
std::vector<metrics::Accuracy> ScoreHeavyHitters(const Truth& truth,
                                                 uint64_t threshold,
                                                 TableFor&& table_for) {
  std::vector<metrics::Accuracy> scores;
  scores.reserve(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    scores.push_back(
        metrics::ScoreThreshold(table_for(i), truth[i].counts(), threshold));
  }
  return scores;
}

// Heavy changes: the estimate for spec i is |before_for(i) - after_for(i)|
// over the union of keys, scored against change_truth[i] (a ChangeTruth).
template <typename Truth, typename BeforeFor, typename AfterFor>
std::vector<metrics::Accuracy> ScoreHeavyChanges(const Truth& change_truth,
                                                 uint64_t threshold,
                                                 BeforeFor&& before_for,
                                                 AfterFor&& after_for) {
  return ScoreHeavyHitters(change_truth, threshold, [&](size_t i) {
    return AbsDiff(before_for(i), after_for(i));
  });
}

}  // namespace coco::query
