// Introspection of a sketch's bucket state, computed on demand by the
// Stats() methods of CocoSketch / HwCocoSketch.
//
// Pull-based by design: nothing here touches the update hot path — a
// Stats() call scans the bucket array once (control-plane cost, same order
// as Decode()) and the only per-update bookkeeping the sketches keep for it
// is a plain key-replacement counter. Gauges derived from these feed the
// obs registry via obs/sketch_metrics.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/ops.h"

namespace coco::core {

struct SketchStats {
  size_t arrays = 0;             // d
  size_t buckets_total = 0;      // d * l
  size_t buckets_occupied = 0;   // buckets with value != 0
  double load_factor = 0.0;      // occupied / total
  uint64_t total_value = 0;      // recorded mass (== TotalValue())
  uint32_t min_occupied_value = 0;  // smallest non-zero bucket (0 if empty)
  uint32_t max_bucket_value = 0;
  // Ownership churn: key replacements executed by the update rule. High
  // churn relative to updates means the structure is past saturation and
  // small flows are cycling through buckets.
  uint64_t key_replacements = 0;
  // Update-rule applications and pass-1 misses (packets whose key owned no
  // mapped bucket on arrival). Windowed deltas of these three counters are
  // the inputs to the collision-attack detector (core/attack_monitor.h):
  // honest traffic that misses pass 1 claims empty buckets at the
  // balls-in-bins rate, while crafted colliding keys miss and churn without
  // growing occupancy.
  uint64_t updates = 0;
  uint64_t pass1_misses = 0;
  std::vector<size_t> per_array_occupied;  // one entry per array (d entries)
};

// Shared scan over the SoA counter array both sketch variants use (`values`
// is the flat d*l array, array i occupying [i*l, (i+1)*l)). Each statistic
// is one streaming kernel over the densely packed counters — the SIMD tiers
// process 4-8 counters per step, and since keys live in a separate array
// the scan never touches key bytes at all.
inline SketchStats ComputeBucketStats(simd::Tier tier, const uint32_t* values,
                                      size_t d, size_t l) {
  SketchStats stats;
  const size_t total = d * l;
  stats.arrays = d;
  stats.buckets_total = total;
  stats.per_array_occupied.assign(d, 0);
  for (size_t i = 0; i < d; ++i) {
    stats.per_array_occupied[i] = simd::CountNonZero(tier, values + i * l, l);
    stats.buckets_occupied += stats.per_array_occupied[i];
  }
  stats.total_value = simd::SumU32(tier, values, total);
  stats.max_bucket_value = simd::MaxU32(tier, values, total);
  stats.min_occupied_value = simd::MinNonZeroU32(tier, values, total);
  if (stats.buckets_total != 0) {
    stats.load_factor = static_cast<double>(stats.buckets_occupied) /
                        static_cast<double>(stats.buckets_total);
  }
  return stats;
}

}  // namespace coco::core
