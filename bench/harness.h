// Shared experiment harness for the per-figure bench binaries.
//
// Encapsulates the §7.1 experimental setup: a solution is "one algorithm
// configured to answer N partial keys within a total memory budget".
// CocoSketch and USS deploy ONE full-key sketch and aggregate; every
// single-key baseline deploys one sketch per key, splitting the budget —
// exactly the paper's arrangement.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"
#include "keys/key_spec.h"
#include "metrics/accuracy.h"
#include "metrics/perf.h"
#include "query/evaluation.h"
#include "query/flow_table.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/elastic.h"
#include "sketch/space_saving.h"
#include "sketch/univmon.h"
#include "sketch/uss.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco::bench {

// A measurement solution: feed packets, then read per-partial-key estimate
// tables. `reset` restores the empty state (used for repeated throughput
// trials).
struct Solution {
  std::string name;
  std::function<void(const Packet&)> update;
  std::function<query::FlowTable<DynKey>(size_t spec_index)> table;
  std::function<void()> reset;
};

// Number of packets for the accuracy experiments; override via the
// COCO_BENCH_PACKETS environment variable to trade time for fidelity.
inline size_t BenchPackets(size_t fallback = 1'000'000) {
  if (const char* env = std::getenv("COCO_BENCH_PACKETS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

// ---- Solution factories ---------------------------------------------------

// A decoded table as the FlowTable that the query front-end and the
// CocoSketch family share: a paper baseline's std::unordered_map decode is
// copied, a FlowTable passes through.
template <typename Map>
query::FlowTable<typename Map::key_type> ToFlowTable(Map decoded) {
  if constexpr (std::is_same_v<Map, query::FlowTable<typename Map::key_type>>) {
    return decoded;
  } else {
    return {decoded.begin(), decoded.end()};
  }
}

// Full-key solution: ONE SketchT<FiveTuple> (CocoSketch or a variant, USS)
// built as SketchT(memory, args...). Every partial key is a GROUP BY of its
// decode, which is cached until the next update or reset.
template <typename SketchT, typename... Args>
Solution MakeFullKey(std::string name, size_t memory,
                     std::vector<keys::TupleKeySpec> specs, Args... args) {
  auto sketch = std::make_shared<SketchT>(memory, args...);
  auto cache = std::make_shared<query::FlowTable<FiveTuple>>();
  auto specs_ptr =
      std::make_shared<std::vector<keys::TupleKeySpec>>(std::move(specs));
  return {
      std::move(name),
      [sketch, cache](const Packet& p) {
        sketch->Update(p.key, p.weight);
        if (!cache->empty()) cache->clear();
      },
      [sketch, cache, specs_ptr](size_t i) {
        if (cache->empty()) *cache = ToFlowTable(sketch->Decode());
        return query::Aggregate(*cache, (*specs_ptr)[i]);
      },
      [sketch, cache] {
        sketch->Clear();
        if (!cache->empty()) cache->clear();
      },
  };
}

inline Solution MakeCoco(size_t memory, std::vector<keys::TupleKeySpec> specs,
                         size_t d = 2, uint64_t seed = 0xc0c0) {
  return MakeFullKey<core::CocoSketch<FiveTuple>>("Ours", memory,
                                                  std::move(specs), d, seed);
}

// Generic per-key baseline: one SketchT<DynKey> per partial key, budget
// split evenly (the paper's single-key-sketch-per-key arrangement).
template <typename SketchT, typename... Args>
Solution MakePerKey(std::string name, size_t total_memory,
                    std::vector<keys::TupleKeySpec> specs, Args... args) {
  auto specs_ptr =
      std::make_shared<std::vector<keys::TupleKeySpec>>(std::move(specs));
  auto sketches = std::make_shared<std::vector<std::unique_ptr<SketchT>>>();
  const size_t per_key = total_memory / specs_ptr->size();
  for (size_t i = 0; i < specs_ptr->size(); ++i) {
    sketches->push_back(std::make_unique<SketchT>(per_key, args...));
  }
  return {
      std::move(name),
      [sketches, specs_ptr](const Packet& p) {
        for (size_t i = 0; i < specs_ptr->size(); ++i) {
          (*sketches)[i]->Update((*specs_ptr)[i].Apply(p.key), p.weight);
        }
      },
      [sketches](size_t i) { return ToFlowTable((*sketches)[i]->Decode()); },
      [sketches] {
        for (auto& s : *sketches) s->Clear();
      },
  };
}

// The full §7.2 baseline roster for heavy hitters over `specs`.
inline std::vector<Solution> MakeHeavyHitterRoster(
    size_t memory, const std::vector<keys::TupleKeySpec>& specs) {
  std::vector<Solution> roster;
  roster.push_back(MakeCoco(memory, specs));
  roster.push_back(MakePerKey<sketch::SpaceSaving<DynKey>>("SS", memory, specs));
  roster.push_back(MakeFullKey<sketch::UnbiasedSpaceSaving<FiveTuple>>(
      "USS", memory, specs));
  roster.push_back(
      MakePerKey<sketch::CHeap<DynKey>>("C-Heap", memory, specs));
  roster.push_back(
      MakePerKey<sketch::CmHeap<DynKey>>("CM-Heap", memory, specs));
  roster.push_back(
      MakePerKey<sketch::ElasticSketch<DynKey>>("Elastic", memory, specs));
  roster.push_back(
      MakePerKey<sketch::UnivMon<DynKey>>("UnivMon", memory, specs));
  return roster;
}

// The heavy-change roster of Fig. 10 and 13(b): Ours, hashed with
// `coco_seed` (each window's sketch gets its own), the sketch+heap family,
// Elastic and UnivMon. SS/USS are left out, as in the paper's figures.
inline std::vector<Solution> MakeHeavyChangeRoster(
    size_t memory, const std::vector<keys::TupleKeySpec>& specs,
    uint64_t coco_seed) {
  std::vector<Solution> roster;
  roster.push_back(MakeCoco(memory, specs, 2, coco_seed));
  roster.push_back(MakePerKey<sketch::CHeap<DynKey>>("C-Heap", memory, specs));
  roster.push_back(
      MakePerKey<sketch::CmHeap<DynKey>>("CM-Heap", memory, specs));
  roster.push_back(
      MakePerKey<sketch::ElasticSketch<DynKey>>("Elastic", memory, specs));
  roster.push_back(
      MakePerKey<sketch::UnivMon<DynKey>>("UnivMon", memory, specs));
  return roster;
}

// ---- Runs -----------------------------------------------------------------

// Per-spec ground truth as the runs below take it: a query::PartialKeyTruth
// or query::ChangeTruth over the specs, or a span over its first specs.
using SpecTruth = std::span<const trace::ExactCounter<DynKey>>;

// Runs `solution` over the trace and scores heavy hitters per spec.
inline std::vector<metrics::Accuracy> RunHeavyHitters(
    Solution& solution, const std::vector<Packet>& trace, SpecTruth truth,
    uint64_t threshold) {
  solution.reset();
  for (const Packet& p : trace) solution.update(p);
  return query::ScoreHeavyHitters(truth, threshold, solution.table);
}

// Runs `before` over the first window and `after` over the second, and
// scores heavy changes per spec.
inline std::vector<metrics::Accuracy> RunHeavyChanges(
    Solution& before, Solution& after, const trace::EpochPair& pair,
    SpecTruth change_truth, uint64_t threshold) {
  before.reset();
  after.reset();
  for (const Packet& p : pair.before) before.update(p);
  for (const Packet& p : pair.after) after.update(p);
  return query::ScoreHeavyChanges(change_truth, threshold, before.table,
                                  after.table);
}

// ---- Output helpers -------------------------------------------------------

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::string& name,
                     const std::vector<double>& values,
                     const char* fmt = " %8.4f") {
  std::printf("%-10s", name.c_str());
  for (double v : values) std::printf(fmt, v);
  std::printf("\n");
}

inline void PrintColumns(const std::string& label,
                         const std::vector<std::string>& cols) {
  std::printf("%-10s", label.c_str());
  for (const auto& c : cols) std::printf(" %8s", c.c_str());
  std::printf("\n");
}

}  // namespace coco::bench
