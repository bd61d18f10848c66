// google-benchmark microbenchmarks: per-update latency of every sketch in
// the library on a realistic packet mix. Complements the figure benches with
// framework-quality timing (warmup, iteration control, statistics).
//
// Before the google-benchmark suite runs, main() prints the update table
// (per-packet vs batched vs the PR 1 batched path at the paper's 500 KiB /
// d=2 operating point) and the layer table (scalar vs AVX2 per layer at
// 64 KiB, 512 KiB and 8 MiB), all engines interleaved in ONE
// process so machine drift between invocations cancels, and writes
// BENCH_micro_update.json for scripts/bench_compare.sh. Pass
// --benchmark_filter='^$' to run only the tables.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/bytes.h"
#include "common/cycle_clock.h"
#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"
#include "hash/multihash.h"
#include "keys/v6.h"
#include "simd/dispatch.h"
#include "simd/ops.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/elastic.h"
#include "sketch/space_saving.h"
#include "sketch/univmon.h"
#include "sketch/uss.h"
#include "trace/generators.h"

namespace coco {
namespace {

const std::vector<Packet>& SharedTrace() {
  static const std::vector<Packet> trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(200'000));
  return trace;
}

// Streams the shared trace through `sketch`, one update per iteration.
template <typename SketchT>
void RunUpdates(benchmark::State& state, SketchT& sketch) {
  const auto& trace = SharedTrace();
  size_t i = 0;
  for (auto _ : state) {
    const Packet& p = trace[i];
    sketch.Update(p.key, p.weight);
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}

// Streams the shared trace through `sketch.UpdateBatch` in chunks of
// `batch` packets; one iteration = one batch, items/sec stays comparable
// with RunUpdates via SetItemsProcessed.
template <typename SketchT>
void RunBatchedUpdates(benchmark::State& state, SketchT& sketch,
                       size_t batch) {
  const auto& trace = SharedTrace();
  size_t i = 0;
  uint64_t items = 0;
  for (auto _ : state) {
    const size_t n = std::min(batch, trace.size() - i);
    sketch.UpdateBatch(trace.data() + i, n);
    items += n;
    i += n;
    if (i == trace.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(items));
}

// Memory sizes chosen to span the cache hierarchy: 24 KiB sits in L1,
// 192 KiB in L2, 500 KiB (the paper's CPU config) in L2/LLC, 4 MiB in
// LLC/DRAM — where the prefetch pipeline pays off.
const std::vector<int64_t> kDs = {1, 2, 3, 4};
const std::vector<int64_t> kMemKiB = {24, 192, 500, 4096};

void BM_CocoSketchUpdateScalar(benchmark::State& state) {
  core::CocoSketch<FiveTuple> sketch(KiB(state.range(1)), state.range(0));
  RunUpdates(state, sketch);
}
BENCHMARK(BM_CocoSketchUpdateScalar)->ArgsProduct({kDs, kMemKiB});

void BM_CocoSketchUpdateBatched(benchmark::State& state) {
  core::CocoSketch<FiveTuple> sketch(KiB(state.range(1)), state.range(0));
  RunBatchedUpdates(state, sketch,
                    core::CocoSketch<FiveTuple>::kBatchWindow);
}
BENCHMARK(BM_CocoSketchUpdateBatched)->ArgsProduct({kDs, kMemKiB});

// Batch-size sweep at the paper's 500 KiB / d=2 config: shows where the
// prefetch pipeline saturates (and that tiny batches degrade to scalar).
void BM_CocoSketchBatchSweep(benchmark::State& state) {
  core::CocoSketch<FiveTuple> sketch(KiB(500), 2);
  RunBatchedUpdates(state, sketch, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_CocoSketchBatchSweep)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_HwCocoSketchUpdate(benchmark::State& state) {
  core::HwCocoSketch<FiveTuple> sketch(KiB(500), state.range(0));
  RunUpdates(state, sketch);
}
BENCHMARK(BM_HwCocoSketchUpdate)->Arg(1)->Arg(2);

void BM_HwCocoSketchUpdateBatched(benchmark::State& state) {
  core::HwCocoSketch<FiveTuple> sketch(KiB(500), state.range(0));
  RunBatchedUpdates(state, sketch,
                    core::HwCocoSketch<FiveTuple>::kBatchWindow);
}
BENCHMARK(BM_HwCocoSketchUpdateBatched)->Arg(1)->Arg(2);

void BM_HwCocoSketchP4Update(benchmark::State& state) {
  core::HwCocoSketch<FiveTuple> sketch(KiB(500), 2,
                                       core::DivisionMode::kApproximate);
  RunUpdates(state, sketch);
}
BENCHMARK(BM_HwCocoSketchP4Update);

void BM_CountMinUpdate(benchmark::State& state) {
  sketch::CountMinSketch<FiveTuple> sketch(KiB(500));
  RunUpdates(state, sketch);
}
BENCHMARK(BM_CountMinUpdate);

void BM_CmHeapUpdate(benchmark::State& state) {
  sketch::CmHeap<FiveTuple> sketch(KiB(500));
  RunUpdates(state, sketch);
}
BENCHMARK(BM_CmHeapUpdate);

void BM_CountSketchUpdate(benchmark::State& state) {
  sketch::CountSketch<FiveTuple> sketch(KiB(500));
  RunUpdates(state, sketch);
}
BENCHMARK(BM_CountSketchUpdate);

void BM_SpaceSavingUpdate(benchmark::State& state) {
  sketch::SpaceSaving<FiveTuple> sketch(KiB(500));
  RunUpdates(state, sketch);
}
BENCHMARK(BM_SpaceSavingUpdate);

void BM_UssUpdate(benchmark::State& state) {
  sketch::UnbiasedSpaceSaving<FiveTuple> sketch(KiB(500));
  RunUpdates(state, sketch);
}
BENCHMARK(BM_UssUpdate);

void BM_ElasticUpdate(benchmark::State& state) {
  sketch::ElasticSketch<FiveTuple> sketch(KiB(500));
  RunUpdates(state, sketch);
}
BENCHMARK(BM_ElasticUpdate);

void BM_UnivMonUpdate(benchmark::State& state) {
  sketch::UnivMon<FiveTuple> sketch(KiB(500));
  RunUpdates(state, sketch);
}
BENCHMARK(BM_UnivMonUpdate);

void BM_CocoSketchDecode(benchmark::State& state) {
  core::CocoSketch<FiveTuple> sketch(KiB(500), 2);
  for (const Packet& p : SharedTrace()) sketch.Update(p.key, p.weight);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Decode());
  }
}
BENCHMARK(BM_CocoSketchDecode);

// ---- Update table -----------------------------------------------------------

// The PR 1 batched path, preserved verbatim as an in-process baseline:
// array-of-structs buckets, operator== (memcmp) key compares, the same
// MultiHash / 32-packet window / prefetch / §4.1 update rule the library
// shipped before the word-addressable SoA layout replaced it. Keeping it in the binary means the "≥1.3× over the PR 1 batched
// path" bar is measured engine-vs-engine in one process — cross-invocation
// numbers on a shared box drift by ±30%, interleaved ones don't.
template <typename Key>
class Pr1ReferenceSketch {
 public:
  static constexpr size_t kMaxD = 8;
  static constexpr size_t kBatchWindow = 32;

  Pr1ReferenceSketch(size_t memory_bytes, size_t d, uint64_t seed = 0xc0c0)
      : d_(d),
        l_(memory_bytes / (d * (Key::kSize + sizeof(uint32_t)))),
        hash_(seed, d_, l_ == 0 ? 1 : l_),
        rng_(seed ^ 0x5eedf00d),
        buckets_(d_ * l_) {}

  template <typename Record>
  void UpdateBatch(const Record* records, size_t count) {
    size_t idx[kBatchWindow][kMaxD];
    for (size_t base = 0; base < count; base += kBatchWindow) {
      const size_t n =
          count - base < kBatchWindow ? count - base : kBatchWindow;
      for (size_t j = 0; j < n; ++j) {
        const Key& key = records[base + j].key;
        uint32_t slot[kMaxD];
        hash_.Slots(key.data(), key.size(), slot);
        for (size_t i = 0; i < d_; ++i) {
          idx[j][i] = i * l_ + slot[i];
          __builtin_prefetch(&buckets_[idx[j][i]], 1, 3);
        }
      }
      for (size_t j = 0; j < n; ++j) {
        UpdateAt(idx[j], records[base + j].key, records[base + j].weight);
      }
    }
  }

  uint64_t TotalValue() const {
    uint64_t total = 0;
    for (const Bucket& b : buckets_) total += b.value;
    return total;
  }

 private:
  struct Bucket {
    Key key{};
    uint32_t value = 0;
  };

  // Verbatim PR 1 UpdateAt, including the per-update bookkeeping the real
  // path carried (delta-tracking check, replacement counter) — leaving
  // those out would flatter the new code's speedup.
  void MarkDirty(size_t i) {
    if (!dirty_.empty()) dirty_[i] = 1;
  }

  void UpdateAt(const size_t* idx, const Key& key, uint32_t weight) {
    for (size_t i = 0; i < d_; ++i) {
      Bucket& b = buckets_[idx[i]];
      if (b.value != 0 && b.key == key) {
        b.value += weight;
        MarkDirty(idx[i]);
        return;
      }
    }
    size_t chosen = idx[0];
    size_t ties = 1;
    for (size_t i = 1; i < d_; ++i) {
      const uint32_t v = buckets_[idx[i]].value;
      const uint32_t best = buckets_[chosen].value;
      if (v < best) {
        chosen = idx[i];
        ties = 1;
      } else if (v == best) {
        ++ties;
        if (rng_.NextBelow(ties) == 0) chosen = idx[i];
      }
    }
    Bucket& b = buckets_[chosen];
    b.value += weight;
    MarkDirty(chosen);
    if (static_cast<uint64_t>(rng_.Next32()) * b.value <
        (static_cast<uint64_t>(weight) << 32)) {
      b.key = key;
      ++key_replacements_;
    }
  }

  size_t d_;
  size_t l_;
  hash::MultiHash hash_;
  Rng rng_;
  std::vector<Bucket> buckets_;
  std::vector<uint8_t> dirty_;  // empty = delta tracking off, as in PR 1
  uint64_t key_replacements_ = 0;
};

// One timed full-trace pass on a persistent engine.
template <typename RunFn>
double TimeOnePass(size_t packets, RunFn&& run) {
  Stopwatch watch;
  run();
  return watch.ElapsedSeconds() * 1e9 / static_cast<double>(packets);
}

// The repetitions of both tables: best-of-N, every engine touched in every
// repetition.
constexpr int kReps = 15;

struct TableRow {
  std::string name;
  std::string json_key;
};

// Steady-state throughput, best-of-N with all engines interleaved per
// repetition. Two methodology choices that matter:
//
//   * Engines persist across reps (one untimed warmup pass first), so every
//     rep measures the saturated sketch a continuously-running deployment
//     operates — pass 1 match rates at equilibrium. Fresh-sketch cold
//     passes spend their time in the replacement path, where the layouts
//     barely differ, and under-report the probe-path speedup.
//   * Every rep touches every engine back to back, so CPU frequency and
//     neighbor-load drift (±30% across invocations on a shared box) hits
//     all engines equally and cancels in the ratios.
void RunUpdateTable(bench::BenchJson* json) {
  const auto& trace = SharedTrace();
  const size_t mem = KiB(500);
  const size_t d = 2;

  // The update path has no SIMD tier, so one batched row covers every host
  // (the layer table below compares the tiers where they differ).
  const std::vector<TableRow> rows = {
      {"per-packet", "per_packet"},
      {"batched PR1 reference (AoS)", "batched_pr1_ref"},
      {"batched", "batched"},
  };

  core::CocoSketch<FiveTuple> per_packet(mem, d);
  Pr1ReferenceSketch<FiveTuple> pr1_ref(mem, d);
  core::CocoSketch<FiveTuple> batched(mem, d);
  // Warmup to equilibrium occupancy (untimed).
  for (const Packet& p : trace) per_packet.Update(p.key, p.weight);
  pr1_ref.UpdateBatch(trace.data(), trace.size());
  batched.UpdateBatch(trace.data(), trace.size());

  std::vector<double> best(rows.size(), 1e18);
  for (int rep = 0; rep < kReps; ++rep) {
    best[0] = std::min(best[0], TimeOnePass(trace.size(), [&] {
      for (const Packet& p : trace) per_packet.Update(p.key, p.weight);
    }));
    best[1] = std::min(best[1], TimeOnePass(trace.size(), [&] {
      pr1_ref.UpdateBatch(trace.data(), trace.size());
    }));
    best[2] = std::min(best[2], TimeOnePass(trace.size(), [&] {
      batched.UpdateBatch(trace.data(), trace.size());
    }));
    benchmark::DoNotOptimize(pr1_ref.TotalValue());
  }

  const double ref_ns = best[1];  // PR 1 batched reference
  std::printf(
      "\n=== Update table: CocoSketch<FiveTuple>, %zu pkts, 500 KiB, "
      "d=%zu, best of %d interleaved ===\n",
      trace.size(), d, kReps);
  std::printf("%-30s %10s %8s %12s\n", "engine", "ns/pkt", "Mpps",
              "vs PR1 ref");
  for (size_t r = 0; r < rows.size(); ++r) {
    const double mpps = 1e3 / best[r];
    const double speedup = ref_ns / best[r];
    std::printf("%-30s %10.2f %8.2f %11.2fx\n", rows[r].name.c_str(),
                best[r], mpps, speedup);
    json->Metric("micro_update/" + rows[r].json_key + "/mpps", mpps);
    json->Metric("micro_update/" + rows[r].json_key + "/speedup_vs_pr1",
                 speedup);
  }
  std::printf("headline: batched is %.2fx the PR 1 batched path "
              "(bar: 1.30x)\n",
              ref_ns / best[2]);
}

// ---- Layer table: scalar vs AVX2 per kernel-bearing layer -------------------

// UpdateBatch accepts any record with .key/.weight.
template <typename Key>
struct KeyedRecord {
  Key key;
  uint32_t weight = 1;
};

// The shared trace re-keyed to 37-byte V6Tuple keys: the same flows (each
// IPv4 address embedded under a fixed /32 prefix) and weights, so the wide
// rows see the narrow rows' traffic.
const std::vector<KeyedRecord<keys::V6Tuple>>& SharedV6Trace() {
  static const std::vector<KeyedRecord<keys::V6Tuple>> trace = [] {
    std::vector<KeyedRecord<keys::V6Tuple>> out;
    out.reserve(SharedTrace().size());
    for (const Packet& p : SharedTrace()) {
      uint8_t src[16] = {}, dst[16] = {};
      StoreBE32(src, 0x20010db8u);
      StoreBE32(src + 12, p.key.src_ip());
      StoreBE32(dst, 0x20010db8u);
      StoreBE32(dst + 12, p.key.dst_ip());
      out.push_back({keys::V6Tuple(src, dst, p.key.src_port(),
                                   p.key.dst_port(), p.key.proto()),
                     p.weight});
    }
    return out;
  }();
  return trace;
}

// One layer at one memory size: a timed pass per host tier over `items`
// units of work (packets or buckets).
struct LayerRow {
  std::string layer;     // printed name
  std::string json_key;  // metric path component
  size_t mem_kib = 0;
  bool per_packet = false;  // rate in Mpps, else in Mbuckets/s
  double items = 0;
  std::vector<std::function<void()>> run;  // one per host tier
  std::vector<double> best_ns;             // per item, per host tier
};

// UpdateBatch and Decode rows for one sketch: ONE persistent, warmed
// instance that each pass switches to the tier it times. State is
// byte-identical across tiers, so both tiers see the same saturated sketch,
// and they share its memory placement — separate per-tier instances were
// seen to differ by up to 30% running identical code.
template <typename Sketch, typename Record>
void AddSketchRows(const std::string& layer, const std::string& json_key,
                   size_t mem_kib, const std::vector<Record>& trace,
                   std::shared_ptr<Sketch> sk, std::vector<LayerRow>* rows) {
  sk->UpdateBatch(trace.data(), trace.size());  // warm to steady state
  LayerRow update{layer + ".UpdateBatch", json_key + "_update", mem_kib,
                  true, static_cast<double>(trace.size()), {}, {}};
  LayerRow decode{layer + ".Decode", json_key + "_decode", mem_kib, false,
                  static_cast<double>(sk->Buckets().size()), {}, {}};
  for (simd::Tier t : simd::HostTiers()) {
    update.run.push_back([sk, t, &trace] {
      sk->SetSimdTier(t);
      sk->UpdateBatch(trace.data(), trace.size());
    });
    decode.run.push_back([sk, t] {
      sk->SetSimdTier(t);
      benchmark::DoNotOptimize(sk->Decode());
    });
  }
  rows->push_back(std::move(update));
  rows->push_back(std::move(decode));
}

// One row per counter scan over a warmed sketch's counter array. A pass
// repeats the scan until it has covered ~4M counters, so even the 64 KiB
// array times well above the clock's resolution.
void AddScanRows(size_t mem_kib,
                 std::shared_ptr<core::CocoSketch<FiveTuple>> sk,
                 std::vector<LayerRow>* rows) {
  const uint32_t* v = sk->Buckets().values();
  const size_t n = sk->Buckets().size();
  const size_t repeat = std::max<size_t>(1, (size_t{1} << 22) / n);
  const auto add = [&](const char* name, const char* key, auto scan) {
    LayerRow row{std::string("scan.") + name, std::string("scan_") + key,
                 mem_kib, false, static_cast<double>(n * repeat), {}, {}};
    for (simd::Tier t : simd::HostTiers()) {
      row.run.push_back([sk, v, n, repeat, t, scan] {
        for (size_t k = 0; k < repeat; ++k) {
          benchmark::DoNotOptimize(scan(t, v, n));
          benchmark::ClobberMemory();
        }
      });
    }
    rows->push_back(std::move(row));
  };
  add("SumU32", "sum", [](simd::Tier t, const uint32_t* p, size_t m) {
    return simd::SumU32(t, p, m);
  });
  add("CountNonZero", "count_nonzero",
      [](simd::Tier t, const uint32_t* p, size_t m) {
        return simd::CountNonZero(t, p, m);
      });
  add("MaxU32", "max", [](simd::Tier t, const uint32_t* p, size_t m) {
    return simd::MaxU32(t, p, m);
  });
  add("MinNonZeroU32", "min_nonzero",
      [](simd::Tier t, const uint32_t* p, size_t m) {
        return simd::MinNonZeroU32(t, p, m);
      });
  // The occupied-bucket walk Decode and MergeAll run, without the table.
  add("ForEachNonZero", "for_each_nonzero",
      [](simd::Tier t, const uint32_t* p, size_t m) {
        size_t occupied = 0;
        simd::ForEachNonZero(t, p, m, [&](size_t i) { occupied += i; });
        return occupied;
      });
}

// The layer table that decides which AVX2 kernels stay: every row's AVX2
// column must beat scalar by >= 10% somewhere for its kernel to earn its
// code. Same methodology as the update table: persistent warmed engines,
// best of kReps, every row's tiers timed back to back in each repetition,
// with the tier order alternating between repetitions. The UpdateBatch
// rows run identical code on both tiers (the update rule has no tier), so
// their spread is the table's noise floor, printed under it.
void RunLayerTable(bench::BenchJson* json) {
  const auto& trace = SharedTrace();
  const auto& v6_trace = SharedV6Trace();
  const std::vector<simd::Tier> tiers = simd::HostTiers();
  constexpr size_t d = 2;
  constexpr uint64_t seed = 0xc0c0;
  using core::CocoSketch;
  using core::HwCocoSketch;
  using keys::V6Tuple;

  std::vector<LayerRow> rows;
  for (size_t mem_kib : {size_t{64}, size_t{512}, size_t{8192}}) {
    const size_t mem = KiB(mem_kib);
    auto coco5 = std::make_shared<CocoSketch<FiveTuple>>(mem, d, seed);
    AddSketchRows("CocoSketch<FiveTuple>", "coco_fivetuple", mem_kib, trace,
                  coco5, &rows);
    AddSketchRows("CocoSketch<V6Tuple>", "coco_v6tuple", mem_kib, v6_trace,
                  std::make_shared<CocoSketch<V6Tuple>>(mem, d, seed), &rows);
    AddSketchRows("HwCocoSketch<FiveTuple>", "hw_fivetuple", mem_kib, trace,
                  std::make_shared<HwCocoSketch<FiveTuple>>(
                      mem, d, core::DivisionMode::kExact, seed),
                  &rows);
    AddSketchRows("HwCocoSketch<V6Tuple>", "hw_v6tuple", mem_kib, v6_trace,
                  std::make_shared<HwCocoSketch<V6Tuple>>(
                      mem, d, core::DivisionMode::kExact, seed),
                  &rows);
    AddScanRows(mem_kib, coco5, &rows);
  }

  for (LayerRow& row : rows) row.best_ns.assign(tiers.size(), 1e18);
  for (int rep = 0; rep < kReps; ++rep) {
    for (LayerRow& row : rows) {
      for (size_t k = 0; k < tiers.size(); ++k) {
        const size_t t = rep % 2 == 0 ? k : tiers.size() - 1 - k;
        row.best_ns[t] = std::min(
            row.best_ns[t],
            TimeOnePass(static_cast<size_t>(row.items), row.run[t]));
      }
    }
  }

  std::printf(
      "\n=== Layer table: %zu pkts (FiveTuple and V6Tuple keys), d=%zu, "
      "best of %d interleaved ===\n",
      trace.size(), d, kReps);
  std::printf("%-34s %8s", "layer", "memory");
  for (simd::Tier t : tiers) std::printf(" %15s", simd::TierName(t));
  std::printf(" %12s\n", "avx2/scalar");
  double noise_min = 1e18;
  double noise_max = 0;
  for (const LayerRow& row : rows) {
    std::printf("%-34s %5zuKiB", row.layer.c_str(), row.mem_kib);
    const std::string base = "micro_update/layer/" + row.json_key + "/" +
                             std::to_string(row.mem_kib) + "KiB/";
    for (size_t t = 0; t < tiers.size(); ++t) {
      const double rate = 1e3 / row.best_ns[t];
      std::printf(" %8.1f %-6s", rate, row.per_packet ? "Mpps" : "Mbkt/s");
      json->Metric(base + simd::TierName(tiers[t]) +
                       (row.per_packet ? "_mpps" : "_mbuckets_per_s"),
                   rate);
    }
    if (tiers.size() > 1) {
      const double speedup = row.best_ns[0] / row.best_ns[1];
      std::printf(" %11.2fx", speedup);
      json->Metric(base + "avx2_speedup", speedup);
      if (row.per_packet) {
        noise_min = std::min(noise_min, speedup);
        noise_max = std::max(noise_max, speedup);
      }
    }
    std::printf("\n");
  }
  if (tiers.size() > 1) {
    std::printf("noise floor (UpdateBatch rows, identical code on both "
                "tiers): %.2fx-%.2fx\n",
                noise_min, noise_max);
    json->Metric("micro_update/layer/noise_floor_min", noise_min);
    json->Metric("micro_update/layer/noise_floor_max", noise_max);
  }
}

}  // namespace
}  // namespace coco

#ifndef COCO_BUILD_TYPE
#define COCO_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* json_path = std::getenv("COCO_BENCH_JSON");
  coco::bench::BenchJson json("micro_update");
  json.Context("host_tier",
               coco::simd::TierName(coco::simd::DetectTier()));
  json.Context("nproc", std::to_string(std::thread::hardware_concurrency()));
  json.Context("compiler", __VERSION__);
  json.Context("build_type", COCO_BUILD_TYPE);
  json.Context("packets", std::to_string(coco::SharedTrace().size()));
  json.Context("update_table", "500KiB_d2_FiveTuple");
  json.Context("layer_table", "64KiB_512KiB_8MiB_d2_FiveTuple_V6Tuple");
  std::printf("host tier: %s\n",
              coco::simd::TierName(coco::simd::DetectTier()));
  coco::RunUpdateTable(&json);
  coco::RunLayerTable(&json);
  json.Write(json_path ? json_path : "BENCH_micro_update.json");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
