// State-equality tests for the batched update fast path: UpdateBatch must be
// packet-for-packet identical to scalar Update() — same buckets, same RNG
// consumption order — so the sketch state after any batch segmentation of a
// trace is byte-identical to the scalar run (ISSUE 1 acceptance criterion).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"
#include "ovs/epoch.h"
#include "ovs/steering.h"
#include "trace/generators.h"

namespace coco::core {
namespace {

const std::vector<Packet>& TestTrace() {
  static const std::vector<Packet> trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(60'000));
  return trace;
}

// Feeds `trace` to `sketch` in consecutive chunks cycling through
// `chunk_sizes` — exercises full windows, ragged tails, and sub-window
// batches.
template <typename SketchT>
void FeedInChunks(SketchT& sketch, const std::vector<Packet>& trace,
                  const std::vector<size_t>& chunk_sizes) {
  size_t i = 0, c = 0;
  while (i < trace.size()) {
    const size_t n = std::min(chunk_sizes[c % chunk_sizes.size()],
                              trace.size() - i);
    sketch.UpdateBatch(trace.data() + i, n);
    i += n;
    ++c;
  }
}

TEST(BatchUpdate, CocoStateMatchesScalarAcrossD) {
  const auto& trace = TestTrace();
  for (size_t d : {1, 2, 3, 4}) {
    CocoSketch<FiveTuple> scalar(KiB(64), d, 0xabcd);
    CocoSketch<FiveTuple> batched(KiB(64), d, 0xabcd);
    for (const Packet& p : trace) scalar.Update(p.key, p.weight);
    FeedInChunks(batched, trace, {32});
    EXPECT_EQ(scalar.SerializeState(), batched.SerializeState())
        << "d=" << d;
  }
}

TEST(BatchUpdate, CocoStateMatchesScalarRaggedChunks) {
  const auto& trace = TestTrace();
  CocoSketch<FiveTuple> scalar(KiB(32), 2, 0x777);
  CocoSketch<FiveTuple> batched(KiB(32), 2, 0x777);
  for (const Packet& p : trace) scalar.Update(p.key, p.weight);
  // Mix of sub-window, exact-window, and multi-window chunks, including 1.
  FeedInChunks(batched, trace, {1, 7, 32, 3, 57, 128, 31});
  EXPECT_EQ(scalar.SerializeState(), batched.SerializeState());
}

TEST(BatchUpdate, CocoSpanOverloadAndEmptyBatch) {
  const auto& trace = TestTrace();
  CocoSketch<FiveTuple> a(KiB(16), 2, 0x11);
  CocoSketch<FiveTuple> b(KiB(16), 2, 0x11);
  a.UpdateBatch(std::span<const Packet>(trace.data(), 1000));
  a.UpdateBatch(std::span<const Packet>{});  // no-op
  b.UpdateBatch(trace.data(), 1000);
  EXPECT_EQ(a.SerializeState(), b.SerializeState());
  EXPECT_EQ(a.TotalValue(), b.TotalValue());
}

TEST(BatchUpdate, CocoMassConservedThroughBatches) {
  const auto& trace = TestTrace();
  CocoSketch<FiveTuple> sketch(KiB(16), 3, 0x5);
  uint64_t mass = 0;
  for (const Packet& p : trace) mass += p.weight;
  FeedInChunks(sketch, trace, {32});
  EXPECT_EQ(sketch.TotalValue(), mass);
}

TEST(BatchUpdate, HwStateMatchesScalar) {
  const auto& trace = TestTrace();
  for (auto division : {DivisionMode::kExact, DivisionMode::kApproximate}) {
    HwCocoSketch<FiveTuple> scalar(KiB(64), 2, division, 0xbeef);
    HwCocoSketch<FiveTuple> batched(KiB(64), 2, division, 0xbeef);
    for (const Packet& p : trace) scalar.Update(p.key, p.weight);
    FeedInChunks(batched, trace, {5, 32, 64, 1});
    EXPECT_EQ(scalar.SerializeState(), batched.SerializeState());
  }
}

TEST(BatchUpdate, HwSerializeRestoreRoundTrip) {
  const auto& trace = TestTrace();
  HwCocoSketch<FiveTuple> a(KiB(32), 2, DivisionMode::kExact, 0x9);
  a.UpdateBatch(trace.data(), 10'000);
  HwCocoSketch<FiveTuple> b(KiB(32), 2, DivisionMode::kExact, 0x9);
  ASSERT_TRUE(b.RestoreState(a.SerializeState()));
  EXPECT_EQ(a.SerializeState(), b.SerializeState());
  HwCocoSketch<FiveTuple> wrong_d(KiB(32), 1, DivisionMode::kExact, 0x9);
  EXPECT_FALSE(wrong_d.RestoreState(a.SerializeState()));
}

TEST(BatchUpdate, ShardedByKeyMatchesScalarRouting) {
  // The datapath's RSS stage: scatter each chunk by FlowSteering, then run
  // every shard's group through its batched fast path. Grouping preserves
  // per-shard arrival order, so each shard's state is byte-identical to
  // routing the packets one at a time.
  const auto& trace = TestTrace();
  const ovs::FlowSteering steering(0x42, 3);
  std::vector<CocoSketch<FiveTuple>> scalar, batched;
  for (size_t s = 0; s < 3; ++s) {
    scalar.emplace_back(KiB(32), 2, 0x42);
    batched.emplace_back(KiB(32), 2, 0x42);
  }
  for (const Packet& p : trace) {
    scalar[steering.Shard(p.key)].Update(p.key, p.weight);
  }
  std::vector<std::vector<Packet>> groups(3);
  for (size_t i = 0; i < trace.size(); i += 48) {
    for (auto& g : groups) g.clear();
    for (size_t j = i; j < std::min(i + 48, trace.size()); ++j) {
      groups[steering.Shard(trace[j].key)].push_back(trace[j]);
    }
    for (size_t s = 0; s < 3; ++s) {
      batched[s].UpdateBatch(groups[s].data(), groups[s].size());
    }
  }
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(scalar[s].SerializeState(), batched[s].SerializeState())
        << "shard " << s;
  }
}

TEST(BatchUpdate, ShardedPerShardOverloadMatchesShardUpdateBatch) {
  // A worker's batched drain into its epoch shard is the plain sketch
  // fast path, and the spare swapped in at rotation starts untouched.
  const auto& trace = TestTrace();
  ovs::EpochShard<FiveTuple> shard(KiB(32), 2, 0x31);
  CocoSketch<FiveTuple> plain(KiB(32), 2, 0x31);
  shard.active()->UpdateBatch(trace.data(), 5000);
  plain.UpdateBatch(trace.data(), 5000);
  EXPECT_EQ(shard.active()->SerializeState(), plain.SerializeState());
  ASSERT_TRUE(shard.TryRotate(1, 5000));
  EXPECT_EQ(shard.active()->TotalValue(), 0u);  // untouched spare
  EXPECT_EQ(shard.TakePublished().sketch->SerializeState(),
            plain.SerializeState());
}

TEST(BatchUpdate, QueriesAgreeAfterBatchedIngest) {
  // Sanity beyond byte equality: a tracked heavy flow queries identically
  // through either ingest path.
  const auto& trace = TestTrace();
  CocoSketch<FiveTuple> scalar(KiB(128), 2, 0xd0);
  CocoSketch<FiveTuple> batched(KiB(128), 2, 0xd0);
  for (const Packet& p : trace) scalar.Update(p.key, p.weight);
  FeedInChunks(batched, trace, {32});
  for (size_t i = 0; i < trace.size(); i += 997) {
    EXPECT_EQ(scalar.Query(trace[i].key), batched.Query(trace[i].key));
  }
}

}  // namespace
}  // namespace coco::core
