// End-to-end integration tests: the full measure -> decode -> aggregate ->
// score pipelines for all three tasks, plus a CocoSketch-vs-baseline sanity
// check mirroring the headline comparison of §7.2.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"
#include "keys/key_spec.h"
#include "metrics/accuracy.h"
#include "query/evaluation.h"
#include "sketch/count_min.h"
#include "sketch/rhhh.h"
#include "sketch/uss.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco {
namespace {

using keys::PrefixSpec;
using keys::TupleKeySpec;

class HeavyHitterEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = trace::GenerateTrace(trace::TraceConfig::CaidaLike(200000));
    truth_ = trace::CountTrace(trace_);
    specs_ = TupleKeySpec::DefaultSix();
    exact_ = query::PartialKeyTruth(truth_, specs_);
    threshold_ = query::HeavyHitterThreshold(truth_.Total(), 1e-4);
  }

  // Heavy-hitter scores of one full-key sketch over the six keys.
  template <typename Sketch>
  std::vector<metrics::Accuracy> Score(const Sketch& sketch) const {
    return query::ScoreHeavyHitters(exact_, threshold_,
                                    query::GroupedBy(sketch.Decode(), specs_));
  }

  std::vector<Packet> trace_;
  trace::ExactCounter<FiveTuple> truth_;
  std::vector<TupleKeySpec> specs_;
  std::vector<trace::ExactCounter<DynKey>> exact_;
  uint64_t threshold_ = 0;
};

TEST_F(HeavyHitterEndToEnd, CocoHighF1OnAllSixKeys) {
  core::CocoSketch<FiveTuple> coco(KiB(500), 2);
  for (const Packet& p : trace_) coco.Update(p.key, p.weight);
  const auto scores = Score(coco);
  ASSERT_EQ(scores.size(), 6u);
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_GT(scores[i].f1, 0.90) << specs_[i].name();
    EXPECT_LT(scores[i].are, 0.12) << specs_[i].name();
  }
}

TEST_F(HeavyHitterEndToEnd, CocoBeatsPerKeyCountMinAtSixKeys) {
  // Baseline: one CM-Heap per key sharing the same 500KB total.
  core::CocoSketch<FiveTuple> coco(KiB(500), 2);
  for (const Packet& p : trace_) coco.Update(p.key, p.weight);
  const auto coco_scores = Score(coco);

  const size_t per_key = KiB(500) / specs_.size();
  const auto cm_scores = query::ScoreHeavyHitters(
      exact_, truth_.Total() / 10000, [&](size_t i) {
        sketch::CmHeap<DynKey> cm(per_key, 512);
        for (const Packet& p : trace_) {
          cm.Update(specs_[i].Apply(p.key), p.weight);
        }
        return cm.Decode();
      });

  const auto coco_mean = metrics::MeanAccuracy(coco_scores);
  const auto cm_mean = metrics::MeanAccuracy(cm_scores);
  EXPECT_GT(coco_mean.f1, cm_mean.f1);
  EXPECT_LT(coco_mean.are, cm_mean.are);
}

TEST_F(HeavyHitterEndToEnd, HwVariantWithinTenPercentOfBasic) {
  // §7.5: removing circular dependencies costs <10% F1. The bound is a
  // statement about the mean over hash seeds, not about any one seed: a
  // single seed's gap can exceed 0.10 while the mean stays below it. So the
  // seeds are fixed (1..16, chosen before looking) and the mean is asserted.
  constexpr uint64_t kSeeds = 16;
  double gap_sum = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    core::CocoSketch<FiveTuple> basic(KiB(500), 2, seed);
    core::HwCocoSketch<FiveTuple> hw(KiB(500), 2, core::DivisionMode::kExact,
                                     seed);
    for (const Packet& p : trace_) {
      basic.Update(p.key, p.weight);
      hw.Update(p.key, p.weight);
    }
    const auto basic_mean = metrics::MeanAccuracy(Score(basic));
    const auto hw_mean = metrics::MeanAccuracy(Score(hw));
    const double gap = basic_mean.f1 - hw_mean.f1;
    std::printf("seed %2llu: F1 basic %.4f hw %.4f gap %.4f\n",
                static_cast<unsigned long long>(seed), basic_mean.f1,
                hw_mean.f1, gap);
    gap_sum += gap;
  }
  EXPECT_LT(gap_sum / kSeeds, 0.10);
}

TEST(HeavyChangeEndToEnd, CocoDetectsChanges) {
  const auto pair =
      trace::GenerateChurnPair(trace::TraceConfig::CaidaLike(150000), 0.4);
  const auto truth_before = trace::CountTrace(pair.before);
  const auto truth_after = trace::CountTrace(pair.after);
  const auto specs = TupleKeySpec::DefaultSix();

  core::CocoSketch<FiveTuple> before(KiB(500), 2), after(KiB(500), 2);
  for (const Packet& p : pair.before) before.Update(p.key, p.weight);
  for (const Packet& p : pair.after) after.Update(p.key, p.weight);

  const auto scores = query::ScoreHeavyChanges(
      query::ChangeTruth(truth_before, truth_after, specs),
      query::HeavyChangeThreshold(truth_before.Total(), truth_after.Total(),
                                  1e-3),
      query::GroupedBy(before.Decode(), specs),
      query::GroupedBy(after.Decode(), specs));
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_GT(scores[i].f1, 0.75) << specs[i].name();
  }
}

TEST(HhhEndToEnd, CocoFarMoreAccurateThanRhhh) {
  // 1-d HHH over the SrcIP hierarchy (Fig. 11's shape): CocoSketch with one
  // sketch vs R-HHH with 33 level sketches at equal memory.
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(150000));
  trace::ExactCounter<IPv4Key> truth;
  for (const Packet& p : trace) truth.Add(IPv4Key(p.key.src_ip()), p.weight);
  const auto levels = PrefixSpec::Hierarchy();
  const uint64_t threshold = truth.Total() / 1000;
  const size_t mem = KiB(500);

  core::CocoSketch<IPv4Key> coco(mem, 2);
  sketch::RHhh<IPv4Key, PrefixSpec> rhhh(mem, levels);
  for (const Packet& p : trace) {
    coco.Update(IPv4Key(p.key.src_ip()), p.weight);
    rhhh.Update(IPv4Key(p.key.src_ip()), p.weight);
  }

  const auto exact = query::PartialKeyTruth(truth, levels);
  const auto coco_mean = metrics::MeanAccuracy(query::ScoreHeavyHitters(
      exact, threshold, query::GroupedBy(coco.Decode(), levels)));
  const auto rhhh_mean = metrics::MeanAccuracy(query::ScoreHeavyHitters(
      exact, threshold,
      [&](size_t level) { return rhhh.DecodeLevel(level); }));
  EXPECT_GT(coco_mean.f1, 0.95);
  EXPECT_GT(coco_mean.f1, rhhh_mean.f1);
  EXPECT_LT(coco_mean.are, rhhh_mean.are);
}

TEST(ByteModeEndToEnd, HeavyChangeByBytes) {
  // Byte-weighted two-epoch change detection: the full pipeline must work
  // identically when weights are wire sizes instead of packet counts.
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(100000);
  config.weight_mode = trace::WeightMode::kBytes;
  const auto pair = trace::GenerateChurnPair(config, 0.4);
  const auto truth_before = trace::CountTrace(pair.before);
  const auto truth_after = trace::CountTrace(pair.after);
  const auto specs = TupleKeySpec::DefaultSix();

  core::CocoSketch<FiveTuple> before(KiB(500), 2, 1), after(KiB(500), 2, 2);
  for (const Packet& p : pair.before) before.Update(p.key, p.weight);
  for (const Packet& p : pair.after) after.Update(p.key, p.weight);

  const auto scores = query::ScoreHeavyChanges(
      query::ChangeTruth(truth_before, truth_after, specs),
      query::HeavyChangeThreshold(truth_before.Total(), truth_after.Total(),
                                  1e-3),
      query::GroupedBy(before.Decode(), specs),
      query::GroupedBy(after.Decode(), specs));
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_GT(scores[i].f1, 0.7) << specs[i].name();
  }
}

TEST(MawiEndToEnd, CocoHoldsOnFlatterTail) {
  // Fig. 13's point as an assertion: the flatter MAWI-like tail does not
  // break CocoSketch's multi-key accuracy.
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::MawiLike(200000));
  const auto truth = trace::CountTrace(trace);
  core::CocoSketch<FiveTuple> coco(KiB(500), 2);
  for (const Packet& p : trace) coco.Update(p.key, p.weight);
  const auto specs = TupleKeySpec::DefaultSix();
  const auto mean = metrics::MeanAccuracy(query::ScoreHeavyHitters(
      query::PartialKeyTruth(truth, specs),
      query::HeavyHitterThreshold(truth.Total(), 1e-4),
      query::GroupedBy(coco.Decode(), specs)));
  EXPECT_GT(mean.f1, 0.9);
}

TEST(UssComparisonEndToEnd, CocoMatchesUssAccuracyClosely) {
  // §3.2: CocoSketch trades <3% F1 for ~100x throughput vs USS. Check the
  // accuracy side: at equal memory (where USS pays its 4x auxiliary
  // overhead), Coco's F1 is at least USS's minus 3%.
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(150000));
  const auto truth = trace::CountTrace(trace);
  const auto specs = TupleKeySpec::DefaultSix();

  core::CocoSketch<FiveTuple> coco(KiB(400), 2);
  sketch::UnbiasedSpaceSaving<FiveTuple> uss(KiB(400));
  for (const Packet& p : trace) {
    coco.Update(p.key, p.weight);
    uss.Update(p.key, p.weight);
  }
  const auto exact = query::PartialKeyTruth(truth, specs);
  const uint64_t threshold = query::HeavyHitterThreshold(truth.Total(), 1e-4);
  const auto coco_mean = metrics::MeanAccuracy(query::ScoreHeavyHitters(
      exact, threshold, query::GroupedBy(coco.Decode(), specs)));
  const auto uss_mean = metrics::MeanAccuracy(query::ScoreHeavyHitters(
      exact, threshold, query::GroupedBy(uss.Decode(), specs)));
  EXPECT_GT(coco_mean.f1, uss_mean.f1 - 0.03);
}

}  // namespace
}  // namespace coco
