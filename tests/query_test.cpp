// Tests for the partial-key query front-end and evaluation drivers,
// including the worked example of Fig. 7.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "keys/key_spec.h"
#include "query/evaluation.h"
#include "query/flow_table.h"
#include "trace/generators.h"

namespace coco::query {
namespace {

using keys::TupleKeySpec;

TEST(Aggregate, Figure7WorkedExample) {
  // Full key (SrcIP, SrcPort); query partial key SrcIP. Table from Fig. 7.
  FlowTable<FiveTuple> table;
  auto row = [](uint32_t ip, uint16_t port) {
    return FiveTuple(ip, 0, port, 0, 0);
  };
  const uint32_t ip_a = (19u << 24) | (98u << 16) | (10u << 8) | 26;  // 19.98.10.26
  const uint32_t ip_b = (34u << 24) | (52u << 16) | (73u << 8) | 13;  // 34.52.73.13
  const uint32_t ip_c = (34u << 24) | (52u << 16) | (73u << 8) | 17;  // 34.52.73.17
  table[row(ip_a, 80)] = 521;
  table[row(ip_b, 80)] = 305;
  // Fig. 7 has two (19.98.10.26, 80) rows summing to 1041; with a keyed table
  // we model them as one 1041 entry plus the distinct rows.
  table[row(ip_a, 8080)] = 520;
  table[row(ip_c, 118)] = 856;
  table[row(ip_b, 123)] = 463;

  const auto by_src = Aggregate(table, TupleKeySpec::SrcIp());
  EXPECT_EQ(by_src.size(), 3u);
  EXPECT_EQ(by_src.at(TupleKeySpec::SrcIp().Apply(row(ip_a, 0))), 1041u);
  EXPECT_EQ(by_src.at(TupleKeySpec::SrcIp().Apply(row(ip_b, 0))), 768u);
  EXPECT_EQ(by_src.at(TupleKeySpec::SrcIp().Apply(row(ip_c, 0))), 856u);
}

TEST(Aggregate, PreservesTotalMass) {
  FlowTable<FiveTuple> table;
  uint64_t total = 0;
  for (uint32_t i = 0; i < 100; ++i) {
    table[FiveTuple(i % 7, i % 3, static_cast<uint16_t>(i), 443, 6)] = i + 1;
    total += i + 1;
  }
  for (const auto& spec : TupleKeySpec::DefaultSix()) {
    uint64_t sum = 0;
    for (const auto& [key, size] : Aggregate(table, spec)) sum += size;
    EXPECT_EQ(sum, total) << spec.name();
  }
}

TEST(AbsDiff, UnionSemantics) {
  FlowTable<IPv4Key> a, b;
  a[IPv4Key(1)] = 100;  // only in a
  b[IPv4Key(2)] = 70;   // only in b
  a[IPv4Key(3)] = 50;   // in both, grows
  b[IPv4Key(3)] = 90;
  const auto diff = AbsDiff(a, b);
  EXPECT_EQ(diff.size(), 3u);
  EXPECT_EQ(diff.at(IPv4Key(1)), 100u);
  EXPECT_EQ(diff.at(IPv4Key(2)), 70u);
  EXPECT_EQ(diff.at(IPv4Key(3)), 40u);
}

TEST(AbsDiff, IdenticalTablesAllZero) {
  FlowTable<IPv4Key> a;
  a[IPv4Key(1)] = 5;
  const auto diff = AbsDiff(a, a);
  EXPECT_EQ(diff.at(IPv4Key(1)), 0u);
}

TEST(TopRows, SortsDescendingAndTruncates) {
  FlowTable<IPv4Key> table;
  for (uint32_t i = 0; i < 10; ++i) table[IPv4Key(i)] = i * 10;
  const auto rows = TopRows(table, 3);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].second, 90u);
  EXPECT_EQ(rows[1].second, 80u);
  EXPECT_EQ(rows[2].second, 70u);
}

TEST(TopRows, EqualSizesOrderedDeterministicallyByKey) {
  // Equal-size rows used to come out in hash-map iteration order; they must
  // now follow the KeyOrderLess total order, identically on every run.
  FlowTable<IPv4Key> table;
  for (uint32_t i = 0; i < 64; ++i) table[IPv4Key(i * 2654435761u)] = 7;
  const auto rows = TopRows(table, 64);
  ASSERT_EQ(rows.size(), 64u);
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    EXPECT_TRUE(KeyOrderLess(rows[i].first, rows[i + 1].first));
  }
  // A rebuilt (differently-ordered) table yields the same row sequence.
  FlowTable<IPv4Key> reversed;
  for (uint32_t i = 64; i > 0; --i) reversed[IPv4Key((i - 1) * 2654435761u)] = 7;
  EXPECT_EQ(TopRows(reversed, 64), rows);
}

// Reference for the bounded top-k: every row, fully std::sort-ed by
// (size descending, KeyOrderLess), then truncated.
template <typename Key>
std::vector<std::pair<Key, uint64_t>> FullSortTopRows(
    const FlowTable<Key>& table, size_t n) {
  std::vector<std::pair<Key, uint64_t>> rows(table.begin(), table.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return KeyOrderLess(a.first, b.first);
  });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

TEST(TopRows, MatchesFullSortUnderHeavyTies) {
  // Sizes from {1..4} tie heavily; keys are prefixes of several lengths, so
  // ties also reach KeyOrderLess's length and bit-count stages (a /13 and a
  // /16 of the same address share their two bytes).
  const uint8_t kPrefixBits[] = {8, 13, 16, 32};
  Rng rng(0x70b5);
  for (size_t keys : {0, 1, 2, 50, 777}) {
    FlowTable<DynKey> table;
    while (table.size() < keys) {
      const IPv4Key addr(static_cast<uint32_t>(rng.NextBelow(64)) << 19 |
                         static_cast<uint32_t>(rng.Next32() & 0x7ffff));
      const keys::PrefixSpec spec(kPrefixBits[rng.NextBelow(4)]);
      table[spec.Apply(addr)] = 1 + rng.NextBelow(4);
    }
    const size_t size = table.size();
    for (size_t n : {size_t{0}, size_t{1}, size_t{100}, size - (size > 0),
                     size, size + 5}) {
      EXPECT_EQ(TopRows(table, n), FullSortTopRows(table, n))
          << size << " rows, n = " << n;
    }
  }
}

TEST(FilterThreshold, KeepsOnlyHeavy) {
  FlowTable<IPv4Key> table;
  table[IPv4Key(1)] = 100;
  table[IPv4Key(2)] = 99;
  const auto kept = FilterThreshold(table, 100);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept.count(IPv4Key(1)));
}

TEST(ScoreHeavyHitters, PerfectEstimatorScoresPerfectly) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(50000);
  const auto trace = trace::GenerateTrace(config);
  const auto truth = trace::CountTrace(trace);

  // The "sketch" is the exact table itself.
  FlowTable<FiveTuple> exact_table(truth.counts().begin(),
                                   truth.counts().end());
  const auto specs = keys::TupleKeySpec::DefaultSix();
  const auto scores =
      ScoreHeavyHittersPerKey(exact_table, truth, specs, 1e-3);
  ASSERT_EQ(scores.size(), 6u);
  for (const auto& s : scores) {
    EXPECT_DOUBLE_EQ(s.recall, 1.0);
    EXPECT_DOUBLE_EQ(s.precision, 1.0);
    EXPECT_DOUBLE_EQ(s.f1, 1.0);
    EXPECT_DOUBLE_EQ(s.are, 0.0);
  }
}

TEST(ScoreHeavyHitters, EmptyEstimatorScoresZeroRecall) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(20000);
  const auto trace = trace::GenerateTrace(config);
  const auto truth = trace::CountTrace(trace);
  FlowTable<FiveTuple> empty;
  const auto scores = ScoreHeavyHittersPerKey(
      empty, truth, keys::TupleKeySpec::DefaultSix(), 1e-3);
  for (const auto& s : scores) {
    EXPECT_EQ(s.recall, 0.0);
    EXPECT_EQ(s.reported_count, 0u);
    EXPECT_DOUBLE_EQ(s.are, 1.0);  // every heavy hitter estimated as 0
  }
}

TEST(ScoreHeavyChanges, PerfectEstimatorScoresPerfectly) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(30000);
  const auto pair = trace::GenerateChurnPair(config, 0.3);
  const auto truth_before = trace::CountTrace(pair.before);
  const auto truth_after = trace::CountTrace(pair.after);
  FlowTable<FiveTuple> tb(truth_before.counts().begin(),
                          truth_before.counts().end());
  FlowTable<FiveTuple> ta(truth_after.counts().begin(),
                          truth_after.counts().end());
  const auto scores = ScoreHeavyChangesPerKey(
      tb, ta, truth_before, truth_after, keys::TupleKeySpec::DefaultSix(),
      1e-3);
  for (const auto& s : scores) {
    EXPECT_DOUBLE_EQ(s.recall, 1.0);
    EXPECT_DOUBLE_EQ(s.precision, 1.0);
  }
}

}  // namespace
}  // namespace coco::query
