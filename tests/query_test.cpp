// Tests for the partial-key query front-end and evaluation drivers,
// including the worked example of Fig. 7.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "keys/key_spec.h"
#include "keys/v6.h"
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

// Reference for TopEntries with a HAVING bound: the rows with size >=
// min_size, fully std::sort-ed, then truncated.
template <typename Table>
std::vector<std::pair<typename Table::key_type, uint64_t>> FullSortHaving(
    const Table& table, size_t n, uint64_t min_size) {
  std::vector<std::pair<typename Table::key_type, uint64_t>> rows;
  for (const auto& [key, size] : table) {
    if (size >= min_size) rows.emplace_back(key, size);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return KeyOrderLess(a.first, b.first);
  });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

template <typename Table>
std::vector<std::pair<typename Table::key_type, uint64_t>> HeapTopRows(
    const Table& table, size_t n, uint64_t min_size) {
  std::vector<std::pair<typename Table::key_type, uint64_t>> rows;
  for (const auto& [size, key] : TopEntries(table, n, min_size)) {
    rows.emplace_back(*key, size);
  }
  return rows;
}

TEST(TopEntries, HavingMatchesFullSort) {
  // Prefix keys of mixed lengths; `ties` gives every key the same size,
  // `mixed` sizes from {1..6}. The bounds cover a HAVING every row meets, a
  // HAVING above every size (empty result) and n above the qualifying count.
  Rng rng(0x4a71);
  FlowTable<DynKey> mixed;
  for (int i = 0; i < 300; ++i) {
    const keys::PrefixSpec spec(static_cast<uint8_t>(8 + rng.NextBelow(25)));
    mixed.Add(spec.Apply(IPv4Key(rng.Next32())), 1 + rng.NextBelow(6));
  }
  FlowTable<DynKey> ties;
  for (const auto& [key, size] : mixed) ties.Add(key, 5);
  const std::unordered_map<DynKey, uint64_t> mixed_map(mixed.begin(),
                                                       mixed.end());

  const auto check = [](const auto& table, uint64_t min_size) {
    size_t qualifying = 0;
    for (const auto& [key, size] : table) qualifying += size >= min_size;
    for (size_t n : {size_t{0}, size_t{1}, size_t{100}, qualifying,
                     qualifying + 5, table.size()}) {
      EXPECT_EQ(HeapTopRows(table, n, min_size),
                FullSortHaving(table, n, min_size))
          << "min_size " << min_size << ", n = " << n;
    }
  };
  for (uint64_t min_size : {0, 5, 6}) check(ties, min_size);
  for (uint64_t min_size : {0, 4, 7}) {
    check(mixed, min_size);
    check(mixed_map, min_size);
  }
  EXPECT_TRUE(TopEntries(ties, 10, 6).empty());
  EXPECT_TRUE(TopEntries(mixed, 10, 7).empty());
}

// Key encoding for the reference GROUP BY below: the bit count, then the
// whole buffer. The reference therefore never uses the key type's own
// operator== or Hash().
template <size_t Capacity>
std::string RefKey(const BasicDynKey<Capacity>& key) {
  std::string out(reinterpret_cast<const char*>(&key.bits), sizeof key.bits);
  out.append(reinterpret_cast<const char*>(key.buf.data()), Capacity);
  return out;
}

// Reference GROUP BY over std::unordered_map: per-group sums, the order in
// which groups first appear, and the total mass.
template <typename Key>
struct RefGroupBy {
  std::unordered_map<std::string, uint64_t> sums;
  std::vector<Key> first_seen;
  uint64_t total = 0;

  void Add(const Key& key, uint64_t size) {
    const auto [it, fresh] = sums.try_emplace(RefKey(key), 0);
    if (fresh) first_seen.push_back(key);
    it->second += size;
    total += size;
  }
};

// `table` holds exactly the reference's groups, in first-insertion order,
// with the same sums; every key in `absent` (none of which the reference
// has) is not found.
template <typename Key>
void ExpectMatchesReference(const FlowTable<Key>& table,
                            const RefGroupBy<Key>& ref,
                            const std::vector<Key>& absent) {
  ASSERT_EQ(table.size(), ref.first_seen.size());
  EXPECT_EQ(table.empty(), ref.first_seen.empty());
  uint64_t mass = 0;
  size_t index = 0;
  for (const auto& entry : table) {
    const auto& [key, size] = entry;
    ASSERT_EQ(RefKey(key), RefKey(ref.first_seen[index])) << "group " << index;
    EXPECT_EQ(size, ref.sums.at(RefKey(key))) << "group " << index;
    const auto it = table.find(key);
    ASSERT_NE(it, table.end()) << "group " << index;
    EXPECT_EQ(&*it, &entry) << "group " << index;
    EXPECT_EQ(table.count(key), 1u);
    EXPECT_EQ(table.at(key), size);
    mass += size;
    ++index;
  }
  EXPECT_EQ(mass, ref.total);
  for (const Key& key : absent) {
    ASSERT_FALSE(ref.sums.count(RefKey(key)));
    EXPECT_EQ(table.find(key), table.end());
    EXPECT_EQ(table.count(key), 0u);
    EXPECT_THROW(table.at(key), std::out_of_range);
  }
}

// Aggregate, and a FlowTable grown by Add alone from its first slot array,
// both against the reference GROUP BY of `table` under `spec`.
template <typename FullKey, typename Spec>
void ExpectGroupByMatches(const FlowTable<FullKey>& table, const Spec& spec,
                          const std::vector<FullKey>& absent_rows) {
  using Key = decltype(spec.Apply(std::declval<const FullKey&>()));
  RefGroupBy<Key> ref;
  FlowTable<Key> grown;
  for (const auto& [key, size] : table) {
    ref.Add(spec.Apply(key), size);
    grown.Add(spec.Apply(key), size);
  }
  std::vector<Key> absent;
  for (const FullKey& row : absent_rows) absent.push_back(spec.Apply(row));
  ExpectMatchesReference(Aggregate(table, spec), ref, absent);
  ExpectMatchesReference(grown, ref, absent);
}

TEST(GroupTable, AggregateMatchesReferenceGroupBy) {
  // Fields come from small pools so groups sum many rows; the absent rows
  // take every field from outside the pools, so each spec maps them to
  // keys no row produces.
  Rng rng(0x6b7a);
  std::vector<FiveTuple> absent;
  for (uint32_t i = 0; i < 16; ++i) {
    absent.emplace_back(0xf0000000u + i, 0xf1000000u + i,
                        static_cast<uint16_t>(60000 + i),
                        static_cast<uint16_t>(61000 + i), 250);
  }
  for (size_t rows : {0, 1, 7, 10000}) {
    FlowTable<FiveTuple> table;
    while (table.size() < rows) {
      const FiveTuple key(0x0a000000u | static_cast<uint32_t>(
                                            rng.NextBelow(96) << 8),
                          0xc0a80000u | static_cast<uint32_t>(
                                            rng.NextBelow(64)),
                          static_cast<uint16_t>(1024 + rng.NextBelow(40)),
                          static_cast<uint16_t>(rng.NextBelow(8) * 1000),
                          static_cast<uint8_t>(rng.NextBelow(2) ? 6 : 17));
      table[key] = 1 + rng.NextBelow(1000);
    }
    for (const auto& spec : TupleKeySpec::DefaultSix()) {
      SCOPED_TRACE(spec.name() + ", " + std::to_string(rows) + " rows");
      ExpectGroupByMatches(table, spec, absent);
    }
  }
}

TEST(GroupTable, PrefixHierarchyKeepsBitCountsApart) {
  // A /8 and a /16 of 10.0.0.0 have equal buffers and differ only in bits.
  FlowTable<DynKey> pair;
  const DynKey slash8 = keys::PrefixSpec(8).Apply(IPv4Key(0x0a000000u));
  const DynKey slash16 = keys::PrefixSpec(16).Apply(IPv4Key(0x0a000000u));
  ASSERT_EQ(slash8.buf, slash16.buf);
  pair.Add(slash8, 3);
  pair.Add(slash16, 4);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair.at(slash8), 3u);
  EXPECT_EQ(pair.at(slash16), 4u);

  // Every level of the 33-level hierarchy summed into one table. Addresses
  // have long runs of zero bits, so many keys of different levels share a
  // buffer, and the probes of a growing table pass over them.
  Rng rng(0x44d8);
  FlowTable<IPv4Key> table;
  while (table.size() < 2000) {
    const uint32_t addr = static_cast<uint32_t>(rng.NextBelow(16)) << 28 |
                          static_cast<uint32_t>(rng.NextBelow(8)) << 16 |
                          static_cast<uint32_t>(rng.NextBelow(4));
    table[IPv4Key(addr ^ (rng.Next32() & 0x00100100u))] =
        1 + rng.NextBelow(50);
  }
  const std::vector<IPv4Key> absent = {IPv4Key(0x0fffffffu),
                                       IPv4Key(0x0eeeeeeeu)};
  RefGroupBy<DynKey> ref;
  FlowTable<DynKey> levels;
  std::vector<DynKey> absent_keys;
  for (const keys::PrefixSpec& spec : keys::PrefixSpec::Hierarchy()) {
    for (const auto& [key, size] : table) {
      ref.Add(spec.Apply(key), size);
      levels.Add(spec.Apply(key), size);
    }
    // Table addresses have zeros in bits 27..21, the absent ones do not.
    const std::vector<IPv4Key> absent_here =
        spec.bits() >= 8 ? absent : std::vector<IPv4Key>{};
    for (const IPv4Key& a : absent_here) absent_keys.push_back(spec.Apply(a));
    SCOPED_TRACE("/" + std::to_string(spec.bits()));
    ExpectGroupByMatches(table, spec, absent_here);
  }
  ExpectMatchesReference(levels, ref, absent_keys);
}

TEST(GroupTable, WideKeysMatchReferenceGroupBy) {
  Rng rng(0x76e6);
  const auto v6 = [&rng](uint8_t high) {
    uint8_t src[16] = {0x20, 0x01, 0x0d, 0xb8, high};
    uint8_t dst[16] = {0x20, 0x01, 0x0d, 0xb8, 0xff};
    src[6] = static_cast<uint8_t>(rng.NextBelow(16));
    src[15] = static_cast<uint8_t>(rng.NextBelow(8));
    dst[15] = static_cast<uint8_t>(rng.NextBelow(32));
    return keys::V6Tuple(src, dst, static_cast<uint16_t>(rng.NextBelow(30)),
                         443, 6);
  };
  std::vector<keys::V6Tuple> absent;
  for (int i = 0; i < 8; ++i) absent.push_back(v6(0xee));
  for (size_t rows : {0, 1, 7, 10000}) {
    FlowTable<keys::V6Tuple> table;
    while (table.size() < rows) {
      table[v6(static_cast<uint8_t>(rng.NextBelow(4)))] =
          1 + rng.NextBelow(1000);
    }
    for (const keys::V6KeySpec& spec :
         {keys::V6KeySpec::FullTuple(), keys::V6KeySpec::SrcIp(),
          keys::V6KeySpec::SrcIpPrefix(40), keys::V6KeySpec::SrcIpPrefix(48),
          keys::V6KeySpec::SrcDstIp()}) {
      SCOPED_TRACE(spec.name() + ", " + std::to_string(rows) + " rows");
      ExpectGroupByMatches(table, spec, absent);
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
  const auto scores = ScoreHeavyHitters(
      PartialKeyTruth(truth, specs), HeavyHitterThreshold(truth.Total(), 1e-3),
      GroupedBy(exact_table, specs));
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
  const auto specs = keys::TupleKeySpec::DefaultSix();
  const auto scores = ScoreHeavyHitters(
      PartialKeyTruth(truth, specs), HeavyHitterThreshold(truth.Total(), 1e-3),
      GroupedBy(FlowTable<FiveTuple>(), specs));
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
  const auto specs = keys::TupleKeySpec::DefaultSix();
  const auto scores = ScoreHeavyChanges(
      ChangeTruth(truth_before, truth_after, specs),
      HeavyChangeThreshold(truth_before.Total(), truth_after.Total(), 1e-3),
      GroupedBy(tb, specs), GroupedBy(ta, specs));
  for (const auto& s : scores) {
    EXPECT_DOUBLE_EQ(s.recall, 1.0);
    EXPECT_DOUBLE_EQ(s.precision, 1.0);
  }
}

TEST(ScoreHeavyChanges, ThresholdKeepsTheHalfOfAnOddCombinedTotal) {
  // Byte weights make the two windows' totals arbitrary; this pair's sum is
  // odd, so the mean is m + 0.5 for an integer m.
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(50000);
  config.weight_mode = trace::WeightMode::kBytes;
  const auto pair = trace::GenerateChurnPair(config, 0.3);
  const uint64_t before = trace::CountTrace(pair.before).Total();
  const uint64_t after = trace::CountTrace(pair.after).Total();
  ASSERT_EQ((before + after) % 2, 1u);
  const double mean = 0.5 * static_cast<double>(before + after);
  // fraction * m < 1 <= fraction * (m + 0.5): the threshold is 1 only when
  // the half is kept. An integer mean (before + after) / 2 would give 0.
  EXPECT_EQ(HeavyChangeThreshold(before, after, 1.0 / (mean - 0.25)), 1u);
  EXPECT_EQ(HeavyChangeThreshold(before, after, 1e-4),
            static_cast<uint64_t>(1e-4 * mean));
}

TEST(ScoreHeavyHitters, PerSpecTablesScoreAsScoreThresholdSpecBySpec) {
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(50000));
  const auto truth = trace::CountTrace(trace);
  const auto specs = keys::TupleKeySpec::DefaultSix();
  core::CocoSketch<FiveTuple> sketch(KiB(64), 2, 7);
  for (const Packet& p : trace) sketch.Update(p.key, p.weight);
  const auto decoded = sketch.Decode();
  std::vector<FlowTable<DynKey>> tables;
  for (const auto& spec : specs) tables.push_back(Aggregate(decoded, spec));

  const uint64_t threshold = HeavyHitterThreshold(truth.Total(), 1e-3);
  const auto scores =
      ScoreHeavyHitters(PartialKeyTruth(truth, specs), threshold,
                        [&](size_t i) -> const auto& { return tables[i]; });
  ASSERT_EQ(scores.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name());
    const metrics::Accuracy want = metrics::ScoreThreshold(
        tables[i], truth.Aggregate(specs[i]).counts(), threshold);
    EXPECT_EQ(scores[i].recall, want.recall);
    EXPECT_EQ(scores[i].precision, want.precision);
    EXPECT_EQ(scores[i].f1, want.f1);
    EXPECT_EQ(scores[i].are, want.are);
    EXPECT_EQ(scores[i].true_count, want.true_count);
    EXPECT_EQ(scores[i].reported_count, want.reported_count);
    EXPECT_GT(want.true_count, 0u);
  }
}

}  // namespace
}  // namespace coco::query
