// Tests for the basic CocoSketch (§4.1): update semantics, mass
// conservation, the at-most-one-copy invariant, unbiasedness over partial
// keys (Lemma 3), the recall bound (Theorem 4), heavy-hitter quality,
// Decode into the flat FlowTable against a std::unordered_map reference, and
// the bucket-sketch core's contract (reseed, restore, rotation, merge, Clear)
// over both variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"
#include "core/merge.h"
#include "core/seed_rotation.h"
#include "keys/key_spec.h"
#include "keys/v6.h"
#include "metrics/accuracy.h"
#include "packet/keys.h"
#include "query/flow_table.h"
#include "simd/dispatch.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco::core {
namespace {

TEST(CocoSketch, TrackedFlowIsExactWithoutEviction) {
  CocoSketch<IPv4Key> coco(KiB(64), 2);
  for (int i = 0; i < 1000; ++i) coco.Update(IPv4Key(9), 1);
  EXPECT_EQ(coco.Query(IPv4Key(9)), 1000u);
}

TEST(CocoSketch, WeightedUpdates) {
  CocoSketch<IPv4Key> coco(KiB(64), 2);
  coco.Update(IPv4Key(9), 1500);
  coco.Update(IPv4Key(9), 40);
  EXPECT_EQ(coco.Query(IPv4Key(9)), 1540u);
}

TEST(CocoSketch, UnseenKeyIsZero) {
  CocoSketch<IPv4Key> coco(KiB(4), 2);
  EXPECT_EQ(coco.Query(IPv4Key(1)), 0u);
}

TEST(CocoSketch, GeometryFromMemory) {
  // 17-byte buckets (13B key + 4B counter) at d=2.
  CocoSketch<FiveTuple> coco(KiB(500), 2);
  EXPECT_EQ(coco.d(), 2u);
  EXPECT_EQ(coco.l(), KiB(500) / (2 * 17));
  EXPECT_LE(coco.MemoryBytes(), KiB(500));
}

TEST(CocoSketch, TotalMassConservedExactly) {
  // §4.1: each packet updates the value of exactly one bucket, so the sum of
  // all bucket values equals the stream mass — for any d.
  for (size_t d : {1, 2, 3, 4}) {
    CocoSketch<FiveTuple> coco(KiB(16), d);
    trace::TraceConfig config = trace::TraceConfig::CaidaLike(30000);
    const auto trace = trace::GenerateTrace(config);
    uint64_t mass = 0;
    for (const Packet& p : trace) {
      coco.Update(p.key, p.weight);
      mass += p.weight;
    }
    EXPECT_EQ(coco.TotalValue(), mass) << "d=" << d;
  }
}

TEST(CocoSketch, AtMostOneCopyPerKey) {
  // A key never occupies two buckets simultaneously: matches increment in
  // place and replacement only triggers when no bucket matched.
  CocoSketch<IPv4Key> coco(KiB(2), 3);
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    coco.Update(IPv4Key(static_cast<uint32_t>(rng.NextBelow(2000))), 1);
  }
  // Decode merges duplicates by summation; compare against a scan that
  // counts occurrences.
  std::unordered_map<IPv4Key, int> copies;
  const auto decoded = coco.Decode();
  uint64_t decoded_mass = 0;
  for (const auto& [key, v] : decoded) decoded_mass += v;
  EXPECT_EQ(decoded_mass, coco.TotalValue());
  EXPECT_LE(decoded.size(), coco.d() * coco.l());
}

// --- Unbiasedness (Lemma 3) ----------------------------------------------
// Averaged over many independent sketches, the estimate of every flow —
// including on aggregated partial keys — converges to the true size.
class CocoUnbiasednessTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CocoUnbiasednessTest, PartialKeyEstimatesUnbiased) {
  const size_t d = GetParam();
  const int kSeeds = 40;

  // Structured universe: 40 flows across 8 source IPs, so the SrcIP partial
  // key aggregates five 5-tuples each.
  std::vector<FiveTuple> flows;
  std::vector<uint64_t> sizes;
  for (int f = 0; f < 40; ++f) {
    flows.push_back(FiveTuple(0x0a000000u + (f % 8), 0xc0000001, 1000 + f,
                              443, 6));
    sizes.push_back(20 + 13 * f);
  }
  trace::ExactCounter<FiveTuple> truth;
  for (size_t f = 0; f < flows.size(); ++f) truth.Add(flows[f], sizes[f]);
  const keys::TupleKeySpec spec = keys::TupleKeySpec::SrcIp();
  const auto exact_partial = truth.Aggregate(spec);

  // Sketch with fewer buckets than flows, forcing constant replacement.
  const size_t mem = 24 * CocoSketch<FiveTuple>::BucketBytes();

  std::unordered_map<DynKey, double> mean_est;
  for (int seed = 0; seed < kSeeds; ++seed) {
    CocoSketch<FiveTuple> coco(mem, d, 1000 + seed);
    Rng order(seed);
    std::vector<size_t> stream;
    for (size_t f = 0; f < flows.size(); ++f) {
      for (uint64_t i = 0; i < sizes[f]; ++i) stream.push_back(f);
    }
    for (size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[order.NextBelow(i)]);
    }
    for (size_t f : stream) coco.Update(flows[f], 1);

    const auto partial = query::Aggregate(coco.Decode(), spec);
    for (const auto& [key, exact] : exact_partial.counts()) {
      auto it = partial.find(key);
      mean_est[key] +=
          it == partial.end() ? 0.0 : static_cast<double>(it->second);
    }
  }

  // Total mass is conserved exactly, so the aggregate check is strict; the
  // per-key check allows sampling noise over 40 trials.
  double total_mean = 0, total_true = 0;
  for (const auto& [key, exact] : exact_partial.counts()) {
    const double mean = mean_est[key] / kSeeds;
    total_mean += mean;
    total_true += static_cast<double>(exact);
    if (exact > 200) {  // heavier aggregates: tighter relative tolerance
      EXPECT_NEAR(mean, static_cast<double>(exact),
                  0.3 * static_cast<double>(exact))
          << "d=" << d;
    }
  }
  EXPECT_NEAR(total_mean, total_true, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(VaryD, CocoUnbiasednessTest,
                         ::testing::Values(1, 2, 3));

// --- Recall bound (Theorem 4) --------------------------------------------
TEST(CocoSketch, RecallBoundForHeavyFlow) {
  // P[recorded] >= 1 - (1 + l * f/ f̄)^-d. With f = 1% of traffic, d = 2,
  // l = 900, the bound is ~99%; empirically check over repeated runs.
  const size_t d = 2, l = 900;
  const size_t mem = d * l * CocoSketch<IPv4Key>::BucketBytes();
  int recorded = 0;
  const int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    CocoSketch<IPv4Key> coco(mem, d, t + 1);
    Rng rng(t * 31 + 7);
    const uint64_t n = 100000;
    for (uint64_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.01)) {
        coco.Update(IPv4Key(0x0aff0010u), 1);
      } else {
        coco.Update(IPv4Key(static_cast<uint32_t>(rng.Next()) | 1u), 1);
      }
    }
    recorded += coco.Query(IPv4Key(0x0aff0010u)) > 0;
  }
  EXPECT_GE(static_cast<double>(recorded) / kTrials, 0.97);
}

TEST(CocoSketch, HeavyHitterQualityOnTrace) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(200000);
  const auto trace = trace::GenerateTrace(config);
  const auto truth = trace::CountTrace(trace);

  CocoSketch<FiveTuple> coco(KiB(256), 2);
  for (const Packet& p : trace) coco.Update(p.key, p.weight);

  const uint64_t threshold = truth.Total() / 1000;
  const auto decoded = coco.Decode();
  size_t heavy = 0, found = 0;
  double are = 0;
  for (const auto& [key, count] : truth.HeavyHitters(threshold)) {
    ++heavy;
    auto it = decoded.find(key);
    if (it != decoded.end() && it->second >= threshold) ++found;
    const uint64_t est = it == decoded.end() ? 0 : it->second;
    are += std::abs(static_cast<double>(est) - static_cast<double>(count)) /
           static_cast<double>(count);
  }
  ASSERT_GT(heavy, 0u);
  EXPECT_GT(static_cast<double>(found) / heavy, 0.95);
  EXPECT_LT(are / heavy, 0.1);
}

TEST(CocoSketch, DegeneratesToExactWhenOversized) {
  // With far more buckets than flows and d=2 the sketch is near-exact.
  CocoSketch<IPv4Key> coco(MiB(1), 2);
  Rng rng(3);
  std::unordered_map<uint32_t, uint64_t> exact;
  for (int i = 0; i < 20000; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBelow(500));
    coco.Update(IPv4Key(key), 1);
    ++exact[key];
  }
  for (const auto& [key, count] : exact) {
    EXPECT_EQ(coco.Query(IPv4Key(key)), count);
  }
}

TEST(CocoSketch, ClearResets) {
  CocoSketch<IPv4Key> coco(KiB(8), 2);
  coco.Update(IPv4Key(1), 10);
  coco.Clear();
  EXPECT_EQ(coco.Query(IPv4Key(1)), 0u);
  EXPECT_EQ(coco.TotalValue(), 0u);
}

TEST(CocoSketch, RejectsBadGeometry) {
  EXPECT_DEATH(CocoSketch<FiveTuple>(8, 2), "memory too small");
}

// --- Decode into the flat FlowTable ----------------------------------------

template <typename Key>
Key RandomKey(Rng* rng) {
  Key key;
  for (size_t i = 0; i < Key::kSize; ++i) {
    key.data()[i] = static_cast<uint8_t>(rng->Next());
  }
  return key;
}

template <typename Key>
std::vector<Key> RandomPool(size_t flows, Rng* rng) {
  std::vector<Key> pool;
  for (size_t f = 0; f < flows; ++f) pool.push_back(RandomKey<Key>(rng));
  return pool;
}

// `packets` updates drawn from `pool` with a skew, so the sketch sees
// matches, evictions and replacements.
template <typename Sketch, typename Key>
void FeedSkewed(Sketch* sketch, const std::vector<Key>& pool, size_t packets,
                Rng* rng) {
  for (size_t i = 0; i < packets; ++i) {
    sketch->Update(pool[rng->NextBelow(1 + rng->NextBelow(pool.size()))],
                   1 + static_cast<uint32_t>(rng->NextBelow(3)));
  }
}

size_t OccupiedBuckets(const auto& buckets) {
  size_t n = 0;
  for (size_t i = 0; i < buckets.size(); ++i) n += buckets.Value(i) != 0;
  return n;
}

// Reference decode, independent of FlowTable: every occupied bucket's key,
// read back through KeyAt, summed into a std::unordered_map.
template <typename Key>
std::unordered_map<Key, uint64_t> ReferenceDecode(
    const BucketArray<Key>& buckets) {
  std::unordered_map<Key, uint64_t> ref;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets.Value(i) != 0) ref[buckets.KeyAt(i)] += buckets.Value(i);
  }
  return ref;
}

template <typename Key>
Key AbsentKey(const std::unordered_map<Key, uint64_t>& ref, Rng* rng) {
  Key key = RandomKey<Key>(rng);
  while (ref.count(key) != 0) key = RandomKey<Key>(rng);
  return key;
}

// `table` holds exactly ref's keys with ref's sizes, and find / count / at /
// operator[] / operator== agree with it on present and absent keys.
template <typename Key>
void ExpectTableMatches(const FlowTable<Key>& table,
                        const std::unordered_map<Key, uint64_t>& ref,
                        const Key& absent) {
  ASSERT_EQ(ref.count(absent), 0u);
  EXPECT_EQ(table.size(), ref.size());
  EXPECT_EQ(table.empty(), ref.empty());
  uint64_t mass = 0;
  for (const auto& [key, size] : table) {
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << key.ToHex();
    EXPECT_EQ(size, it->second) << key.ToHex();
    mass += size;
  }
  uint64_t ref_mass = 0;
  FlowTable<Key> copy = table;
  for (const auto& [key, size] : ref) {
    ref_mass += size;
    const auto it = table.find(key);
    ASSERT_NE(it, table.end()) << key.ToHex();
    EXPECT_TRUE(it->first == key) << key.ToHex();
    EXPECT_EQ(it->second, size) << key.ToHex();
    EXPECT_EQ(table.count(key), 1u) << key.ToHex();
    EXPECT_EQ(table.at(key), size) << key.ToHex();
    EXPECT_EQ(copy[key], size) << key.ToHex();
  }
  EXPECT_EQ(mass, ref_mass);
  EXPECT_TRUE(copy == table);  // operator[] on present keys inserted nothing
  EXPECT_TRUE(FlowTable<Key>(ref.begin(), ref.end()) == table);
  EXPECT_EQ(table.find(absent), table.end());
  EXPECT_EQ(table.count(absent), 0u);
  EXPECT_THROW(table.at(absent), std::out_of_range);
  EXPECT_EQ(copy[absent], 0u);
  EXPECT_EQ(copy.size(), table.size() + 1);
  EXPECT_FALSE(copy == table);
  if (table.empty()) return;
  // Equality needs equal sizes and the same keys, not just as many.
  FlowTable<Key> bumped = table;
  ++bumped[table.begin()->first];
  EXPECT_FALSE(bumped == table);
  FlowTable<Key> swapped(std::next(table.begin()), table.end());
  swapped.Add(absent, table.begin()->second);
  EXPECT_FALSE(swapped == table);
}

template <typename Key>
void ExpectDecodeMatchesReference(size_t memory, uint64_t seed) {
  SCOPED_TRACE(testing::Message() << Key::kSize << "-byte keys");
  Rng rng(seed);
  CocoSketch<Key> sketch(memory, 2, seed);
  FeedSkewed(&sketch, RandomPool<Key>(4000, &rng), 40000, &rng);
  const auto ref = ReferenceDecode(sketch.Buckets());
  ASSERT_GT(ref.size(), 100u);
  for (simd::Tier t : simd::HostTiers()) {
    SCOPED_TRACE(simd::TierName(t));
    sketch.SetSimdTier(t);
    ExpectTableMatches(sketch.Decode(), ref, AbsentKey(ref, &rng));
  }
}

TEST(CocoSketchDecode, AddWordsKeepsKeysDifferingInOneByteApart) {
  // Keys that differ in a single byte, inserted from their padded words
  // into a table grown from its smallest slot array, so probe chains cross
  // often: a compare or copy that skipped any byte would merge or corrupt
  // them.
  Rng rng(9);
  const FiveTuple base = RandomKey<FiveTuple>(&rng);
  std::unordered_map<FiveTuple, uint64_t> ref;
  FlowTable<FiveTuple> table;
  for (size_t byte = 0; byte < FiveTuple::kSize; ++byte) {
    for (int value = 0; value < 256; value += 5) {
      FiveTuple key = base;
      key.data()[byte] = static_cast<uint8_t>(value);
      uint64_t words[FiveTuple::kWords];
      key.ToWords(words);
      const uint64_t size = 1 + rng.NextBelow(100);
      table.AddWords(words, size);
      ref[key] += size;
    }
  }
  ExpectTableMatches(table, ref, AbsentKey(ref, &rng));
}

TEST(CocoSketchDecode, MatchesReferenceOnEveryTierAndKeyWidth) {
  ExpectDecodeMatchesReference<IPv4Key>(KiB(16), 1);
  ExpectDecodeMatchesReference<IpPairKey>(KiB(16), 2);
  ExpectDecodeMatchesReference<FiveTuple>(KiB(16), 3);
  ExpectDecodeMatchesReference<keys::V6Tuple>(KiB(16), 4);
}

TEST(CocoSketchDecode, EmptySketchDecodesToEmptyTable) {
  CocoSketch<FiveTuple> sketch(KiB(16), 2, 5);
  for (simd::Tier t : simd::HostTiers()) {
    SCOPED_TRACE(simd::TierName(t));
    sketch.SetSimdTier(t);
    ExpectTableMatches(sketch.Decode(), {}, FiveTuple(1, 2, 3, 4, 6));
  }
}

TEST(CocoSketchDecode, MergedShardsSumKeysHeldInSeveralBuckets) {
  Rng rng(6);
  CocoSketch<FiveTuple> a(KiB(8), 2, 0x5eed), b(KiB(8), 2, 0x5eed);
  // Both shards see the same flows, so a flow can land in array 0 of one
  // and array 1 of the other.
  const auto pool = RandomPool<FiveTuple>(3000, &rng);
  FeedSkewed(&a, pool, 30000, &rng);
  FeedSkewed(&b, pool, 30000, &rng);
  CocoSketch<FiveTuple> merged(KiB(8), 2, 0x5eed);
  Rng merge_rng(7);
  ASSERT_TRUE(MergeAll(&merged, {&a, &b}, &merge_rng).ok);
  const auto ref = ReferenceDecode(merged.Buckets());
  // The merge must leave some key in two buckets, or summation goes
  // unexercised.
  ASSERT_GT(OccupiedBuckets(merged.Buckets()), ref.size());
  for (simd::Tier t : simd::HostTiers()) {
    SCOPED_TRACE(simd::TierName(t));
    merged.SetSimdTier(t);
    const auto table = merged.Decode();
    ExpectTableMatches(table, ref, AbsentKey(ref, &rng));
    EXPECT_EQ(metrics::TotalMass(table), merged.TotalValue());
  }
}

TEST(CocoSketchDecode, HwVariantMatchesScoredReference) {
  // HwCocoSketch records a flow in every array that replaced its key, so
  // one key can sit in several buckets; Decode scores each distinct key
  // once with Query() and drops the keys that score 0.
  Rng rng(8);
  HwCocoSketch<FiveTuple> hw(KiB(8), 2, DivisionMode::kExact, 0x5eed);
  FeedSkewed(&hw, RandomPool<FiveTuple>(3000, &rng), 30000, &rng);
  std::unordered_map<FiveTuple, uint64_t> scored;
  const auto& buckets = hw.Buckets();
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets.Value(i) == 0) continue;
    const FiveTuple key = buckets.KeyAt(i);
    scored.emplace(key, hw.Query(key));
  }
  ASSERT_GT(OccupiedBuckets(buckets), scored.size());
  std::unordered_map<FiveTuple, uint64_t> ref;
  for (const auto& [key, est] : scored) {
    if (est != 0) ref.emplace(key, est);
  }
  ASSERT_GT(ref.size(), 100u);
  for (simd::Tier t : simd::HostTiers()) {
    SCOPED_TRACE(simd::TierName(t));
    hw.SetSimdTier(t);
    ExpectTableMatches(hw.Decode(), ref, AbsentKey(ref, &rng));
  }
}


// --- The bucket-sketch core's contract, over both variants -----------------
// Reseed, RestoreState, seed rotation, merge and Clear live once, in
// core/bucket_sketch.h and its downstream headers; these tests hold every
// variant to the same contract.

struct CocoVariant {
  using Sketch = CocoSketch<FiveTuple>;
  static Sketch Make(uint64_t seed) { return Sketch(KiB(8), 2, seed); }
};

template <DivisionMode kMode>
struct HwVariant {
  using Sketch = HwCocoSketch<FiveTuple>;
  static Sketch Make(uint64_t seed) { return Sketch(KiB(8), 2, kMode, seed); }
};

using Variants = ::testing::Types<CocoVariant, HwVariant<DivisionMode::kExact>,
                                  HwVariant<DivisionMode::kApproximate>>;

struct VariantNames {
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, CocoVariant>) return "Coco";
    if constexpr (std::is_same_v<T, HwVariant<DivisionMode::kExact>>) {
      return "HwExact";
    }
    return "HwApproximate";
  }
};

template <typename Variant>
class BucketSketchContract : public ::testing::Test {
 protected:
  using Sketch = typename Variant::Sketch;

  // The same skewed updates for every call with the same `stream`.
  void Feed(Sketch* sketch, uint64_t stream) {
    Rng rng(stream);
    FeedSkewed(sketch, pool_, 20000, &rng);
  }

  static bool AllDirty(const Sketch& sketch) {
    const auto& flags = sketch.DirtyFlags();
    return !flags.empty() && std::all_of(flags.begin(), flags.end(),
                                         [](uint8_t f) { return f == 1; });
  }

  const std::vector<FiveTuple> pool_ = [] {
    Rng rng(21);
    return RandomPool<FiveTuple>(2000, &rng);
  }();
};

TYPED_TEST_SUITE(BucketSketchContract, Variants, VariantNames);

TYPED_TEST(BucketSketchContract, ReseedOfClearedSketchMatchesFreshSketch) {
  auto reseeded = TypeParam::Make(0x1111);
  this->Feed(&reseeded, 1);
  reseeded.Clear();
  reseeded.Reseed(0x2222);
  EXPECT_EQ(reseeded.seed(), 0x2222u);
  auto fresh = TypeParam::Make(0x2222);
  this->Feed(&reseeded, 2);
  this->Feed(&fresh, 2);
  EXPECT_EQ(reseeded.SerializeState(), fresh.SerializeState());
}

TYPED_TEST(BucketSketchContract, ForeignSeedRestoreMatchesFreshSketch) {
  auto source = TypeParam::Make(0x2222);
  this->Feed(&source, 3);
  const auto image = source.SerializeState();
  auto foreign = TypeParam::Make(0x1111);
  this->Feed(&foreign, 1);
  ASSERT_TRUE(foreign.RestoreState(image));
  EXPECT_EQ(foreign.seed(), 0x2222u);
  auto fresh = TypeParam::Make(0x2222);
  ASSERT_TRUE(fresh.RestoreState(image));
  this->Feed(&foreign, 2);
  this->Feed(&fresh, 2);
  EXPECT_EQ(foreign.SerializeState(), fresh.SerializeState());
}

TYPED_TEST(BucketSketchContract, SameSeedRestoreKeepsTheRng) {
  auto sketch = TypeParam::Make(0x2222);
  this->Feed(&sketch, 3);
  const auto image = sketch.SerializeState();
  auto untouched = sketch;
  ASSERT_TRUE(sketch.RestoreState(image));
  auto fresh = TypeParam::Make(0x2222);
  ASSERT_TRUE(fresh.RestoreState(image));
  this->Feed(&sketch, 2);
  this->Feed(&untouched, 2);
  this->Feed(&fresh, 2);
  EXPECT_EQ(sketch.SerializeState(), untouched.SerializeState());
  // A restarted RNG draws differently: the check above would see a reset.
  EXPECT_NE(sketch.SerializeState(), fresh.SerializeState());
}

TYPED_TEST(BucketSketchContract, RotateSeedMatchesReplayIntoFreshSketch) {
  auto sketch = TypeParam::Make(0x1111);
  sketch.EnableDeltaTracking();
  this->Feed(&sketch, 1);
  const uint64_t mass_before = sketch.TotalValue();

  // Reference rotation: replay the decode, heaviest first (key bytes break
  // ties), into a sketch built with the new seed.
  auto reference = TypeParam::Make(0x2222);
  const auto table = sketch.Decode();
  std::vector<std::pair<FiveTuple, uint64_t>> flows(table.begin(),
                                                    table.end());
  std::sort(flows.begin(), flows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return std::memcmp(a.first.data(), b.first.data(), FiveTuple::kSize) < 0;
  });
  uint64_t replayed_mass = 0;
  for (const auto& [key, estimate] : flows) {
    ASSERT_LE(estimate, UINT32_MAX);
    reference.Update(key, static_cast<uint32_t>(estimate));
    replayed_mass += estimate;
  }

  const RotationStats stats = RotateSeed(&sketch, 0x2222);
  EXPECT_EQ(sketch.SerializeState(), reference.SerializeState());
  EXPECT_EQ(stats.old_seed, 0x1111u);
  EXPECT_EQ(stats.new_seed, 0x2222u);
  EXPECT_EQ(stats.mass_before, mass_before);
  EXPECT_EQ(stats.mass_after, reference.TotalValue());
  EXPECT_EQ(stats.replayed_mass, replayed_mass);
  EXPECT_EQ(stats.flows_replayed, flows.size());
  EXPECT_TRUE(stats.mass_conserved);
  EXPECT_TRUE(sketch.DeltaTrackingEnabled());
  const SketchStats got = sketch.Stats(), want = reference.Stats();
  EXPECT_EQ(got.updates, want.updates);
  EXPECT_EQ(got.pass1_misses, want.pass1_misses);
  EXPECT_EQ(got.key_replacements, want.key_replacements);
  // The RNG also continues from the same point.
  this->Feed(&sketch, 2);
  this->Feed(&reference, 2);
  EXPECT_EQ(sketch.SerializeState(), reference.SerializeState());
}

TYPED_TEST(BucketSketchContract, ClearRestoreMergeAndRotationMarkEveryBucket) {
  auto sketch = TypeParam::Make(0x1111);
  sketch.EnableDeltaTracking();
  this->Feed(&sketch, 1);
  auto other = TypeParam::Make(0x1111);
  this->Feed(&other, 2);

  sketch.ClearDirtyFlags();
  ASSERT_FALSE(this->AllDirty(sketch));
  Rng rng(5);
  ASSERT_TRUE(MergeSketches(&sketch, other, &rng).ok);
  EXPECT_TRUE(this->AllDirty(sketch)) << "merge";

  sketch.ClearDirtyFlags();
  RotateSeed(&sketch, 0x2222);
  EXPECT_TRUE(this->AllDirty(sketch)) << "rotation";

  sketch.ClearDirtyFlags();
  ASSERT_TRUE(sketch.RestoreState(other.SerializeState()));
  EXPECT_TRUE(this->AllDirty(sketch)) << "restore";

  const SketchStats before = sketch.Stats();
  ASSERT_GT(before.updates, 0u);
  ASSERT_GT(before.pass1_misses, 0u);
  ASSERT_GT(before.key_replacements, 0u);
  ASSERT_GT(before.total_value, 0u);
  sketch.ClearDirtyFlags();
  sketch.Clear();
  EXPECT_TRUE(this->AllDirty(sketch)) << "clear";
  const SketchStats after = sketch.Stats();
  EXPECT_EQ(after.updates, 0u);
  EXPECT_EQ(after.pass1_misses, 0u);
  EXPECT_EQ(after.key_replacements, 0u);
  EXPECT_EQ(after.total_value, 0u);
  EXPECT_EQ(after.buckets_occupied, 0u);
  EXPECT_EQ(sketch.TotalValue(), 0u);
}

}  // namespace
}  // namespace coco::core
