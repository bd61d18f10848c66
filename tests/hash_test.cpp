// Unit tests for src/hash: determinism, seed independence, avalanche
// behaviour, bucket-distribution uniformity of the hash family, and golden
// values that pin Hash64 / HashU64 / MultiHash / the steering split, and
// the word-level Hash64Words / FixedKey::HashWords against them.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hash/bobhash.h"
#include "hash/multihash.h"
#include "keys/v6.h"
#include "ovs/steering.h"
#include "packet/keys.h"

namespace coco::hash {
namespace {

TEST(BobHash, Deterministic) {
  const char* data = "cocosketch";
  EXPECT_EQ(BobHash32(data, 10, 1), BobHash32(data, 10, 1));
}

TEST(BobHash, SeedChangesOutput) {
  const char* data = "cocosketch";
  EXPECT_NE(BobHash32(data, 10, 1), BobHash32(data, 10, 2));
}

TEST(BobHash, LengthMatters) {
  const char* data = "cocosketchcocosketch";
  EXPECT_NE(BobHash32(data, 10, 1), BobHash32(data, 11, 1));
}

TEST(BobHash, EmptyInput) {
  // Must not crash and must be seed-dependent even for empty input... the
  // lookup3 zero-length path returns the initialized state, which embeds the
  // seed.
  EXPECT_NE(BobHash32(nullptr, 0, 1), BobHash32(nullptr, 0, 99));
}

TEST(BobHash, AllBlockSizes) {
  // Exercise every tail-switch arm (1..12 bytes) and the >12 loop.
  uint8_t buf[64];
  for (size_t i = 0; i < sizeof(buf); ++i) buf[i] = static_cast<uint8_t>(i);
  std::set<uint32_t> outputs;
  for (size_t len = 1; len <= sizeof(buf); ++len) {
    outputs.insert(BobHash32(buf, len, 7));
  }
  EXPECT_EQ(outputs.size(), sizeof(buf));  // all distinct
}

TEST(BobHash, SingleBitAvalanche) {
  // Flipping any single input bit should flip roughly half the output bits.
  uint8_t base[13] = {};
  const uint32_t h0 = BobHash32(base, sizeof(base), 3);
  double total_flips = 0;
  int cases = 0;
  for (size_t byte = 0; byte < sizeof(base); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      uint8_t mod[13] = {};
      mod[byte] = static_cast<uint8_t>(1 << bit);
      const uint32_t h1 = BobHash32(mod, sizeof(mod), 3);
      total_flips += __builtin_popcount(h0 ^ h1);
      ++cases;
    }
  }
  const double mean_flips = total_flips / cases;
  EXPECT_GT(mean_flips, 12.0);  // ideal is 16 of 32
  EXPECT_LT(mean_flips, 20.0);
}

TEST(Hash64, DeterministicAndSeeded) {
  const char* data = "partial key";
  EXPECT_EQ(Hash64(data, 11, 5), Hash64(data, 11, 5));
  EXPECT_NE(Hash64(data, 11, 5), Hash64(data, 11, 6));
}

TEST(Hash64, ShortAndLongInputs) {
  std::set<uint64_t> outputs;
  uint8_t buf[40];
  std::memset(buf, 0xa5, sizeof(buf));
  for (size_t len = 0; len <= sizeof(buf); ++len) {
    outputs.insert(Hash64(buf, len, 0));
  }
  EXPECT_EQ(outputs.size(), sizeof(buf) + 1);
}

TEST(HashU64, MixesValues) {
  EXPECT_NE(HashU64(0, 0), HashU64(1, 0));
  EXPECT_NE(HashU64(5, 1), HashU64(5, 2));
}

TEST(HashFamily, IndependentIndices) {
  HashFamily family(123);
  const char* data = "flowkey";
  EXPECT_NE(family(0, data, 7), family(1, data, 7));
  EXPECT_NE(family(1, data, 7), family(2, data, 7));
}

TEST(HashFamily, BucketUniformity) {
  // Chi-squared-style check: hashing distinct keys into 64 buckets should
  // produce near-uniform occupancy.
  HashFamily family(77);
  const size_t buckets = 64;
  const size_t n = 64000;
  std::vector<size_t> histogram(buckets, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = i * 0x9e3779b97f4a7c15ULL;  // distinct structured keys
    ++histogram[family(0, &key, sizeof(key)) % buckets];
  }
  const double expected = static_cast<double>(n) / buckets;
  double chi2 = 0;
  for (size_t c : histogram) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // 63 degrees of freedom; 99.9th percentile is ~103.
  EXPECT_LT(chi2, 110.0);
}

TEST(HashFamily, PairwiseRowIndependenceProxy) {
  // Rows of a sketch must not be correlated: the joint distribution of
  // (h0 % 16, h1 % 16) over many keys should cover all 256 cells.
  HashFamily family(31337);
  std::set<std::pair<uint32_t, uint32_t>> cells;
  for (uint64_t i = 0; i < 8192; ++i) {
    cells.insert({family(0, &i, sizeof(i)) % 16, family(1, &i, sizeof(i)) % 16});
  }
  EXPECT_EQ(cells.size(), 256u);
}

TEST(MultiHash, DeterministicAndSeeded) {
  MultiHash a(42, 4, 1024), b(42, 4, 1024), c(43, 4, 1024);
  const char* key = "flowkey";
  uint32_t sa[4], sb[4], sc[4];
  a.Slots(key, 7, sa);
  b.Slots(key, 7, sb);
  c.Slots(key, 7, sc);
  bool seed_differs = false;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sa[i], sb[i]);
    EXPECT_LT(sa[i], 1024u);
    seed_differs |= sa[i] != sc[i];
  }
  EXPECT_TRUE(seed_differs);
}

TEST(MultiHash, PerArrayUniformity) {
  // Unbiasedness of the index derivation: for each of the d arrays, the
  // derived slot over many distinct keys must be uniform over the width.
  // Chi-squared over 64 cells, 63 dof, 99.9th percentile ~103.
  const size_t buckets = 64, d = 4, n = 64000;
  MultiHash mh(0x5eed, d, buckets);
  std::vector<std::vector<size_t>> histogram(d,
                                             std::vector<size_t>(buckets, 0));
  for (size_t k = 0; k < n; ++k) {
    uint64_t key = k * 0x9e3779b97f4a7c15ULL;
    uint32_t slot[4];
    mh.Slots(&key, sizeof(key), slot);
    for (size_t i = 0; i < d; ++i) ++histogram[i][slot[i]];
  }
  const double expected = static_cast<double>(n) / buckets;
  for (size_t i = 0; i < d; ++i) {
    double chi2 = 0;
    for (size_t c : histogram[i]) {
      const double diff = static_cast<double>(c) - expected;
      chi2 += diff * diff / expected;
    }
    EXPECT_LT(chi2, 110.0) << "array " << i;
  }
}

TEST(MultiHash, PerArrayUniformityOverPartialKeys) {
  // CocoSketch hashes both full 5-tuples (13 bytes) and DynKey partial keys
  // of varying length; the derivation must stay unbiased for every key
  // shape. Build keys of lengths 1..16 from a structured counter.
  const size_t buckets = 32, d = 3;
  MultiHash mh(0x10ad, d, buckets);
  std::vector<std::vector<size_t>> histogram(d,
                                             std::vector<size_t>(buckets, 0));
  size_t n = 0;
  // Lengths 3..16 so every (length, counter) pair is a distinct key: the
  // counter fits in the low 3 bytes, so keys within a stratum never repeat
  // (repeats would double-count samples and void the chi-squared model).
  for (size_t len = 3; len <= 16; ++len) {
    for (uint32_t k = 0; k < 4000; ++k) {
      uint8_t buf[16] = {};
      const uint64_t v = (static_cast<uint64_t>(len) << 48) + k;
      std::memcpy(buf, &v, len < 8 ? len : 8);
      uint32_t slot[3];
      mh.Slots(buf, len, slot);
      for (size_t i = 0; i < d; ++i) ++histogram[i][slot[i]];
      ++n;
    }
  }
  const double expected = static_cast<double>(n) / buckets;
  for (size_t i = 0; i < d; ++i) {
    double chi2 = 0;
    for (size_t c : histogram[i]) {
      const double diff = static_cast<double>(c) - expected;
      chi2 += diff * diff / expected;
    }
    // 31 dof, 99.9th percentile ~61.1.
    EXPECT_LT(chi2, 65.0) << "array " << i;
  }
}

TEST(MultiHash, JointSpreadAcrossArrays) {
  // The d-choice rule degrades if arrays are lockstep-correlated: the joint
  // distribution of (slot0, slot1) over many keys must cover all cells, as
  // the HashFamily pairwise test requires of independent rows.
  MultiHash mh(31337, 2, 16);
  std::set<std::pair<uint32_t, uint32_t>> cells;
  for (uint64_t i = 0; i < 8192; ++i) {
    uint32_t slot[2];
    mh.Slots(&i, sizeof(i), slot);
    cells.insert({slot[0], slot[1]});
  }
  EXPECT_EQ(cells.size(), 256u);
}

TEST(MultiHash, OnePassMatchesRepeatedCalls) {
  // Slots is a pure function of (seed, key): repeated calls and fresh
  // instances agree, which the batched update path relies on.
  MultiHash mh(7, 4, 977);
  uint8_t key[13] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  uint32_t first[4], again[4];
  mh.Slots(key, sizeof(key), first);
  mh.Slots(key, sizeof(key), again);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(first[i], again[i]);
}

TEST(HashFamily, PrecomputedSeedsMatchDerivedFallback) {
  // Indices beyond the precomputed window must produce the same function as
  // the precomputed ones do for their index — i.e. the family is consistent
  // regardless of which path computed the seed.
  HashFamily family(0xfeed);
  const char* data = "some key bytes";
  // Same input, many indices: all distinct outputs (no seed collapse).
  std::set<uint32_t> outputs;
  for (size_t i = 0; i < 40; ++i) outputs.insert(family(i, data, 14));
  EXPECT_EQ(outputs.size(), 40u);
}


// Golden values. Hash64 feeds the v3 state-image and frame checksums, the
// flow-steering split and every std::hash on a key type (so unordered-map
// iteration order); MultiHash::Slots feeds sketch state. The literals below
// were produced by the original out-of-line Hash64 (per-length memcpy tail),
// so they pin the inline constant-size-load version to it bit for bit.
// Every buffer is a heap block of exactly the hashed length, so an
// overlapping tail load that strayed outside the key would trip ASan.

uint8_t GoldenByte(size_t i) { return static_cast<uint8_t>(i * 131 + 7); }

// Exactly `len` pattern bytes starting `offset` bytes into a fresh heap
// block of `offset + len` bytes.
std::vector<uint8_t> GoldenBuffer(size_t len, size_t offset) {
  std::vector<uint8_t> buf(offset + len);
  for (size_t i = 0; i < len; ++i) buf[offset + i] = GoldenByte(i);
  return buf;
}

constexpr uint64_t kGoldenSeeds[3] = {0, 0x9e3779b97f4a7c15ULL, 12345};

TEST(Hash64, GoldenValuesEveryLengthAndSeed) {
  // kGolden[len][s] = Hash64(GoldenByte(0..len-1), len, kGoldenSeeds[s]).
  static constexpr uint64_t kGolden[41][3] = {
    {0x0000000000000000ULL, 0x9ca066f1a4ab2eeaULL, 0x17d2abfbf90baef9ULL},
    {0x3ace5b8ed06d2028ULL, 0xf51de1055b6d41c1ULL, 0x91fb9a41908a00faULL},
    {0x3a0182355e4e807dULL, 0x1ec1a9650fc3ec67ULL, 0xc3b7503fdd0d0b95ULL},
    {0x212fa8440b91741bULL, 0x3f3958f491305d20ULL, 0x3d3345785955ab38ULL},
    {0xed02aee6aef5b8bfULL, 0x43967c571fdfc43eULL, 0xc0ba5e0f8785e60aULL},
    {0x663144308b1752c1ULL, 0xcf79aa55a52664c8ULL, 0x7b9b36c54aef632cULL},
    {0x8522532ca05ccfdcULL, 0xdb9178d9f8774430ULL, 0xf17cefe7ae8837f8ULL},
    {0xe9f03a19c0c1d54cULL, 0x56d86b50cc95fe29ULL, 0x88a9d22ad91b6447ULL},
    {0x900df5b7dbf3483dULL, 0xb1a8be8efa598aa0ULL, 0xc84985c9f89f1ae4ULL},
    {0x0e4011630892928eULL, 0x92768e79237b3de7ULL, 0x88def4926fa98117ULL},
    {0x60e58c1710fd80faULL, 0x21fdcf1c37f284dcULL, 0x076472fdb37e0b1dULL},
    {0x8c84b940b34047deULL, 0x69a9cfdd33b54f62ULL, 0x91c4b8c3a3e1c550ULL},
    {0xad4cd9da58128126ULL, 0x477cb03832f517b5ULL, 0x492caea586d9ee06ULL},
    {0xc126315bae084cafULL, 0x3271f8eec71306edULL, 0xfd7379982dfd1ee0ULL},
    {0x2f09913b9ab36401ULL, 0x1dbba2a22ba2ec6aULL, 0x0357e115b5c5951dULL},
    {0xadfc1eab58d98767ULL, 0xdc92f56e612ca3c5ULL, 0xd763b7b33f5898d1ULL},
    {0x89c2fcaa8617f624ULL, 0xf2446a2571125a12ULL, 0x6d2e07a715148018ULL},
    {0xdeb1ddc8642b4dccULL, 0xe7b80b7dd86a001dULL, 0x20dbcc85ee1cc9d4ULL},
    {0x15cb42e1e1eb3715ULL, 0x4491032cbc1983aaULL, 0xe29723bf04f2e5f8ULL},
    {0xeafd5ee8da80d702ULL, 0x8f653cce5bf27cedULL, 0x9e86c2a9b65aad5dULL},
    {0xc416ef3957632e57ULL, 0xd949d1c6afe74cd2ULL, 0x9095b77d6f2fc542ULL},
    {0x710426fc494dea75ULL, 0xb591e3b9e2530fdfULL, 0x2b8bba0669663d9dULL},
    {0x420206a9c593069aULL, 0xa932bf1e12aec135ULL, 0x9469ef6358db26ffULL},
    {0xf9f2b524d480cf41ULL, 0xaab7cbb08a6e6cdbULL, 0x94a916a7206a6192ULL},
    {0xe9a2fc204ff33f43ULL, 0x65f411f5ddd9dfcbULL, 0x269d2247f28069a8ULL},
    {0xf451a02a3f639789ULL, 0x93a2dfd38f8c7092ULL, 0xcc2dbbb0c370932fULL},
    {0x4514fffdb6e34b93ULL, 0xbf4bb63038e6cfa6ULL, 0x9f99b893f0befbe2ULL},
    {0x68413e5b2280c938ULL, 0x00b96dbe20f0e946ULL, 0x971da87c15036fc7ULL},
    {0xeb25ad0b6645fd70ULL, 0xd8a656af18493bc1ULL, 0xfc92267dc81f461cULL},
    {0x23e41ed168581e14ULL, 0x879dc71140174788ULL, 0x54ac39d7fd837255ULL},
    {0xac0ebe602ea8e468ULL, 0xfbf5fc012f406758ULL, 0x3f468d149031bf29ULL},
    {0x82fcbce021e1b5a0ULL, 0xad4f640b1297a03dULL, 0x01ebd86162c9f036ULL},
    {0xb01d7e91f8f91b0cULL, 0x4fc92cbbac2a52b4ULL, 0xe6ddc7d4eb9e4ca4ULL},
    {0x9d84407e8e470cc5ULL, 0x083c083e0aa2773eULL, 0x6659f2b6c374221aULL},
    {0xa1dd02316f3b7988ULL, 0x3f4dabe1f102e0c7ULL, 0x87771675ecf5280dULL},
    {0x845e96f993c96b89ULL, 0x8b116a1b1d0e9f49ULL, 0x308371faaa0dd0b8ULL},
    {0x21df66ba81e46372ULL, 0x8c1e2bb8bb1f57a3ULL, 0xe728553ae1adf071ULL},
    {0x7080d1b489848446ULL, 0xa7d1f9c3b65765e9ULL, 0x9ae5c04c37a06babULL},
    {0x9d24df78fc8c3d2aULL, 0x7d7ae40edfc65d2eULL, 0x4b231b2ee5f68cf4ULL},
    {0xb5a10d1fea8860ceULL, 0x3d8384239e615617ULL, 0x3717c3b1fb0db205ULL},
    {0x44086a8800621fc8ULL, 0x2d50e78b9de68cfdULL, 0xc45bcd3875a7de99ULL},
  };
  for (size_t len = 0; len <= 40; ++len) {
    // Offsets 0 (the vector's aligned start) and 1..7 (unaligned starts).
    for (size_t offset = 0; offset < 8; ++offset) {
      const std::vector<uint8_t> buf = GoldenBuffer(len, offset);
      for (size_t s = 0; s < 3; ++s) {
        EXPECT_EQ(Hash64(buf.data() + offset, len, kGoldenSeeds[s]),
                  kGolden[len][s])
            << "len " << len << " offset " << offset << " seed " << s;
      }
    }
  }
}

// The word-level form reads a key as the zero-padded words a bucket slot
// holds (FixedKey::ToWords); it must give Hash64 of the key bytes, bit for
// bit, at every length (so every tail size 0..7).
TEST(Hash64Words, MatchesHash64AtEveryLengthAndSeed) {
  for (size_t len = 0; len <= 40; ++len) {
    const std::vector<uint8_t> buf = GoldenBuffer(len, 0);
    std::vector<uint64_t> words((len + 7) / 8, 0);
    if (len > 0) std::memcpy(words.data(), buf.data(), len);
    for (const uint64_t seed : kGoldenSeeds) {
      EXPECT_EQ(Hash64Words(words.data(), len, seed),
                Hash64(buf.data(), len, seed))
          << "len " << len << " seed " << seed;
    }
  }
}

// FixedKey::HashWords equals Key::Hash() on random keys of a width.
template <typename Key>
void ExpectHashWordsMatchesHash(uint64_t rng_seed) {
  Rng rng(rng_seed);
  for (int trial = 0; trial < 2000; ++trial) {
    Key key;
    for (size_t i = 0; i < Key::kSize; ++i) {
      key.data()[i] = static_cast<uint8_t>(rng.Next());
    }
    uint64_t words[Key::kWords];
    key.ToWords(words);
    const uint64_t seed = trial % 2 == 0 ? 0 : rng.Next();
    ASSERT_EQ(Key::HashWords(words, seed), key.Hash(seed))
        << Key::kSize << "-byte key " << key.ToHex() << " seed " << seed;
  }
}

TEST(Hash64Words, FixedKeyHashWordsMatchesHashAtEveryWidthInUse) {
  ExpectHashWordsMatchesHash<IPv4Key>(4);         // tail word only
  ExpectHashWordsMatchesHash<IpPairKey>(8);       // one full word
  ExpectHashWordsMatchesHash<FiveTuple>(13);      // full word + tail
  ExpectHashWordsMatchesHash<keys::V6Tuple>(37);  // four full words + tail
}

TEST(Hash64Words, GoldenFiveTuple) {
  const FiveTuple key(0x0a000001, 0xc0a80001, 1234, 80, 6);
  uint64_t words[FiveTuple::kWords];
  key.ToWords(words);
  EXPECT_EQ(FiveTuple::HashWords(words), 0x76bd3ea993fc9f1dULL);
  EXPECT_EQ(FiveTuple::HashWords(words, 12345), 0x70488106357f22cfULL);
}

TEST(HashU64, GoldenValues) {
  static constexpr uint64_t kValues[4] = {0, 1, 0xdeadbeefULL, ~0ULL};
  static constexpr uint64_t kGolden[4][3] = {
    {0x0000000000000000ULL, 0x9ca066f1a4ab2eeaULL, 0x17d2abfbf90baef9ULL},
    {0x9c72959912c1208fULL, 0xadbc45d64795dca9ULL, 0x0f744c0f53bb9363ULL},
    {0xa5989a7265a99334ULL, 0xaf21cf02425e2465ULL, 0xd1b208c3deca5194ULL},
    {0x78e53b289c9454a1ULL, 0x629dd41d96ad1c80ULL, 0x7ee3b399f0c0bee6ULL},
  };
  for (size_t v = 0; v < 4; ++v) {
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(HashU64(kValues[v], kGoldenSeeds[s]), kGolden[v][s]);
    }
  }
}

TEST(MultiHash, GoldenSlotsEveryShortLength) {
  // Width 2^32 makes each slot the top 32 bits of h1 + a_i * h2, so these
  // pin KeyHash (and its shared tail loader) over every fast-path length.
  static constexpr uint32_t kGolden[21][2] = {
    {0x8579c1e6u, 0x57346f29u},
    {0xe70cabebu, 0x25b85f98u},
    {0x87af42adu, 0x7a7d0b6au},
    {0x5f1a5621u, 0xe8bf1b45u},
    {0xfa9d72ebu, 0x3b9a60adu},
    {0x6c035f7cu, 0x0552d3f9u},
    {0xde0b5053u, 0xdd5457b0u},
    {0x912df7fbu, 0xa98d1864u},
    {0xdd169e91u, 0x220ad46eu},
    {0xb68c2b81u, 0x0aaf6085u},
    {0x8ddc089cu, 0xc90bc5d8u},
    {0x479832edu, 0x49ae6f61u},
    {0x8d2a7f23u, 0x363a3297u},
    {0x3efc2ac7u, 0x91354b50u},
    {0x1e1d6e18u, 0x90fcd602u},
    {0xbaa4e2eau, 0x3132fd50u},
    {0x98b7e2ebu, 0x459dee04u},
    {0xb9df7087u, 0x1197a596u},
    {0xb4518eacu, 0xa7ee7b2cu},
    {0x04be50e4u, 0x851a1503u},
    {0x8ecd191eu, 0x3d4da4adu},
  };
  const MultiHash mh(0x5eed, 2, size_t{1} << 32);
  for (size_t len = 0; len <= 20; ++len) {
    for (size_t offset = 0; offset < 8; offset += 3) {
      const std::vector<uint8_t> buf = GoldenBuffer(len, offset);
      uint32_t slot[2];
      mh.Slots(buf.data() + offset, len, slot);
      EXPECT_EQ(slot[0], kGolden[len][0]) << "len " << len;
      EXPECT_EQ(slot[1], kGolden[len][1]) << "len " << len;
    }
  }
}

TEST(FlowSteering, GoldenShardSplit) {
  // shard of key i, one digit per key, for 2 and 8 shards under seed 42.
  const std::pair<size_t, std::string> kGolden[] = {
      {2, "011100110111011100010101010010010110000101110010"},
      {8, "065512443446066501352435141270342450020734761071"},
  };
  for (const auto& [shards, expected] : kGolden) {
    const ovs::FlowSteering steering(42, shards);
    std::string split;
    for (uint32_t i = 0; i < expected.size(); ++i) {
      const FiveTuple key(0x0a000000u + i * 2654435761u, 0xc0a80001u ^ (i << 8),
                          static_cast<uint16_t>(1000 + i), 80,
                          static_cast<uint8_t>(6 + (i & 1) * 11));
      split += static_cast<char>('0' + steering.Shard(key));
    }
    EXPECT_EQ(split, expected) << shards << " shards";
  }
}

TEST(Hash64, GoldenStdHashOfKeys) {
  // std::hash on key types orders every unordered flow table.
  const FiveTuple tuple(0x0a000001u, 0xc0a80001u, 1234, 80, 6);
  DynKey prefix;
  prefix.buf[0] = 10;
  prefix.buf[1] = 1;
  prefix.bits = 16;
  EXPECT_EQ(std::hash<FiveTuple>{}(tuple), size_t{0x76bd3ea993fc9f1dULL});
  EXPECT_EQ(std::hash<DynKey>{}(prefix), size_t{0xa818ecf4410676a6ULL});
}

}  // namespace
}  // namespace coco::hash
