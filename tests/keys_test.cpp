// Unit and property tests for src/packet and src/keys: key layouts, the
// field tables, the partial-key mappings g(.) and their inverse, bit-level
// packing, and the subset-sum identity of Definition 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "keys/key_spec.h"
#include "keys/v6.h"
#include "packet/keys.h"
#include "trace/ground_truth.h"

namespace coco {
namespace {

using keys::Field;
using keys::FieldInfo;
using keys::FieldSel;
using keys::PrefixPairSpec;
using keys::PrefixSpec;
using keys::TupleKeySpec;

TEST(FiveTuple, AccessorsRoundTrip) {
  FiveTuple t(0x0a000001, 0xc0a80101, 1234, 443, 6);
  EXPECT_EQ(t.src_ip(), 0x0a000001u);
  EXPECT_EQ(t.dst_ip(), 0xc0a80101u);
  EXPECT_EQ(t.src_port(), 1234);
  EXPECT_EQ(t.dst_port(), 443);
  EXPECT_EQ(t.proto(), 6);
}

TEST(FiveTuple, NetworkByteOrderLayout) {
  FiveTuple t(0x01020304, 0, 0x0506, 0, 0);
  EXPECT_EQ(t.bytes[0], 0x01);  // SrcIP MSB first
  EXPECT_EQ(t.bytes[3], 0x04);
  EXPECT_EQ(t.bytes[8], 0x05);  // SrcPort MSB
}

TEST(FiveTuple, EqualityAndHash) {
  FiveTuple a(1, 2, 3, 4, 5), b(1, 2, 3, 4, 5), c(1, 2, 3, 4, 6);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(std::hash<FiveTuple>{}(a), std::hash<FiveTuple>{}(b));
}

TEST(FiveTuple, ToString) {
  FiveTuple t(0x01020304, 0x05060708, 10, 20, 6);
  EXPECT_EQ(t.ToString(), "1.2.3.4:10->5.6.7.8:20/6");
}

TEST(DynKey, EqualityIncludesBitLength) {
  DynKey a, b;
  a.bits = 8;
  b.bits = 16;  // same zero bytes, different significance
  EXPECT_FALSE(a == b);
  b.bits = 8;
  EXPECT_EQ(a, b);
}

TEST(DynKey, SizeRoundsUp) {
  DynKey k;
  k.bits = 9;
  EXPECT_EQ(k.size(), 2u);
  k.bits = 0;
  EXPECT_EQ(k.size(), 0u);
  k.bits = 8;
  EXPECT_EQ(k.size(), 1u);
}

TEST(TupleKeySpec, FullTupleIsIdentityLayout) {
  FiveTuple t(0x0a0b0c0d, 0x01020304, 80, 443, 17);
  const DynKey k = TupleKeySpec::FullTuple().Apply(t);
  EXPECT_EQ(k.bits, 104);
  EXPECT_EQ(std::memcmp(k.data(), t.data(), 13), 0);
}

TEST(TupleKeySpec, SrcIpExtractsField) {
  FiveTuple t(0xdeadbeef, 0x01020304, 80, 443, 6);
  const DynKey k = TupleKeySpec::SrcIp().Apply(t);
  EXPECT_EQ(k.bits, 32);
  EXPECT_EQ(LoadBE32(k.data()), 0xdeadbeefu);
}

TEST(TupleKeySpec, DstIpDstPortLayout) {
  FiveTuple t(1, 0xc0a80001, 1000, 8080, 6);
  const DynKey k = TupleKeySpec::DstIpDstPort().Apply(t);
  EXPECT_EQ(k.bits, 48);
  EXPECT_EQ(LoadBE32(k.data()), 0xc0a80001u);
  EXPECT_EQ(LoadBE16(k.data() + 4), 8080);
}

TEST(TupleKeySpec, ByteAlignedPrefixMasksTail) {
  FiveTuple t(0x0a0b0c0d, 0, 0, 0, 0);
  const DynKey k = TupleKeySpec::SrcIpPrefix(24).Apply(t);
  EXPECT_EQ(k.bits, 24);
  EXPECT_EQ(k.data()[0], 0x0a);
  EXPECT_EQ(k.data()[1], 0x0b);
  EXPECT_EQ(k.data()[2], 0x0c);
  EXPECT_EQ(k.buf[3], 0x00);  // /24 dropped the last octet entirely
}

TEST(TupleKeySpec, NonByteAlignedPrefixMasksWithinByte) {
  FiveTuple t(0xffffffff, 0, 0, 0, 0);
  const DynKey k = TupleKeySpec::SrcIpPrefix(20).Apply(t);
  EXPECT_EQ(k.bits, 20);
  EXPECT_EQ(k.data()[0], 0xff);
  EXPECT_EQ(k.data()[1], 0xff);
  EXPECT_EQ(k.data()[2], 0xf0);  // top 4 bits of the third octet only
}

TEST(TupleKeySpec, PrefixesOfSameAddressNest) {
  FiveTuple t(0xc0a80155, 0, 0, 0, 0);
  const DynKey k16 = TupleKeySpec::SrcIpPrefix(16).Apply(t);
  const DynKey k24 = TupleKeySpec::SrcIpPrefix(24).Apply(t);
  EXPECT_EQ(std::memcmp(k16.data(), k24.data(), 2), 0);
  EXPECT_NE(k16, k24);  // bit lengths differ even when bytes agree
}

TEST(TupleKeySpec, DefaultSixNamesAndSizes) {
  const auto specs = TupleKeySpec::DefaultSix();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name(), "5-tuple");
  EXPECT_EQ(specs[0].total_bits(), 104);
  EXPECT_EQ(specs[1].total_bits(), 64);   // (SrcIP, DstIP)
  EXPECT_EQ(specs[2].total_bits(), 48);   // (SrcIP, SrcPort)
  EXPECT_EQ(specs[4].total_bits(), 32);   // SrcIP
}

TEST(PrefixSpec, HierarchyShape) {
  const auto levels = PrefixSpec::Hierarchy();
  ASSERT_EQ(levels.size(), 33u);  // "32 prefixes + 1 empty key"
  EXPECT_EQ(levels.front().bits(), 32);
  EXPECT_EQ(levels.back().bits(), 0);
}

TEST(PrefixSpec, EmptyKeyAggregatesEverything) {
  const PrefixSpec root(0);
  const DynKey a = root.Apply(IPv4Key(0x01010101));
  const DynKey b = root.Apply(IPv4Key(0xffffffff));
  EXPECT_EQ(a, b);
}

TEST(PrefixPairSpec, HierarchyShape) {
  const auto levels = PrefixPairSpec::Hierarchy();
  EXPECT_EQ(levels.size(), 33u * 33u);
}

TEST(PrefixPairSpec, SplitPointDisambiguates) {
  // (8 src bits, 16 dst bits) and (16, 8) can produce the same bytes; the
  // appended split byte must keep them distinct.
  IpPairKey key(0xAAAAAAAA, 0xAAAAAAAA);
  const DynKey a = PrefixPairSpec(8, 16).Apply(key);
  const DynKey b = PrefixPairSpec(16, 8).Apply(key);
  EXPECT_FALSE(a == b);
}

// --- Property: the subset-sum identity of Definition 1 -------------------
// For any partial key spec g and any flow population, aggregating exact
// full-key counts through g must preserve total mass and satisfy
// f(e) = sum of f(e') over g(e') = e. We validate via ExactCounter.

// The default six, then specs off the byte grid and out of canonical order.
std::vector<TupleKeySpec> SubsetSumSpecs() {
  std::vector<TupleKeySpec> specs = TupleKeySpec::DefaultSix();
  specs.push_back(TupleKeySpec::SrcIpPrefix(20));
  specs.push_back(TupleKeySpec("(DstPort,SrcIP/9)",
                               {FieldSel(Field::kDstPort),
                                FieldSel(Field::kSrcIp, 9)}));
  specs.push_back(TupleKeySpec("(SrcIP/13,DstIP/27,Proto)",
                               {FieldSel(Field::kSrcIp, 13),
                                FieldSel(Field::kDstIp, 27),
                                FieldSel(Field::kProto)}));
  return specs;
}

class SubsetSumIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(SubsetSumIdentityTest, MassIsPreservedUnderAggregation) {
  const auto specs = SubsetSumSpecs();
  const TupleKeySpec& spec = specs[GetParam()];

  Rng rng(1000 + GetParam());
  trace::ExactCounter<FiveTuple> full;
  for (int i = 0; i < 5000; ++i) {
    FiveTuple t(static_cast<uint32_t>(rng.Next()),
                static_cast<uint32_t>(rng.Next()),
                static_cast<uint16_t>(rng.Next()),
                static_cast<uint16_t>(rng.Next()),
                rng.Bernoulli(0.5) ? 6 : 17);
    full.Add(t, 1 + rng.NextBelow(100));
  }

  const auto partial = full.Aggregate(spec);
  EXPECT_EQ(partial.Total(), full.Total());
  EXPECT_LE(partial.DistinctFlows(), full.DistinctFlows());

  // Spot-check the per-key identity for every partial key.
  std::unordered_map<DynKey, uint64_t> recomputed;
  for (const auto& [key, count] : full.counts()) {
    recomputed[spec.Apply(key)] += count;
  }
  EXPECT_EQ(recomputed.size(), partial.DistinctFlows());
  for (const auto& [key, count] : recomputed) {
    EXPECT_EQ(partial.Count(key), count);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDefaultSpecs, SubsetSumIdentityTest,
                         ::testing::Range(0, 6));
INSTANTIATE_TEST_SUITE_P(OffGridSpecs, SubsetSumIdentityTest,
                         ::testing::Range(6, 9));

// --- The field tables and the inverse of g(.) ------------------------------

TEST(KeyLayout, TablesMatchFullKeyAccessors) {
  const FiveTuple t(0x01020304, 0x05060708, 0x090a, 0x0b0c, 0x0d);
  const auto at = [&t](Field f) {
    return t.data() + TupleKeySpec::Find(f)->offset;
  };
  EXPECT_EQ(LoadBE32(at(Field::kSrcIp)), t.src_ip());
  EXPECT_EQ(LoadBE32(at(Field::kDstIp)), t.dst_ip());
  EXPECT_EQ(LoadBE16(at(Field::kSrcPort)), t.src_port());
  EXPECT_EQ(LoadBE16(at(Field::kDstPort)), t.dst_port());
  EXPECT_EQ(*at(Field::kProto), t.proto());

  uint8_t src[16], dst[16];
  for (int i = 0; i < 16; ++i) {
    src[i] = static_cast<uint8_t>(i + 1);
    dst[i] = static_cast<uint8_t>(0x80 + i);
  }
  const keys::V6Tuple v6(src, dst, 0x1234, 0x5678, 17);
  const auto at6 = [&v6](Field f) {
    return v6.data() + keys::V6KeySpec::Find(f)->offset;
  };
  EXPECT_EQ(std::memcmp(at6(Field::kSrcIp), v6.src_ip(), 16), 0);
  EXPECT_EQ(std::memcmp(at6(Field::kDstIp), v6.dst_ip(), 16), 0);
  EXPECT_EQ(LoadBE16(at6(Field::kSrcPort)), v6.src_port());
  EXPECT_EQ(LoadBE16(at6(Field::kDstPort)), v6.dst_port());
  EXPECT_EQ(*at6(Field::kProto), v6.proto());
  EXPECT_EQ(keys::V6KeySpec::Find(Field::kSrcIp)->bits, 128);

  const IpPairKey pair(0xa1a2a3a4, 0xb1b2b3b4);
  EXPECT_EQ(LoadBE32(pair.data() + PrefixPairSpec::Find(Field::kDstIp)->offset),
            pair.dst());
  EXPECT_EQ(PrefixSpec::Find(Field::kDstIp), nullptr);  // IPv4Key: one field

  // Names resolve case-insensitively, as SQL writes them.
  EXPECT_EQ(TupleKeySpec::Find("srcport"), TupleKeySpec::Find(Field::kSrcPort));
  EXPECT_EQ(TupleKeySpec::Find("PROTO"), TupleKeySpec::Find(Field::kProto));
  EXPECT_EQ(TupleKeySpec::Find("SrcPorts"), nullptr);
}

TEST(KeySpec, FullWidthSelectionResolvesPerLayout) {
  EXPECT_EQ(TupleKeySpec::SrcIp().fields()[0].prefix_bits, 32);
  EXPECT_EQ(keys::V6KeySpec::SrcIp().fields()[0].prefix_bits, 128);
  EXPECT_EQ(keys::V6KeySpec::FullTuple().total_bits(), 296);
  const TupleKeySpec spec("x", {FieldSel(Field::kSrcIp, 20),
                               FieldSel(Field::kDstPort)});
  EXPECT_EQ(spec.Label(0), "SrcIP/20");
  EXPECT_EQ(spec.Label(1), "DstPort");
  EXPECT_EQ(TupleKeySpec::SrcIp().Label(0), "SrcIP");  // /32 is the field
}

// The `bits` top bits of the `width`-bit big-endian field at `src`.
std::vector<uint8_t> MaskedField(const uint8_t* src, size_t width,
                                 size_t bits) {
  std::vector<uint8_t> out(src, src + width / 8);
  for (size_t b = 0; b < out.size(); ++b) {
    const size_t keep = bits > 8 * b ? std::min<size_t>(8, bits - 8 * b) : 0;
    out[b] &= static_cast<uint8_t>(0xff00u >> keep);
  }
  return out;
}

// Property: for random selections (any fields, any order, repeats, random
// prefixes on the address fields) and random full keys, UnpackField returns
// each selected field masked to its prefix, Unpack the masked full key, the
// packed bits beyond total_bits() are zero, and g(Unpack(g(k))) == g(k).
template <typename FullKey>
void ExpectUnpackInvertsApply(uint64_t seed) {
  using Spec = keys::KeySpec<FullKey>;
  const auto& table = keys::KeyLayout<FullKey>::kFields;
  Rng rng(seed);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<FieldSel> sels;
    size_t total = 0;
    const size_t want = 1 + rng.NextBelow(table.size() + 1);
    for (size_t s = 0; s < want; ++s) {
      const FieldInfo& info = table[rng.NextBelow(table.size())];
      const size_t bits = info.prefix ? rng.NextBelow(info.bits + 1u)
                                      : info.bits;
      if (total + bits > Spec::Packed::kCapacity * 8) continue;
      total += bits;
      sels.emplace_back(info.field, static_cast<uint8_t>(bits));
    }
    if (sels.empty()) continue;
    const Spec spec("random", sels);
    ASSERT_EQ(spec.total_bits(), total);
    for (int k = 0; k < 16; ++k) {
      FullKey full;
      for (uint8_t& b : full.bytes) b = static_cast<uint8_t>(rng.Next());
      const auto packed = spec.Apply(full);
      ASSERT_EQ(packed.bits, total);
      for (size_t bit = total; bit < Spec::Packed::kCapacity * 8; ++bit) {
        ASSERT_EQ((packed.buf[bit / 8] >> (7 - bit % 8)) & 1, 0)
            << "padding bit " << bit;
      }
      FullKey masked;
      for (size_t i = 0; i < sels.size(); ++i) {
        const FieldInfo& info = spec.info(i);
        const std::vector<uint8_t> expected =
            MaskedField(full.data() + info.offset, info.bits,
                        sels[i].prefix_bits);
        std::vector<uint8_t> got(info.bits / 8);
        spec.UnpackField(packed, i, got.data());
        ASSERT_EQ(got, expected) << "field " << spec.Label(i);
        for (size_t b = 0; b < expected.size(); ++b) {
          masked.bytes[info.offset + b] |= expected[b];
        }
      }
      ASSERT_TRUE(spec.Unpack(packed) == masked);
      ASSERT_TRUE(spec.Apply(spec.Unpack(packed)) == packed);
    }
  }
}

TEST(KeySpec, UnpackInvertsApplyOnEveryLayout) {
  ExpectUnpackInvertsApply<FiveTuple>(11);
  ExpectUnpackInvertsApply<keys::V6Tuple>(12);
  ExpectUnpackInvertsApply<IPv4Key>(13);
  ExpectUnpackInvertsApply<IpPairKey>(14);
}

TEST(PrefixPairSpec, UnpackIgnoresSplitByte) {
  Rng rng(15);
  for (const PrefixPairSpec& spec : PrefixPairSpec::Hierarchy()) {
    const IpPairKey key(static_cast<uint32_t>(rng.Next()),
                        static_cast<uint32_t>(rng.Next()));
    const IpPairKey back = spec.Unpack(spec.Apply(key));
    const auto mask = [](uint8_t bits) {
      return bits == 0 ? 0u : ~uint32_t{0} << (32 - bits);
    };
    ASSERT_EQ(back.src(), key.src() & mask(spec.src_bits()));
    ASSERT_EQ(back.dst(), key.dst() & mask(spec.dst_bits()));
  }
}

// Prefix hierarchies must nest: level (b) aggregates of level (b+1)
// aggregates equal direct level (b) aggregates.
TEST(PrefixSpec, HierarchyNests) {
  Rng rng(77);
  trace::ExactCounter<IPv4Key> full;
  for (int i = 0; i < 2000; ++i) {
    full.Add(IPv4Key(static_cast<uint32_t>(rng.Next())), 1);
  }
  for (uint8_t bits : {24, 16, 8, 0}) {
    const auto direct = full.Aggregate(PrefixSpec(bits));
    EXPECT_EQ(direct.Total(), full.Total()) << "bits=" << int{bits};
  }
}

// Word-wise FixedKey equality (1-2 unaligned 64-bit loads for N <= 16) must
// agree with byte-wise comparison for every differing-byte position —
// especially inside the overlap region of the two loads for 8 < N < 16.
TEST(FixedKeyEquality, EveryBytePositionDistinguishes) {
  auto check = [](auto key_tag) {
    using K = decltype(key_tag);
    K a{}, b{};
    for (size_t i = 0; i < K::kSize; ++i) a.bytes[i] = static_cast<uint8_t>(i + 1);
    b = a;
    EXPECT_TRUE(a == b);
    for (size_t i = 0; i < K::kSize; ++i) {
      K c = a;
      c.bytes[i] ^= 0x80;
      EXPECT_FALSE(a == c) << "size=" << K::kSize << " byte=" << i;
      EXPECT_FALSE(c == a) << "size=" << K::kSize << " byte=" << i;
    }
  };
  check(FixedKey<1>{});
  check(FixedKey<4>{});   // IPv4Key width: single sub-word load
  check(FixedKey<8>{});   // IpPairKey width: exactly one 64-bit load
  check(FixedKey<13>{});  // FiveTuple width: overlapping loads (bytes 5-7
                          // covered by both)
  check(FixedKey<16>{});  // two exact loads
  check(FixedKey<20>{});  // fallback byte-wise path
}

TEST(FixedKeyEquality, FiveTupleSemanticAgreement) {
  const FiveTuple a(0x0a000001, 0x0a000002, 80, 443, 6);
  const FiveTuple same(0x0a000001, 0x0a000002, 80, 443, 6);
  FiveTuple proto_differs = a;
  proto_differs.bytes[12] = 17;  // last byte: only seen by the second load
  EXPECT_TRUE(a == same);
  EXPECT_FALSE(a == proto_differs);
  EXPECT_EQ(a == same, a.bytes == same.bytes);
  EXPECT_EQ(a == proto_differs, a.bytes == proto_differs.bytes);
}

}  // namespace
}  // namespace coco
