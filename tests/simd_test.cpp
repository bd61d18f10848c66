// SIMD tier tests: the AVX2 tier must be invisible except for speed. Three
// layers of checking:
//
//   1. Kernel contracts — every ops_avx2.h kernel against the scalar
//      reference in ops_scalar.h on adversarial and random inputs, the
//      word-array key compares against a byte-compare reference, and the
//      register-probe ("Short") key kernels against the word-array ones.
//   2. Dispatch — COCO_SIMD parsing, ceiling clamping, process default and
//      per-instance override.
//   3. Byte-identical state — the full matrix of {per-packet, batched} x
//      {scalar, avx2} x d in {1,2,4,8} x memory (L1 to DRAM-ish) x key
//      widths (8B IpPairKey, 13B FiveTuple, 37B V6Tuple) must serialize to
//      the same bytes, and merge / state-image round-trips must agree
//      across tiers.
//
// The tiers run are simd::HostTiers(): on a host without AVX2 only the
// scalar rows run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"
#include "core/merge.h"
#include "keys/v6.h"
#include "ovs/steering.h"
#include "simd/dispatch.h"
#include "simd/ops.h"
#include "trace/generators.h"

namespace coco::simd {
namespace {

using core::CocoSketch;
using core::DivisionMode;
using core::HwCocoSketch;
using core::PaddedKey;
using keys::V6Tuple;

// ---- 1. Kernel contracts ---------------------------------------------------

std::vector<uint32_t> RandomCounters(size_t n, uint64_t seed,
                                     double zero_fraction) {
  Rng rng(seed);
  std::vector<uint32_t> v(n);
  for (auto& x : v) {
    x = rng.NextBelow(1000) < static_cast<uint64_t>(zero_fraction * 1000)
            ? 0
            : rng.Next32();
  }
  return v;
}

TEST(SimdKernels, CounterScansMatchScalar) {
  // Lengths straddle the 8-lane AVX2 stride plus ragged tails; zero
  // fractions hit the all-zero and no-zero edges.
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                   size_t{8}, size_t{9}, size_t{64}, size_t{1000},
                   size_t{4097}}) {
    for (double zf : {0.0, 0.5, 0.9, 1.0}) {
      const auto v = RandomCounters(n, n * 31 + static_cast<uint64_t>(zf * 7),
                                    zf);
      const uint64_t sum = scalar::SumU32(v.data(), n);
      const size_t nz = scalar::CountNonZero(v.data(), n);
      const uint32_t mx = scalar::MaxU32(v.data(), n);
      const uint32_t mn = scalar::MinNonZeroU32(v.data(), n);
      std::vector<size_t> occupied;
      for (size_t i = 0; i < n; ++i) {
        if (v[i] != 0) occupied.push_back(i);
      }
      for (Tier t : HostTiers()) {
        EXPECT_EQ(SumU32(t, v.data(), n), sum) << TierName(t) << " n=" << n;
        EXPECT_EQ(CountNonZero(t, v.data(), n), nz) << TierName(t);
        EXPECT_EQ(MaxU32(t, v.data(), n), mx) << TierName(t);
        EXPECT_EQ(MinNonZeroU32(t, v.data(), n), mn) << TierName(t);
        // The walk visits every occupied index once, ascending, across
        // chunk boundaries (n = 1000 and 4097 span several chunks).
        std::vector<size_t> visited;
        ForEachNonZero(t, v.data(), n,
                       [&](size_t i) { visited.push_back(i); });
        EXPECT_EQ(visited, occupied) << TierName(t) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, SumU32DoesNotWrap) {
  // n * UINT32_MAX overflows 32 bits immediately; the widened accumulators
  // must carry the full 64-bit sum on every tier.
  std::vector<uint32_t> v(1027, UINT32_MAX);
  const uint64_t want = uint64_t{1027} * UINT32_MAX;
  for (Tier t : HostTiers()) {
    EXPECT_EQ(SumU32(t, v.data(), v.size()), want) << TierName(t);
  }
}

// Builds a d-array bucket universe with W words per key, plants `probe` at
// chosen arrays, and checks the word-array FindMatch/KeyEqMask (the update
// rules' compare for keys wider than 16 bytes) against a byte-compare
// reference: first occupied match, and the unconditional equality mask.
template <size_t W>
void CheckMatchKernels(uint64_t seed) {
  Rng rng(seed);
  constexpr size_t kL = 17;
  for (size_t d = 1; d <= 8; ++d) {
    std::vector<uint64_t> keys(d * kL * W);
    for (auto& w : keys) w = rng.Next();
    std::vector<uint32_t> values = RandomCounters(d * kL, seed ^ d, 0.3);
    uint64_t probe[W];
    for (auto& w : probe) w = rng.Next();
    size_t idx[8];
    for (size_t i = 0; i < d; ++i) idx[i] = i * kL + rng.NextBelow(kL);
    // Plant the probe key in a pseudo-random subset of the mapped slots;
    // some other slots get the probe with one word flipped.
    for (size_t i = 0; i < d; ++i) {
      const size_t pick = rng.NextBelow(3);
      if (pick == 0) continue;
      std::memcpy(&keys[idx[i] * W], probe, W * 8);
      if (pick == 2) keys[idx[i] * W + rng.NextBelow(W)] ^= 1;
    }
    int want_match = -1;
    uint32_t want_mask = 0;
    for (size_t i = 0; i < d; ++i) {
      const bool eq = std::memcmp(&keys[idx[i] * W], probe, W * 8) == 0;
      want_mask |= static_cast<uint32_t>(eq) << i;
      if (want_match < 0 && eq && values[idx[i]] != 0) {
        want_match = static_cast<int>(i);
      }
    }
    EXPECT_EQ(scalar::FindMatch<W>(keys.data(), values.data(), idx, d, probe),
              want_match)
        << "W=" << W << " d=" << d;
    EXPECT_EQ(scalar::KeyEqMask<W>(keys.data(), idx, d, probe), want_mask)
        << "W=" << W << " d=" << d;
  }
}

TEST(SimdKernels, FindMatchAndMaskMatchScalar) {
  CheckMatchKernels<1>(0x11);  // 8-byte keys
  CheckMatchKernels<2>(0x22);  // 13/16-byte keys
  CheckMatchKernels<5>(0x55);  // 37-byte V6Tuple
}

// The register probe must reproduce PaddedKey's exact words (pad bytes
// zero) and the Short kernels must agree with the generic word-array
// kernels on the same universe — first-match index semantics included.
template <size_t kSize>
void CheckShortProbeKernels(uint64_t seed) {
  constexpr size_t W = (kSize + 7) / 8;
  Rng rng(seed);
  uint8_t key_bytes[kSize];
  for (auto& b : key_bytes) b = static_cast<uint8_t>(rng.Next32());

  // Probe words == the padded stored representation.
  uint64_t padded[2] = {0, 0};
  std::memcpy(padded, key_bytes, kSize);
  const auto sp = scalar::MakeShortProbe<kSize>(key_bytes);
  EXPECT_EQ(sp.w0, padded[0]) << "kSize=" << kSize;
  if constexpr (W == 2) EXPECT_EQ(sp.w1, padded[1]) << "kSize=" << kSize;

  constexpr size_t kL = 11;
  for (size_t d = 1; d <= 8; ++d) {
    std::vector<uint64_t> keys(d * kL * W, 0);
    for (auto& w : keys) w = rng.Next();
    std::vector<uint32_t> values = RandomCounters(d * kL, seed ^ d, 0.4);
    size_t idx[8];
    for (size_t i = 0; i < d; ++i) idx[i] = i * kL + rng.NextBelow(kL);
    for (size_t i = 0; i < d; ++i) {
      if (rng.NextBelow(2) == 0) {
        std::memcpy(&keys[idx[i] * W], padded, W * 8);
      }
    }
    const int want_match =
        scalar::FindMatch<W>(keys.data(), values.data(), idx, d, padded);
    const uint32_t want_mask =
        scalar::KeyEqMask<W>(keys.data(), idx, d, padded);
    EXPECT_EQ(scalar::FindMatchShort<kSize>(keys.data(), values.data(), idx,
                                            d, sp),
              want_match)
        << "kSize=" << kSize << " d=" << d;
    EXPECT_EQ(scalar::KeyEqMaskShort<kSize>(keys.data(), idx, d, sp),
              want_mask);
    // StoreShortKey writes the exact padded slot bytes.
    std::vector<uint64_t> stored(W, ~uint64_t{0});
    scalar::StoreShortKey<kSize>(stored.data(), 0, sp);
    EXPECT_EQ(std::memcmp(stored.data(), padded, W * 8), 0);
  }
}

TEST(SimdKernels, ShortProbeKernelsMatchGeneric) {
  CheckShortProbeKernels<4>(0xa4);   // IPv4Key
  CheckShortProbeKernels<8>(0xa8);   // IpPairKey — single-word probe
  CheckShortProbeKernels<13>(0xad);  // FiveTuple — overlapping tail load
  CheckShortProbeKernels<16>(0xb0);  // full two words, zero pad
}

// ---- 2. Dispatch -----------------------------------------------------------

TEST(SimdDispatch, ParseTierAcceptsKnownNamesOnly) {
  Tier t = Tier::kAvx2;
  EXPECT_TRUE(ParseTier("scalar", &t));
  EXPECT_EQ(t, Tier::kScalar);
  EXPECT_TRUE(ParseTier("avx2", &t));
  EXPECT_EQ(t, Tier::kAvx2);
  EXPECT_FALSE(ParseTier("sse2", &t)) << "no SSE2 tier";
  EXPECT_FALSE(ParseTier(nullptr, &t));
  EXPECT_FALSE(ParseTier("", &t));
  EXPECT_FALSE(ParseTier("AVX2", &t));
  EXPECT_FALSE(ParseTier("avx512", &t));
  EXPECT_EQ(t, Tier::kAvx2) << "failed parse must not clobber the output";
}

TEST(SimdDispatch, ClampNeverExceedsDetectedCeiling) {
  const Tier ceiling = DetectTier();
  for (Tier t : {Tier::kScalar, Tier::kAvx2}) {
    EXPECT_LE(static_cast<int>(ClampTier(t)), static_cast<int>(ceiling));
    EXPECT_LE(static_cast<int>(ClampTier(t)), static_cast<int>(t));
  }
  EXPECT_EQ(ClampTier(Tier::kScalar), Tier::kScalar);
}

TEST(SimdDispatch, EnvOverrideSelectsRequestedTier) {
  // ResolveTier re-reads the environment each call (the process default
  // caches it once; sketches capture from the default at construction).
  ASSERT_EQ(setenv("COCO_SIMD", "scalar", 1), 0);
  EXPECT_EQ(ResolveTier(), Tier::kScalar);
  ASSERT_EQ(setenv("COCO_SIMD", "avx2", 1), 0);
  EXPECT_EQ(ResolveTier(), ClampTier(Tier::kAvx2));
  ASSERT_EQ(setenv("COCO_SIMD", "sse2", 1), 0);
  EXPECT_EQ(ResolveTier(), DetectTier()) << "sse2 is not a tier name";
  ASSERT_EQ(setenv("COCO_SIMD", "bogus", 1), 0);
  EXPECT_EQ(ResolveTier(), DetectTier()) << "unknown names fall back";
  ASSERT_EQ(unsetenv("COCO_SIMD"), 0);
  EXPECT_EQ(ResolveTier(), DetectTier());
}

TEST(SimdDispatch, ProcessDefaultAndInstanceOverride) {
  const Tier saved = ActiveTier();
  SetActiveTier(Tier::kScalar);
  CocoSketch<FiveTuple> picks_default(KiB(16), 2, 0x1);
  EXPECT_EQ(picks_default.SimdTier(), Tier::kScalar);
  SetActiveTier(saved);
  CocoSketch<FiveTuple> unaffected(KiB(16), 2, 0x1);
  EXPECT_EQ(unaffected.SimdTier(), saved);
  // Existing instances keep their captured tier until overridden...
  EXPECT_EQ(picks_default.SimdTier(), Tier::kScalar);
  // ...and the per-instance override clamps to the host ceiling.
  picks_default.SetSimdTier(Tier::kAvx2);
  EXPECT_EQ(picks_default.SimdTier(), ClampTier(Tier::kAvx2));
}

// ---- 3. Byte-identical state matrix ----------------------------------------

const std::vector<Packet>& FiveTupleTrace() {
  static const std::vector<Packet> trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(60'000));
  return trace;
}

// UpdateBatch accepts any record with .key/.weight; these synthesize traces
// for the other key widths.
template <typename Key>
struct KeyedPacket {
  Key key;
  uint32_t weight = 1;
};

const std::vector<KeyedPacket<IpPairKey>>& IpPairTrace() {
  static const std::vector<KeyedPacket<IpPairKey>> trace = [] {
    Rng r(0xa11cec0de);
    std::vector<KeyedPacket<IpPairKey>> t;
    t.reserve(50'000);
    // ~4k flows, heavy-tailed: low ranks repeat often.
    for (size_t i = 0; i < 50'000; ++i) {
      const uint32_t rank = static_cast<uint32_t>(
          r.NextBelow(1 + r.NextBelow(1 + r.NextBelow(4096))));
      t.push_back({IpPairKey(0x0a000000u + rank, 0xc0a80000u + (rank >> 3)),
                   1 + static_cast<uint32_t>(r.NextBelow(9))});
    }
    return t;
  }();
  return trace;
}

const std::vector<KeyedPacket<V6Tuple>>& V6Trace() {
  static const std::vector<KeyedPacket<V6Tuple>> trace = [] {
    Rng r(0x6666);
    std::vector<KeyedPacket<V6Tuple>> t;
    t.reserve(40'000);
    for (size_t i = 0; i < 40'000; ++i) {
      const uint64_t rank = r.NextBelow(1 + r.NextBelow(1 + r.NextBelow(2048)));
      uint8_t src[16] = {}, dst[16] = {};
      StoreBE64(src, 0x20010db8ULL << 32);
      StoreBE64(src + 8, rank);
      StoreBE64(dst, 0xfe80ULL << 48);
      StoreBE64(dst + 8, rank * 0x9e3779b9ULL);
      t.push_back({V6Tuple(src, dst, static_cast<uint16_t>(rank),
                           static_cast<uint16_t>(443 + (rank & 7)), 6),
                   1 + static_cast<uint32_t>(r.NextBelow(5))});
    }
    return t;
  }();
  return trace;
}

// Runs the {per-packet, batched} x host-tiers identity matrix for one trace
// against a scalar per-packet reference with identical construction.
template <typename Key, typename Record>
void CheckStateMatrix(const std::vector<Record>& trace, size_t memory_bytes,
                      size_t d, uint64_t seed) {
  CocoSketch<Key> reference(memory_bytes, d, seed);
  reference.SetSimdTier(Tier::kScalar);
  for (const Record& r : trace) reference.Update(r.key, r.weight);
  const std::vector<uint8_t> want = reference.SerializeState();

  for (Tier t : HostTiers()) {
    CocoSketch<Key> per_packet(memory_bytes, d, seed);
    per_packet.SetSimdTier(t);
    for (const Record& r : trace) per_packet.Update(r.key, r.weight);
    EXPECT_EQ(per_packet.SerializeState(), want)
        << "per-packet tier=" << TierName(t) << " d=" << d
        << " mem=" << memory_bytes;

    CocoSketch<Key> batched(memory_bytes, d, seed);
    batched.SetSimdTier(t);
    batched.UpdateBatch(trace.data(), trace.size());
    EXPECT_EQ(batched.SerializeState(), want)
        << "batched tier=" << TierName(t) << " d=" << d
        << " mem=" << memory_bytes;
  }
}

TEST(SimdStateMatrix, FiveTupleAcrossTiersDepthsAndMemory) {
  // Memory spans L1-resident (24 KiB) through larger-than-L2 (500 KiB, the
  // paper's Fig. 14 operating point).
  for (size_t mem : {KiB(24), KiB(192), KiB(500)}) {
    for (size_t d : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      CheckStateMatrix<FiveTuple>(FiveTupleTrace(), mem, d, 0xc0c0 + d);
    }
  }
}

TEST(SimdStateMatrix, SingleWordKeyAcrossTiers) {
  for (size_t d : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    CheckStateMatrix<IpPairKey>(IpPairTrace(), KiB(64), d, 0x8b + d);
  }
}

TEST(SimdStateMatrix, WideV6KeyAcrossTiers) {
  // 37-byte keys take the wide-key (PaddedKey + vector compare) path.
  for (size_t d : {size_t{1}, size_t{2}, size_t{4}}) {
    CheckStateMatrix<V6Tuple>(V6Trace(), KiB(256), d, 0x76 + d);
  }
}

// The hardware variant's matrix: batched on every host tier against a
// scalar per-packet reference, both division modes.
template <typename Key, typename Record>
void CheckHwStateMatrix(const std::vector<Record>& trace, size_t d,
                        uint64_t seed) {
  for (auto division : {DivisionMode::kExact, DivisionMode::kApproximate}) {
    HwCocoSketch<Key> reference(KiB(96), d, division, seed);
    reference.SetSimdTier(Tier::kScalar);
    for (const Record& r : trace) reference.Update(r.key, r.weight);
    const auto want = reference.SerializeState();
    for (Tier t : HostTiers()) {
      HwCocoSketch<Key> batched(KiB(96), d, division, seed);
      batched.SetSimdTier(t);
      batched.UpdateBatch(trace.data(), trace.size());
      EXPECT_EQ(batched.SerializeState(), want)
          << "hw tier=" << TierName(t) << " d=" << d << " key bytes "
          << Key::kSize;
    }
  }
}

TEST(SimdStateMatrix, HwSketchAcrossTiers) {
  for (size_t d : {size_t{1}, size_t{2}, size_t{4}}) {
    CheckHwStateMatrix<FiveTuple>(FiveTupleTrace(), d, 0xbe + d);
    // 37-byte keys take the word-array mask instead of the register probe.
    CheckHwStateMatrix<V6Tuple>(V6Trace(), d, 0xbe + d);
  }
}

TEST(SimdStateMatrix, ShardedAcrossTiers) {
  // Steered shards (the datapath's RSS split) fed through each tier's
  // batched path stay byte-identical to the scalar tier, shard by shard.
  const auto& trace = FiveTupleTrace();
  const ovs::FlowSteering steering(0x5a, 4);
  std::vector<std::vector<Packet>> groups(4);
  for (const Packet& p : trace) groups[steering.Shard(p.key)].push_back(p);
  const auto run = [&](Tier t) {
    std::vector<std::vector<uint8_t>> images;
    for (const auto& g : groups) {
      CocoSketch<FiveTuple> shard(KiB(32), 2, 0x5a);
      shard.SetSimdTier(t);
      shard.UpdateBatch(g.data(), g.size());
      images.push_back(shard.SerializeState());
    }
    return images;
  };
  const auto reference = run(Tier::kScalar);
  for (Tier t : HostTiers()) {
    const auto images = run(t);
    for (size_t s = 0; s < images.size(); ++s) {
      EXPECT_EQ(images[s], reference[s])
          << "tier=" << TierName(t) << " shard=" << s;
    }
  }
}

TEST(SimdStateMatrix, DecodeAndScansAgreeAcrossTiers) {
  const auto& trace = FiveTupleTrace();
  CocoSketch<FiveTuple> reference(KiB(64), 2, 0xdec0);
  reference.SetSimdTier(Tier::kScalar);
  reference.UpdateBatch(trace.data(), trace.size());
  const auto want_decode = reference.Decode();
  for (Tier t : HostTiers()) {
    CocoSketch<FiveTuple> sk(KiB(64), 2, 0xdec0);
    sk.SetSimdTier(t);
    sk.UpdateBatch(trace.data(), trace.size());
    EXPECT_EQ(sk.Decode(), want_decode) << TierName(t);
    EXPECT_EQ(sk.TotalValue(), reference.TotalValue()) << TierName(t);
    const auto stats = sk.Stats();
    const auto want_stats = reference.Stats();
    EXPECT_EQ(stats.buckets_occupied, want_stats.buckets_occupied);
    EXPECT_EQ(stats.max_bucket_value, want_stats.max_bucket_value);
    EXPECT_EQ(stats.min_occupied_value, want_stats.min_occupied_value);
  }
}

TEST(SimdStateMatrix, MergeAgreesAcrossTiers) {
  const auto& trace = FiveTupleTrace();
  const size_t half = trace.size() / 2;
  std::vector<uint8_t> want;
  for (Tier t : HostTiers()) {
    CocoSketch<FiveTuple> a(KiB(64), 2, 0x3e);
    CocoSketch<FiveTuple> b(KiB(64), 2, 0x3e);
    a.SetSimdTier(t);
    b.SetSimdTier(t);
    a.UpdateBatch(trace.data(), half);
    b.UpdateBatch(trace.data() + half, trace.size() - half);
    Rng merge_rng(0x3e77);  // identical draw sequence per tier
    core::MergeSketches(&a, b, &merge_rng);
    const auto got = a.SerializeState();
    if (want.empty()) {
      want = got;
    } else {
      EXPECT_EQ(got, want) << "merge on tier " << TierName(t);
    }
  }
  ASSERT_FALSE(want.empty());
}

TEST(SimdStateMatrix, StateImageRoundTripsAcrossTiers) {
  const auto& trace = FiveTupleTrace();
  CocoSketch<FiveTuple> source(KiB(64), 2, 0x1111);
  source.SetSimdTier(HostTiers().back());  // best tier writes the image
  source.UpdateBatch(trace.data(), trace.size());
  const auto image = source.SerializeState();
  for (Tier t : HostTiers()) {
    CocoSketch<FiveTuple> restored(KiB(64), 2, 0x1111);
    restored.SetSimdTier(t);
    ASSERT_TRUE(restored.RestoreState(image)) << TierName(t);
    EXPECT_EQ(restored.SerializeState(), image) << TierName(t);
  }
  // A truncated image is rejected on every tier without touching state.
  std::vector<uint8_t> truncated(image.begin(), image.end() - 5);
  CocoSketch<FiveTuple> untouched(KiB(64), 2, 0x1111);
  EXPECT_FALSE(untouched.RestoreState(truncated));
  EXPECT_EQ(untouched.TotalValue(), 0u);
}

}  // namespace
}  // namespace coco::simd
