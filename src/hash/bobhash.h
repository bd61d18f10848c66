// 32-bit Bob Jenkins hash ("Bob Hash", the paper's hash of choice for the CPU
// implementation, reference [83]) plus a 64-bit Murmur3-style hash used where
// we want 64 bits of output from one pass (e.g. deriving two indices).
//
// Both are seedable; independent hash functions are obtained by distinct
// seeds, matching how the paper instantiates the d array hashes.
//
// Hash64, HashU64 and Fmix64 are defined inline here: they run per packet
// (flow steering, std::hash on every key type, MultiHash::Slots), and an
// out-of-line call cost more than the mix itself. Hash64 reads its <8-byte
// tail with constant-size loads only (LoadTail) — never a runtime-length
// memcpy, which compiles to a byte-by-byte stack copy reloaded as one word
// and stalls store-to-load forwarding. The output is the same function of
// the bytes as a zero-padded little-endian tail word; tests/hash_test.cpp
// pins it with golden values, since state-image and frame checksums, the
// steering split and unordered-container order all depend on it.
//
// Hash64Words is the word-level form, for keys already held as zero-padded
// 64-bit words (the sketches' bucket slots, core/bucket_array.h). Hash64
// mixes a full 8-byte block as the little-endian word it loads, and a tail
// of t < 8 bytes as the zero-extended little-endian word LoadTail builds,
// marked with t << 56. A padded word array holds exactly those words: the
// full blocks verbatim and the tail in its last word with zero pad bytes.
// So mixing each full word as-is, and the last word with the same marker
// when len % 8 != 0, gives the same hash bit for bit — without re-reading
// the key as bytes, which a decode scan would have to copy out of the
// bucket array first. tests/hash_test.cpp checks the two agree.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/rng.h"

namespace coco::hash {

// Jenkins lookup3 (hashlittle). Deterministic across platforms for the same
// byte sequence; we only ever hash explicit byte buffers, never structs.
uint32_t BobHash32(const void* data, size_t len, uint32_t seed);

// The tail loads below assemble bytes as a little-endian word.
static_assert(std::endian::native == std::endian::little,
              "hash::LoadTail assumes a little-endian host");

// MurmurHash3 x64 finalizer.
inline uint64_t Fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

// The last `n` (< 8) bytes of the `len`-byte buffer at `data`, as a
// zero-extended little-endian word — what `memcpy(&w, data + len - n, n)`
// into a zeroed word yields — read with constant-size loads only, all
// inside the buffer. A buffer of >= 8 bytes takes one overlapping 8-byte
// load that ends at its last byte, shifted down; a shorter one takes two
// overlapping 4-byte loads, or a first/middle/last byte combination.
inline uint64_t LoadTail(const uint8_t* data, size_t len, size_t n) {
  if (n == 0) return 0;
  if (len >= 8) {
    uint64_t w;
    std::memcpy(&w, data + len - 8, 8);
    return w >> (8 * (8 - n));
  }
  const uint8_t* t = data + len - n;
  if (n >= 4) {
    uint32_t lo, hi;
    std::memcpy(&lo, t, 4);
    std::memcpy(&hi, t + n - 4, 4);
    return lo | (static_cast<uint64_t>(hi) << (8 * (n - 4)));
  }
  return t[0] | (static_cast<uint64_t>(t[n / 2]) << (8 * (n / 2))) |
         (static_cast<uint64_t>(t[n - 1]) << (8 * (n - 1)));
}

// One block step of Hash64's xor-fold: `k` is an 8-byte block, or the tail
// word already carrying its length marker.
inline uint64_t MixBlock(uint64_t h, uint64_t k) {
  return (h ^ Fmix64(k)) * 0x9ddfea08eb382d69ULL;
}

// 64-bit hash: MurmurHash3 x64 finalizer applied to a xor-folded block mix.
// Cheap, good avalanche; used by flow steering, trace generation, the flow
// tables and the state-image and frame checksums.
inline uint64_t Hash64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t h = seed ^ (len * 0xc6a4a7935bd1e995ULL);
  const size_t tail = len % 8;
  for (size_t i = 0; i < len - tail; i += 8) {
    uint64_t k;
    std::memcpy(&k, bytes + i, 8);
    h = MixBlock(h, k);
  }
  if (tail > 0) {
    const uint64_t k = LoadTail(bytes, len, tail);
    h = MixBlock(h, k | (static_cast<uint64_t>(tail) << 56));
  }
  return Fmix64(h);
}

// Hash64 of the `len` bytes held in (len + 7) / 8 words whose bytes past
// `len` are zero (see the header comment).
inline uint64_t Hash64Words(const uint64_t* words, size_t len, uint64_t seed) {
  uint64_t h = seed ^ (len * 0xc6a4a7935bd1e995ULL);
  const size_t full = len / 8;
  for (size_t i = 0; i < full; ++i) h = MixBlock(h, words[i]);
  if (const size_t tail = len % 8; tail > 0) {
    h = MixBlock(h, words[full] | (static_cast<uint64_t>(tail) << 56));
  }
  return Fmix64(h);
}

// Convenience for hashing small integers without building a buffer.
inline uint64_t HashU64(uint64_t value, uint64_t seed) {
  return Fmix64(value * 0x9ddfea08eb382d69ULL + seed);
}

// A family of independent 32-bit hash functions indexed by `i`, implemented
// as BobHash32 with per-index derived seeds. Sketches hold one HashFamily and
// address arrays with `family(i, key_bytes, len) % width`.
class HashFamily {
 public:
  // Default-constructed families draw the per-process entropy seed (see
  // coco::ProcessSeed) — the historical 0x5ee3 constant let a white-box
  // adversary precompute multi-way collisions. Pass an explicit seed for
  // determinism.
  explicit HashFamily(uint64_t seed = ProcessSeed()) : seed_(seed) {
    // Derived per-index seeds are precomputed once here; the previous
    // implementation re-ran the splitmix mix on every call, which showed up
    // in every sketch's per-packet hash cost.
    for (size_t i = 0; i < kPrecomputedSeeds; ++i) {
      derived_[i] = DeriveSeed(seed_, i);
    }
  }

  uint32_t operator()(size_t i, const void* data, size_t len) const {
    const uint32_t s =
        i < kPrecomputedSeeds ? derived_[i] : DeriveSeed(seed_, i);
    return BobHash32(data, len, s);
  }

  uint64_t seed() const { return seed_; }

 private:
  // Covers every sketch in the library (max depth is UnivMon's level count);
  // larger indices fall back to deriving on the fly with identical output.
  static constexpr size_t kPrecomputedSeeds = 32;

  // Mix the index into the seed with a splitmix-style step so adjacent
  // indices give unrelated hash functions.
  static uint32_t DeriveSeed(uint64_t seed, size_t i) {
    uint64_t s = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
    s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<uint32_t>(s ^ (s >> 32));
  }

  uint64_t seed_;
  uint32_t derived_[kPrecomputedSeeds];
};

}  // namespace coco::hash
