#include "hash/bobhash.h"

#include <cstring>

namespace coco::hash {
namespace {

inline uint32_t Rot(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

inline void Mix(uint32_t& a, uint32_t& b, uint32_t& c) {
  a -= c; a ^= Rot(c, 4);  c += b;
  b -= a; b ^= Rot(a, 6);  a += c;
  c -= b; c ^= Rot(b, 8);  b += a;
  a -= c; a ^= Rot(c, 16); c += b;
  b -= a; b ^= Rot(a, 19); a += c;
  c -= b; c ^= Rot(b, 4);  b += a;
}

inline void Final(uint32_t& a, uint32_t& b, uint32_t& c) {
  c ^= b; c -= Rot(b, 14);
  a ^= c; a -= Rot(c, 11);
  b ^= a; b -= Rot(a, 25);
  c ^= b; c -= Rot(b, 16);
  a ^= c; a -= Rot(c, 4);
  b ^= a; b -= Rot(a, 14);
  c ^= b; c -= Rot(b, 24);
}

}  // namespace

uint32_t BobHash32(const void* data, size_t len, uint32_t seed) {
  const uint8_t* k = static_cast<const uint8_t*>(data);
  uint32_t a = 0xdeadbeef + static_cast<uint32_t>(len) + seed;
  uint32_t b = a;
  uint32_t c = a;

  while (len > 12) {
    uint32_t w0, w1, w2;
    std::memcpy(&w0, k, 4);
    std::memcpy(&w1, k + 4, 4);
    std::memcpy(&w2, k + 8, 4);
    a += w0;
    b += w1;
    c += w2;
    Mix(a, b, c);
    len -= 12;
    k += 12;
  }

  // Tail: assemble remaining bytes little-endian, as in Jenkins' hashlittle
  // byte-at-a-time path (portable regardless of alignment).
  switch (len) {
    case 12: c += static_cast<uint32_t>(k[11]) << 24; [[fallthrough]];
    case 11: c += static_cast<uint32_t>(k[10]) << 16; [[fallthrough]];
    case 10: c += static_cast<uint32_t>(k[9]) << 8; [[fallthrough]];
    case 9:  c += k[8]; [[fallthrough]];
    case 8:  b += static_cast<uint32_t>(k[7]) << 24; [[fallthrough]];
    case 7:  b += static_cast<uint32_t>(k[6]) << 16; [[fallthrough]];
    case 6:  b += static_cast<uint32_t>(k[5]) << 8; [[fallthrough]];
    case 5:  b += k[4]; [[fallthrough]];
    case 4:  a += static_cast<uint32_t>(k[3]) << 24; [[fallthrough]];
    case 3:  a += static_cast<uint32_t>(k[2]) << 16; [[fallthrough]];
    case 2:  a += static_cast<uint32_t>(k[1]) << 8; [[fallthrough]];
    case 1:  a += k[0]; break;
    case 0:  return c;
  }
  Final(a, b, c);
  return c;
}

}  // namespace coco::hash
