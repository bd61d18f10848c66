// IPv6 full keys and partial-key mappings — the "full key can be a large
// range of packet header fields" genericity of §2.2, demonstrated on the
// 296-bit IPv6 5-tuple. Everything in the library (sketches, query engine,
// metrics) is key-type generic, so these definitions are all IPv6 needs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "keys/key_spec.h"
#include "packet/keys.h"

namespace coco::keys {

// IPv6 5-tuple: SrcIP(16) DstIP(16) SrcPort(2) DstPort(2) Proto(1) = 37B.
struct V6Tuple : FixedKey<37> {
  V6Tuple() = default;
  V6Tuple(const uint8_t src[16], const uint8_t dst[16], uint16_t src_port,
          uint16_t dst_port, uint8_t proto) {
    std::memcpy(bytes.data(), src, 16);
    std::memcpy(bytes.data() + 16, dst, 16);
    StoreBE16(bytes.data() + 32, src_port);
    StoreBE16(bytes.data() + 34, dst_port);
    bytes[36] = proto;
  }

  const uint8_t* src_ip() const { return bytes.data(); }
  const uint8_t* dst_ip() const { return bytes.data() + 16; }
  uint16_t src_port() const { return LoadBE16(bytes.data() + 32); }
  uint16_t dst_port() const { return LoadBE16(bytes.data() + 34); }
  uint8_t proto() const { return bytes[36]; }
};

template <>
struct KeyLayout<V6Tuple> {
  using Packed = WideDynKey;
  static constexpr std::array<FieldInfo, 5> kFields{{
      {Field::kSrcIp, "SrcIP", 0, 128, true},
      {Field::kDstIp, "DstIP", 16, 128, true},
      {Field::kSrcPort, "SrcPort", 32, 16, false},
      {Field::kDstPort, "DstPort", 34, 16, false},
      {Field::kProto, "Proto", 36, 8, false},
  }};
};

// Partial key of the IPv6 5-tuple: the same field algebra as TupleKeySpec,
// with prefixes up to /128 on the address fields; packs into a WideDynKey
// (40-byte capacity).
class V6KeySpec : public KeySpec<V6Tuple> {
 public:
  using KeySpec::KeySpec;

  // Common specs, mirroring the IPv4 set.
  static V6KeySpec FullTuple() {
    return V6KeySpec("v6-5-tuple",
                     {FieldSel(Field::kSrcIp), FieldSel(Field::kDstIp),
                      FieldSel(Field::kSrcPort), FieldSel(Field::kDstPort),
                      FieldSel(Field::kProto)});
  }
  static V6KeySpec SrcIp() {
    return V6KeySpec("v6-SrcIP", {FieldSel(Field::kSrcIp)});
  }
  static V6KeySpec SrcIpPrefix(uint8_t bits) {
    return V6KeySpec("v6-SrcIP/" + std::to_string(bits),
                     {FieldSel(Field::kSrcIp, bits)});
  }
  static V6KeySpec SrcDstIp() {
    return V6KeySpec("v6-(SrcIP,DstIP)",
                     {FieldSel(Field::kSrcIp), FieldSel(Field::kDstIp)});
  }
};

}  // namespace coco::keys

namespace std {
template <>
struct hash<coco::keys::V6Tuple> {
  size_t operator()(const coco::keys::V6Tuple& k) const { return k.Hash(); }
};
}  // namespace std
