#include "keys/key_spec.h"

namespace coco::keys {

std::vector<TupleKeySpec> TupleKeySpec::DefaultSix() {
  return {FullTuple(), SrcDstIp(),     SrcIpSrcPort(),
          DstIpDstPort(), SrcIp(), DstIp()};
}

TupleKeySpec TupleKeySpec::FullTuple() {
  return TupleKeySpec("5-tuple",
                      {FieldSel(Field::kSrcIp), FieldSel(Field::kDstIp),
                       FieldSel(Field::kSrcPort), FieldSel(Field::kDstPort),
                       FieldSel(Field::kProto)});
}

TupleKeySpec TupleKeySpec::SrcDstIp() {
  return TupleKeySpec("(SrcIP,DstIP)",
                      {FieldSel(Field::kSrcIp), FieldSel(Field::kDstIp)});
}

TupleKeySpec TupleKeySpec::SrcIpSrcPort() {
  return TupleKeySpec("(SrcIP,SrcPort)",
                      {FieldSel(Field::kSrcIp), FieldSel(Field::kSrcPort)});
}

TupleKeySpec TupleKeySpec::DstIpDstPort() {
  return TupleKeySpec("(DstIP,DstPort)",
                      {FieldSel(Field::kDstIp), FieldSel(Field::kDstPort)});
}

TupleKeySpec TupleKeySpec::SrcIp() {
  return TupleKeySpec("SrcIP", {FieldSel(Field::kSrcIp)});
}

TupleKeySpec TupleKeySpec::DstIp() {
  return TupleKeySpec("DstIP", {FieldSel(Field::kDstIp)});
}

TupleKeySpec TupleKeySpec::SrcIpPrefix(uint8_t bits) {
  return TupleKeySpec("SrcIP/" + std::to_string(bits),
                      {FieldSel(Field::kSrcIp, bits)});
}

PrefixSpec::PrefixSpec(uint8_t bits)
    : KeySpec("SrcIP/" + std::to_string(bits),
              {FieldSel(Field::kSrcIp, bits)}) {}

std::vector<PrefixSpec> PrefixSpec::Hierarchy() {
  std::vector<PrefixSpec> levels;
  levels.reserve(33);
  for (int bits = 32; bits >= 0; --bits) {
    levels.emplace_back(static_cast<uint8_t>(bits));
  }
  return levels;
}

PrefixPairSpec::PrefixPairSpec(uint8_t src_bits, uint8_t dst_bits)
    : KeySpec("(SrcIP/" + std::to_string(src_bits) + ",DstIP/" +
                  std::to_string(dst_bits) + ")",
              {FieldSel(Field::kSrcIp, src_bits),
               FieldSel(Field::kDstIp, dst_bits)}) {}

std::vector<PrefixPairSpec> PrefixPairSpec::Hierarchy() {
  std::vector<PrefixPairSpec> levels;
  levels.reserve(33 * 33);
  for (int s = 32; s >= 0; --s) {
    for (int d = 32; d >= 0; --d) {
      levels.emplace_back(static_cast<uint8_t>(s), static_cast<uint8_t>(d));
    }
  }
  return levels;
}

}  // namespace coco::keys
