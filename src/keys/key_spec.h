// Partial-key format — the mapping g : k_F -> k_P of Definition 1.
//
// Each full key lists its fields once, in a constexpr KeyLayout table: name,
// byte offset, width, and whether a bit prefix may be taken. One
// KeySpec<FullKey> over that table selects fields (with optional prefixes on
// the address fields), packs them MSB-first into a DynKey / WideDynKey
// (Apply), unpacks them again (UnpackField, Unpack), and names them (Label)
// for the SQL front-end (query/sql.h).
//
// TupleKeySpec, PrefixSpec and PrefixPairSpec are the KeySpecs of the
// FiveTuple, IPv4Key (1-d HHH) and IpPairKey (2-d HHH) full keys with the
// paper's named specs; V6KeySpec (keys/v6.h) is the IPv6 one. All mappings
// are deterministic and pure, so the subset-sum identity
//   f(e) = sum over {e' : g(e') = e} f(e')
// holds by construction and is property-tested in tests/keys_test.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <strings.h>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "packet/keys.h"

namespace coco::keys {

enum class Field : uint8_t {
  kSrcIp,
  kDstIp,
  kSrcPort,
  kDstPort,
  kProto,
};

// One field of a full key's byte buffer (big-endian, byte aligned).
struct FieldInfo {
  Field field;
  std::string_view name;  // display and SQL name
  uint8_t offset;         // byte offset inside the full key
  uint8_t bits;           // width, a multiple of 8
  bool prefix;            // bit prefixes allowed (address fields)
};

// The field table of each full key; specialised once per full key type,
// with the packed partial-key type its specs produce.
template <typename FullKey>
struct KeyLayout;

template <>
struct KeyLayout<FiveTuple> {
  using Packed = DynKey;
  static constexpr std::array<FieldInfo, 5> kFields{{
      {Field::kSrcIp, "SrcIP", 0, 32, true},
      {Field::kDstIp, "DstIP", 4, 32, true},
      {Field::kSrcPort, "SrcPort", 8, 16, false},
      {Field::kDstPort, "DstPort", 10, 16, false},
      {Field::kProto, "Proto", 12, 8, false},
  }};
};

// The source address of the 1-d HHH experiments.
template <>
struct KeyLayout<IPv4Key> {
  using Packed = DynKey;
  static constexpr std::array<FieldInfo, 1> kFields{{
      {Field::kSrcIp, "SrcIP", 0, 32, true},
  }};
};

template <>
struct KeyLayout<IpPairKey> {
  using Packed = DynKey;
  static constexpr std::array<FieldInfo, 2> kFields{{
      {Field::kSrcIp, "SrcIP", 0, 32, true},
      {Field::kDstIp, "DstIP", 4, 32, true},
  }};
};

// ORs `n` bits read MSB-first from `src` at bit `src_bit` into `dst` at bit
// `dst_bit`. Byte-aligned runs (field subsets and /8-multiple prefixes, the
// overwhelmingly common case) are a memcpy.
inline void CopyBits(uint8_t* dst, size_t dst_bit, const uint8_t* src,
                     size_t src_bit, size_t n) {
  if ((dst_bit | src_bit | n) % 8 == 0) {
    std::memcpy(dst + dst_bit / 8, src + src_bit / 8, n / 8);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t s = src_bit + i;
    const size_t d = dst_bit + i;
    if ((src[s / 8] >> (7 - s % 8)) & 1) {
      dst[d / 8] |= static_cast<uint8_t>(0x80u >> (d % 8));
    }
  }
}

// One selected field; `prefix_bits` keeps the top bits of an address field.
struct FieldSel {
  // Resolved to the field's width by the KeySpec that takes the selection.
  static constexpr uint8_t kFullWidth = 0xff;

  Field field;
  uint8_t prefix_bits;  // significant bits, <= the field's width

  FieldSel(Field f, uint8_t bits) : field(f), prefix_bits(bits) {}
  explicit FieldSel(Field f) : field(f), prefix_bits(kFullWidth) {}
};

// A partial key of `FullKey`: the selected fields, in selection order,
// bit-packed MSB-first with zero padding beyond total_bits().
template <typename FullKey>
class KeySpec {
 public:
  using Layout = KeyLayout<FullKey>;
  using Packed = typename Layout::Packed;

  KeySpec(std::string name, std::vector<FieldSel> fields)
      : name_(std::move(name)), fields_(std::move(fields)) {
    for (FieldSel& sel : fields_) {
      const FieldInfo* info = Find(sel.field);
      COCO_CHECK(info != nullptr, "field not in this full key");
      if (sel.prefix_bits == FieldSel::kFullWidth) sel.prefix_bits = info->bits;
      COCO_CHECK(sel.prefix_bits <= info->bits, "prefix longer than field");
      COCO_CHECK(info->prefix || sel.prefix_bits == info->bits,
                 "prefix on a field that takes none");
      parts_.push_back({info, total_bits_, sel.prefix_bits});
      total_bits_ = static_cast<uint16_t>(total_bits_ + sel.prefix_bits);
    }
    COCO_CHECK(total_bits_ <= Packed::kCapacity * 8,
               "partial key exceeds key capacity");
  }

  // g(.) — extract, mask, and bit-pack the selected fields.
  Packed Apply(const FullKey& full) const {
    Packed out;
    for (const Part& p : parts_) {
      CopyBits(out.buf.data(), p.at, full.data() + p.info->offset, 0, p.bits);
    }
    out.bits = total_bits_;
    return out;
  }

  // Inverse of Apply for the i-th selected field: its prefix_bits bits
  // left-aligned (big-endian) in `out`, which holds the field's full width;
  // bits beyond the prefix are zero.
  void UnpackField(const Packed& packed, size_t i, uint8_t* out) const {
    const Part& p = parts_[i];
    std::memset(out, 0, p.info->bits / 8);
    CopyBits(out, 0, packed.data(), p.at, p.bits);
  }

  // The full key that holds each selected field masked to its prefix and
  // zeros elsewhere: Apply(Unpack(Apply(k))) == Apply(k).
  FullKey Unpack(const Packed& packed) const {
    FullKey full;
    for (const Part& p : parts_) {
      CopyBits(full.data() + p.info->offset, 0, packed.data(), p.at, p.bits);
    }
    return full;
  }

  // The layout entry of the i-th selected field.
  const FieldInfo& info(size_t i) const { return *parts_[i].info; }

  // Column name of the i-th selected field: "SrcIP", "SrcIP/24", "Proto".
  std::string Label(size_t i) const {
    const Part& p = parts_[i];
    std::string label(p.info->name);
    if (p.bits < p.info->bits) label += "/" + std::to_string(p.bits);
    return label;
  }

  const std::string& name() const { return name_; }
  uint16_t total_bits() const { return total_bits_; }
  const std::vector<FieldSel>& fields() const { return fields_; }

  // The layout entry of a field, by enumerator or by case-insensitive
  // name; null when the full key has no such field.
  static const FieldInfo* Find(Field f) {
    for (const FieldInfo& info : Layout::kFields) {
      if (info.field == f) return &info;
    }
    return nullptr;
  }
  static const FieldInfo* Find(std::string_view name) {
    for (const FieldInfo& info : Layout::kFields) {
      if (info.name.size() == name.size() &&
          strncasecmp(info.name.data(), name.data(), name.size()) == 0) {
        return &info;
      }
    }
    return nullptr;
  }

 private:
  struct Part {
    const FieldInfo* info;
    uint16_t at;   // first bit inside the packed key
    uint8_t bits;  // prefix_bits of the selection
  };

  std::string name_;
  std::vector<FieldSel> fields_;
  std::vector<Part> parts_;
  uint16_t total_bits_ = 0;
};

// A partial key of the 5-tuple full key.
class TupleKeySpec : public KeySpec<FiveTuple> {
 public:
  using KeySpec::KeySpec;

  // The six partial keys measured by default in §7.1: 5-tuple,
  // (SrcIP,DstIP), (SrcIP,SrcPort), (DstIP,DstPort), SrcIP, DstIP.
  static std::vector<TupleKeySpec> DefaultSix();

  // Named constructors for the common specs.
  static TupleKeySpec FullTuple();
  static TupleKeySpec SrcDstIp();
  static TupleKeySpec SrcIpSrcPort();
  static TupleKeySpec DstIpDstPort();
  static TupleKeySpec SrcIp();
  static TupleKeySpec DstIp();
  static TupleKeySpec SrcIpPrefix(uint8_t bits);
};

// Prefix mapping for an IPv4Key full key (1-d HHH): keeps the top `bits`
// bits of the address.
class PrefixSpec : public KeySpec<IPv4Key> {
 public:
  explicit PrefixSpec(uint8_t bits);

  uint8_t bits() const { return fields()[0].prefix_bits; }

  // The 33-level source-IP hierarchy (prefix lengths 32 down to 0) of
  // Fig. 11: "32 prefixes + 1 empty key".
  static std::vector<PrefixSpec> Hierarchy();
};

// Prefix-pair mapping for an IpPairKey full key (2-d HHH): independent
// prefixes on source and destination.
class PrefixPairSpec : public KeySpec<IpPairKey> {
 public:
  PrefixPairSpec(uint8_t src_bits, uint8_t dst_bits);

  // The two prefixes, then the split point as an extra byte: pairs that
  // share a total bit count, such as (8, 16) and (16, 8) of one address
  // pair, would otherwise pack to equal keys.
  DynKey Apply(const IpPairKey& full) const {
    DynKey out = KeySpec::Apply(full);
    const uint8_t split = src_bits();
    CopyBits(out.buf.data(), out.bits, &split, 0, 8);
    out.bits = static_cast<uint16_t>(out.bits + 8);
    return out;
  }

  uint8_t src_bits() const { return fields()[0].prefix_bits; }
  uint8_t dst_bits() const { return fields()[1].prefix_bits; }

  // The 33 x 33 = 1089-level hierarchy of Fig. 12.
  static std::vector<PrefixPairSpec> Hierarchy();
};

}  // namespace coco::keys
