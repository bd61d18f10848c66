// Versioned, length-prefixed wire frames for the agent/collector protocol
// (docs/NETWIDE.md).
//
// Every message on a link — full state images, delta payloads, heartbeats,
// acks — travels as one frame:
//
//   | magic "COFR" (4) | version (2 BE) | type (1) | flags (1) |
//   | agent_id (4 BE) | epoch (8 BE) | payload_len (4 BE) |
//   | payload checksum (8 BE) | payload (payload_len bytes) |
//
// The checksum is Hash64 over the payload seeded with the header fields, so
// a flipped bit anywhere in payload or header is detected; a corrupt frame
// is dropped (and, for state frames, re-requested via nack), never merged.
// Length prefixing makes the format self-delimiting over a byte stream; the
// frame readers below reassemble frames from arbitrary TCP segmentation and
// resynchronize on the magic after garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "hash/bobhash.h"

namespace coco::net {

inline constexpr uint8_t kFrameMagic[4] = {'C', 'O', 'F', 'R'};
inline constexpr uint16_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 32;
// An upper bound nothing legitimate approaches (state images for the
// geometries we run are a few MB); rejects absurd lengths from corrupt or
// hostile headers before any allocation happens.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;
inline constexpr uint64_t kFrameChecksumSeed = 0xf4a3c0c0ULL;

enum class FrameType : uint8_t {
  kHello = 1,      // agent announces itself; payload: hash seed (8 BE) or
                   // empty (legacy peers that predate seeded hellos)
  kFullState = 2,  // payload: sealed state image (core/state_image.h)
  kDelta = 3,      // payload: dirty-bucket delta (net/delta.h)
  kHeartbeat = 4,  // payload empty; epoch = agent's current epoch
  kAck = 5,        // collector: epoch applied
  kNack = 6,       // collector: resend as full state
};

inline bool KnownFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kHello) &&
         t <= static_cast<uint8_t>(FrameType::kNack);
}

struct Frame {
  FrameType type = FrameType::kHello;
  uint32_t agent_id = 0;
  uint64_t epoch = 0;
  std::vector<uint8_t> payload;
};

inline uint64_t FrameChecksum(uint8_t type, uint32_t agent_id, uint64_t epoch,
                              const uint8_t* payload, size_t len) {
  return hash::Hash64(payload, len, kFrameChecksumSeed ^
                                        (static_cast<uint64_t>(type) << 56) ^
                                        (static_cast<uint64_t>(agent_id)
                                         << 24) ^
                                        epoch);
}

inline std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<uint8_t> out(kFrameHeaderBytes + frame.payload.size());
  std::memcpy(out.data(), kFrameMagic, 4);
  StoreBE16(out.data() + 4, kFrameVersion);
  out[6] = static_cast<uint8_t>(frame.type);
  out[7] = 0;  // flags, reserved
  StoreBE32(out.data() + 8, frame.agent_id);
  StoreBE64(out.data() + 12, frame.epoch);
  StoreBE32(out.data() + 20,
            static_cast<uint32_t>(frame.payload.size()));
  StoreBE64(out.data() + 24,
            FrameChecksum(static_cast<uint8_t>(frame.type), frame.agent_id,
                          frame.epoch, frame.payload.data(),
                          frame.payload.size()));
  if (!frame.payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderBytes, frame.payload.data(),
                frame.payload.size());
  }
  return out;
}

// Convenience for the control frames, which carry no payload.
inline std::vector<uint8_t> EncodeControlFrame(FrameType type,
                                               uint32_t agent_id,
                                               uint64_t epoch) {
  Frame f;
  f.type = type;
  f.agent_id = agent_id;
  f.epoch = epoch;
  return EncodeFrame(f);
}

// Hello carrying the agent's sketch hash seed, so the collector can verify
// aggregation compatibility at handshake time instead of discovering it one
// rejected state frame at a time.
inline std::vector<uint8_t> EncodeHelloFrame(uint32_t agent_id,
                                             uint64_t hash_seed) {
  Frame f;
  f.type = FrameType::kHello;
  f.agent_id = agent_id;
  f.payload.resize(8);
  StoreBE64(f.payload.data(), hash_seed);
  return EncodeFrame(f);
}

// Extracts the seed from a hello payload. Returns false for legacy empty
// hellos (no seed claim — the state/delta admission checks still guard the
// replica) and for malformed payload sizes.
inline bool DecodeHelloSeed(const Frame& frame, uint64_t* hash_seed) {
  if (frame.type != FrameType::kHello || frame.payload.size() != 8) {
    return false;
  }
  *hash_seed = LoadBE64(frame.payload.data());
  return true;
}

enum class DecodeStatus {
  kOk,        // *out filled, *consumed bytes eaten
  kNeedMore,  // prefix of a valid frame; feed more bytes
  kBad,       // not a valid frame at this offset
};

// Decodes one frame from the front of [data, data+len). On kBad the caller
// should skip one byte and rescan (stream resynchronization).
inline DecodeStatus DecodeFrame(const uint8_t* data, size_t len, Frame* out,
                                size_t* consumed) {
  if (len < 4) {
    return std::memcmp(data, kFrameMagic, len) == 0 ? DecodeStatus::kNeedMore
                                                    : DecodeStatus::kBad;
  }
  if (std::memcmp(data, kFrameMagic, 4) != 0) return DecodeStatus::kBad;
  if (len < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  if (LoadBE16(data + 4) != kFrameVersion) return DecodeStatus::kBad;
  const uint8_t type = data[6];
  if (!KnownFrameType(type)) return DecodeStatus::kBad;
  const uint32_t payload_len = LoadBE32(data + 20);
  if (payload_len > kMaxFramePayload) return DecodeStatus::kBad;
  if (len < kFrameHeaderBytes + payload_len) return DecodeStatus::kNeedMore;
  const uint32_t agent_id = LoadBE32(data + 8);
  const uint64_t epoch = LoadBE64(data + 12);
  if (LoadBE64(data + 24) !=
      FrameChecksum(type, agent_id, epoch, data + kFrameHeaderBytes,
                    payload_len)) {
    return DecodeStatus::kBad;
  }
  out->type = static_cast<FrameType>(type);
  out->agent_id = agent_id;
  out->epoch = epoch;
  out->payload.assign(data + kFrameHeaderBytes,
                      data + kFrameHeaderBytes + payload_len);
  *consumed = kFrameHeaderBytes + payload_len;
  return DecodeStatus::kOk;
}

// Stream reassembler: feed arbitrary byte chunks in, pull whole frames out.
// Garbage between frames (corruption, a desynced peer) is skipped byte by
// byte until the next magic, with every skipped run counted — the collector
// exports bad_bytes/bad_frames so corrupted links are visible. `Item` is
// what a validated frame comes out as: the decoded Frame (FrameReader, for
// the protocol endpoints) or its raw bytes (RawFrameReader, for the TCP
// transport, which hands frames on undecoded).
template <typename Item>
class BasicFrameReader {
 public:
  void Feed(const uint8_t* data, size_t len) {
    buffer_.insert(buffer_.end(), data, data + len);
    size_t pos = 0;
    while (pos < buffer_.size()) {
      Frame frame;
      size_t consumed = 0;
      const DecodeStatus status = DecodeFrame(
          buffer_.data() + pos, buffer_.size() - pos, &frame, &consumed);
      if (status == DecodeStatus::kOk) {
        if constexpr (std::is_same_v<Item, Frame>) {
          items_.push_back(std::move(frame));
        } else {
          items_.emplace_back(buffer_.data() + pos,
                              buffer_.data() + pos + consumed);
        }
        pos += consumed;
      } else if (status == DecodeStatus::kNeedMore) {
        break;
      } else {
        ++pos;  // resync: scan forward for the next magic
        ++bad_bytes_;
      }
    }
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(pos));
  }
  void Feed(const std::vector<uint8_t>& bytes) {
    Feed(bytes.data(), bytes.size());
  }

  std::optional<Item> Next() {
    if (items_.empty()) return std::nullopt;
    Item item = std::move(items_.front());
    items_.pop_front();
    return item;
  }
  bool Next(Item* out) {
    std::optional<Item> item = Next();
    if (item) *out = std::move(*item);
    return item.has_value();
  }

  uint64_t bad_bytes() const { return bad_bytes_; }
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
  std::deque<Item> items_;
  uint64_t bad_bytes_ = 0;
};

using FrameReader = BasicFrameReader<Frame>;
using RawFrameReader = BasicFrameReader<std::vector<uint8_t>>;

}  // namespace coco::net
