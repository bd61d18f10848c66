// Watchdog building blocks for the OVS datapath: checkpoint storage and
// stall detection.
//
// The datapath's recovery story (docs/ROBUSTNESS.md): each shard
// periodically serializes its sketch into a CheckpointStore; a monitor
// thread watches per-worker progress counters and, when a worker dies,
// respawns it, restoring each owned shard from the newest checkpoint image
// that passes its checksum. Both pieces here are deliberately free of
// threads and clocks — the caller supplies timestamps — so tests can drive
// every path deterministically.
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace coco::ovs {

// One shard's checkpoint slots: the two most recent serialized sketch
// images plus the progress and epoch weight recorded when each was taken.
// Keeping two lets recovery fall back to the older image when the newest one
// is corrupt (torn write, injected fault). Writes come from the shard's
// worker, reads from its replacement after a crash — a mutex is ample at
// checkpoint frequency.
class CheckpointStore {
 public:
  struct Image {
    uint64_t seq = 0;       // 1-based checkpoint number within the shard
    uint64_t progress = 0;  // packets applied when the image was taken
    uint64_t weight = 0;    // epoch weight the image's sketch holds
    std::vector<uint8_t> bytes;
  };

  void Put(Image image) {
    std::lock_guard<std::mutex> lock(mu_);
    previous_ = std::move(latest_);
    latest_ = std::move(image);
    ++count_;
  }

  // Drops both images — the sketch they describe is gone (published at an
  // epoch rotation), so restoring one would count its mass twice.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    latest_ = Image{};
    previous_ = Image{};
  }

  // Candidate images for recovery, newest first. Empty slots are omitted.
  std::vector<Image> Candidates() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Image> out;
    if (!latest_.bytes.empty()) out.push_back(latest_);
    if (!previous_.bytes.empty()) out.push_back(previous_);
    return out;
  }

  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  Image latest_;
  Image previous_;
  uint64_t count_ = 0;
};

// Edge-triggered stall detection over a monotone progress counter: fires
// once per episode where progress has been frozen for >= timeout_ms while
// work remains, and re-arms as soon as progress moves again.
class StallDetector {
 public:
  explicit StallDetector(uint64_t timeout_ms) : timeout_ms_(timeout_ms) {}

  bool Observe(uint64_t progress, uint64_t now_ms, bool work_pending) {
    if (progress != last_progress_) {
      last_progress_ = progress;
      last_change_ms_ = now_ms;
      flagged_ = false;
      return false;
    }
    if (!work_pending || flagged_) return false;
    if (now_ms - last_change_ms_ >= timeout_ms_) {
      flagged_ = true;
      return true;
    }
    return false;
  }

 private:
  uint64_t timeout_ms_;
  uint64_t last_progress_ = 0;
  uint64_t last_change_ms_ = 0;
  bool flagged_ = false;
};

}  // namespace coco::ovs
