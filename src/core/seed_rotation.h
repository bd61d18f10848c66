// Seed-rotation recovery: move a sketch onto a fresh hash seed in place
// (docs/ROBUSTNESS.md "Threat model & adversarial hardening").
//
// When a collision attack against the current seed is confirmed (or an
// operator commands it via `cocotool rotate`), continuing to hash with the
// compromised seed lets the attacker keep steering every crafted key into
// the same buckets. Rotation decodes the sketch ONCE, clears it, reseeds it
// in place and replays the decoded (flow, estimate) table into it —
// subsequent updates hash with the new seed, where the attacker's
// precomputed collisions are worthless. No second sketch is allocated.
//
// Mass conservation: for CocoSketch the decoded table's mass equals
// TotalValue() exactly (every packet's weight lives in exactly one bucket),
// and every replayed unit of mass lands in exactly one bucket of the
// reseeded sketch, so TotalValue() is preserved exactly through the rotation
// — the datapath's ovs::ReadConservation invariant keeps holding across
// rotation epochs. For HwCocoSketch mass is recorded d times and the decoded
// estimates are medians, so conservation there is on the replayed estimate
// mass (see RotationStats), not the raw bucket mass.
//
// Replay order is deterministic (value-descending, key bytes as tie-break):
// heavy flows are re-inserted into a mostly-empty structure first, so their
// estimates survive the replay with the least added variance, and a given
// decoded table always replays to the same state for a given new seed.
//
// Estimates carried through a rotation remain estimates — replay cannot
// recreate the attacked epoch's lost information, it only preserves what the
// old sketch still knew at swap time. Rotation bounds the damage window; it
// does not undo damage already done.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"

namespace coco::core {

struct RotationStats {
  uint64_t old_seed = 0;
  uint64_t new_seed = 0;
  uint64_t mass_before = 0;      // TotalValue() before the rotation
  uint64_t mass_after = 0;       // TotalValue() after the replay
  uint64_t replayed_mass = 0;    // sum of decoded estimates replayed
  size_t flows_replayed = 0;
  // Exact for CocoSketch (mass_before == mass_after); for HwCocoSketch the
  // comparison is mass_after == d * replayed_mass (each replayed update
  // increments all d arrays).
  bool mass_conserved = false;
};

// Rotate `sketch` onto `new_seed` in place (pass coco::RandomSeed() in
// production — a predictable rotation target would hand the attacker the
// next epoch too; tests pass explicit seeds for determinism). The sketch is
// decoded, cleared, reseeded and replayed into; its SIMD tier and delta
// tracking carry over untouched.
template <typename Sketch>
RotationStats RotateSeed(Sketch* sketch, uint64_t new_seed) {
  using Key = typename Sketch::KeyType;
  // Each replayed update increments one bucket of CocoSketch but all d
  // arrays of HwCocoSketch.
  const uint64_t mass_factor =
      std::is_same_v<Sketch, HwCocoSketch<Key>> ? sketch->d() : 1;
  RotationStats stats;
  stats.old_seed = sketch->seed();
  stats.new_seed = new_seed;
  stats.mass_before = sketch->TotalValue();

  auto table = sketch->Decode();
  std::vector<std::pair<Key, uint64_t>> flows(table.begin(), table.end());
  std::sort(flows.begin(), flows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return std::memcmp(a.first.data(), b.first.data(), Key::kSize) < 0;
  });
  // Clear() also marks every bucket dirty: a delta against the old epoch
  // would be garbage, so the next sync ships everything.
  sketch->Clear();
  sketch->Reseed(new_seed);
  for (const auto& [key, estimate] : flows) {
    uint64_t remaining = estimate;
    stats.replayed_mass += estimate;
    // Estimates can exceed a single update's 32-bit weight after merges;
    // replay in chunks so nothing truncates.
    while (remaining > 0) {
      const uint32_t chunk =
          remaining > UINT32_MAX ? UINT32_MAX
                                 : static_cast<uint32_t>(remaining);
      sketch->Update(key, chunk);
      remaining -= chunk;
    }
  }
  stats.flows_replayed = flows.size();
  stats.mass_after = sketch->TotalValue();
  stats.mass_conserved =
      stats.mass_after == mass_factor * stats.replayed_mass &&
      (mass_factor != 1 || stats.mass_after == stats.mass_before);
  return stats;
}

}  // namespace coco::core
