// One shard's single-threaded state and policy in the scale-out datapath
// (DESIGN.md §7; docs/ROBUSTNESS.md): the batch apply into the active epoch
// sketch, the degradation ladder, checkpoints and crash recovery, the attack
// monitor with seed rotation, the start of each epoch, and the shard's event
// counts. It holds no thread, atomic or ring, so every per-shard robustness
// feature is testable without threads (tests/scaleout_test.cpp).
//
// One writer at a time: RunScaleout's workers call a core only for shards
// they own or steal into, and a respawned worker starts only after the dead
// one is joined, so a core outlives its writers and its counts are read
// after the final join.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/attack_monitor.h"
#include "core/cocosketch.h"
#include "core/sampled_cocosketch.h"
#include "obs/metrics.h"
#include "ovs/degrade.h"
#include "ovs/epoch.h"
#include "ovs/watchdog.h"
#include "packet/keys.h"

namespace coco::ovs {

struct ScaleoutConfig;
class FaultInjector;

// Cache-line aligned: different workers write different shards' cores.
class alignas(64) ShardCore {
 public:
  using Sketch = core::CocoSketch<FiveTuple>;

  // Lifetime event counts, summed over the shards into ScaleoutResult.
  // Steals count on the thief's home shard, which applied the records.
  struct Counts {
    uint64_t packets_exact = 0;
    uint64_t packets_degraded = 0;
    uint64_t batches_drained = 0;
    uint64_t steal_events = 0;
    uint64_t stolen_records = 0;
    uint64_t rotations = 0;
    uint64_t rotation_refusals = 0;
    uint64_t checkpoints_taken = 0;
    uint64_t checkpoints_rejected = 0;
    uint64_t packets_lost_estimate = 0;
    uint64_t attack_windows_suspicious = 0;
    uint64_t collision_attacks_confirmed = 0;
    uint64_t churn_floods_confirmed = 0;
    uint64_t seed_rotations = 0;
    uint64_t attack_degrade_forced = 0;
    bool rotation_mass_conserved = true;
    uint64_t update_cycles = 0;  // over `timed_batches` sampled batches
    uint64_t timed_batches = 0;
  };

  // `shard` keys the sampling gate's RNG stream, the rotation seeds, the
  // fault plan's corruptions and the `<prefix>.q<shard>.` metric names.
  // `faults` may be null; it is consulted only to corrupt checkpoints.
  ShardCore(const ScaleoutConfig& config, size_t shard,
            EpochShard<FiveTuple>* sketches, FaultInjector* faults);

  // Update mode for a batch popped from the shard's own ring, given the
  // occupancy sampled before the pop. The ladder observes it even while an
  // attack response forces the mode degraded, keeping its hysteresis current.
  bool ChooseMode(size_t occupancy);

  // Applies `n` records to the active sketch (sampled, with compensated
  // weights, when degraded) and accounts for them; then takes a due
  // checkpoint and classifies a due attack window, both keyed to packets.
  void Apply(const Packet* records, size_t n, bool degraded);

  // Counts one steal whose `records` were applied into this shard.
  void CountSteal(uint64_t records);

  // At a batch boundary, publishes the active sketch as `epoch` and starts
  // the next on the spare; false (a refusal) while the collector has not
  // recycled the previous epoch.
  bool TryRotate(uint64_t epoch);

  // Crash recovery: rebuilds the active sketch from the newest valid
  // checkpoint, else clears it, counting the packets applied since as lost.
  void Restore();

  // The shard's registry handles under `<prefix>.q<shard>.`, resolved once
  // so the registry lock never appears on a hot path; null when
  // uninstrumented. Never written after construction, so the producer and
  // worker threads may read them too.
  struct Metrics {
    obs::Counter* offered = nullptr;     // producer
    obs::Counter* exact = nullptr;
    obs::Counter* degraded = nullptr;
    obs::Counter* rx_dropped = nullptr;  // producer, kDropNewest only
    obs::Counter* steal_events = nullptr;
    obs::Counter* stolen_records = nullptr;
    obs::Histogram* batch_fill = nullptr;
    obs::Histogram* drain_cycles = nullptr;
    obs::Gauge* occupancy = nullptr;     // worker, after each drain
    std::string base;
  };
  const Metrics& metrics() const { return metrics_; }

  // Counts a rare event of the shard under `<prefix>.q<shard>.<leaf>`.
  // Writes nothing in the core, so the watchdog may call it too.
  void Bump(const char* leaf, uint64_t n = 1) const;

  uint64_t epoch() const { return epoch_; }
  uint64_t epoch_weight() const { return epoch_weight_; }
  uint64_t applied() const { return applied_; }
  const Counts& counts() const { return counts_; }
  uint64_t degrade_enter_events() const { return ladder_.enter_events(); }

 private:
  void TakeCheckpoint();
  void ObserveAttackWindow();
  void ForceDegrade();

  const ScaleoutConfig* config_;
  size_t shard_;
  EpochShard<FiveTuple>* epoch_shard_;
  FaultInjector* faults_;
  Counts counts_;

  DegradeLadder ladder_;
  std::optional<core::SamplingGate> gate_;  // degrade_enabled only
  bool degraded_ = false;      // mode of the last batch (transition counters)
  uint64_t applied_ = 0;       // packets applied: the checkpoint/window clock
  uint64_t epoch_weight_ = 0;  // weight applied into the active sketch
  uint64_t epoch_ = 0;
  uint64_t seed_;              // hash seed; changes on an attack rotation

  // Checkpointing; null when checkpoint_interval is 0.
  std::unique_ptr<CheckpointStore> checkpoints_;
  uint64_t checkpoint_seq_ = 0;
  uint64_t last_checkpoint_ = 0;  // `applied_` at the newest image
  uint64_t empty_since_ = 0;      // `applied_` when the active sketch was empty

  // Attack detection; null when attack_window_packets is 0.
  std::unique_ptr<core::AttackMonitor> monitor_;
  uint64_t last_window_ = 0;
  uint64_t attack_rotations_ = 0;  // adaptive-attacker escalation key
  uint64_t honest_streak_ = 0;     // consecutive honest windows while forced
  bool attack_degrade_ = false;    // ladder forced on (last-resort response)

  Metrics metrics_;
};

}  // namespace coco::ovs
