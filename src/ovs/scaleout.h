// The OVS-style multi-core datapath (§6 / Appendix B, Fig. 15(a); DESIGN.md
// "Multi-core scale-out").
//
// Producer threads stand in for DPDK receive queues fed by a NIC: they
// pace against a shared line-rate token bucket and push packet headers into
// per-shard SPSC rings. Worker threads poll those rings and update private
// CocoSketch shards (shared-nothing); the control plane merges the shards
// sketch-level at the end of every epoch. The classic deployment is
// shards = workers = Rx queues with stealing off; the tens-of-cores shape
// adds:
//
//   * RSS flow steering (ovs/steering.h): shard = hash(full key), so every
//     flow's packets converge on one shard, every shard's sketch has exactly
//     one writer, and the SIMD batch path runs lock-free per core.
//   * Round-robin placement: worker s % W owns shard s (PlaceShards); a
//     worker polls only the shards it owns.
//   * Proportional polling: a worker drains its owned rings fullest-first
//     with a drain budget proportional to occupancy, so a skewed shard
//     cannot starve its siblings on the same core.
//   * Bounded work stealing: a worker whose own rings are empty may claim a
//     backlogged foreign ring's consumer token (SpscRing::TryAcquireConsumer)
//     and pop up to steal_batches batches. Stolen records are RE-STEERED to
//     the thief's primary shard — applied to a sketch only the thief ever
//     writes — so the single-writer invariant holds even while helping.
//     (Re-steering splits a flow's mass across shards exactly like network-
//     wide sharding does; the sketch-level merge keeps the combined decode
//     unbiased and mass-conserving.)
//   * Epoch-based rotation (ovs/epoch.h): the collector requests an epoch;
//     each writer triple-buffer-swaps its sketch at a batch boundary (O(1),
//     never blocking on readers) and the collector merges the published
//     shard sketches via core::MergeAll — readers never stall writers.
//
// Workers only move records; what a shard does with them lives in its
// thread-free ShardCore (ovs/shard_core.h): the batch apply and the
// per-shard robustness features of docs/ROBUSTNESS.md, each free when off —
// the degradation ladder, checkpoints, and the attack monitor with seed
// rotation. A watchdog thread flags stalled workers and respawns dead ones
// (restoring their shards' checkpoints); FaultPlan stalls, kills and
// corruptions are keyed to shard progress.
//
// Conservation contract (tests/scaleout_test.cpp): every offered record is
// counted exactly once — offered == exact + degraded + rx_dropped across ALL
// per-shard counters (ReadConservation; with stealing the per-shard balance
// intentionally does NOT hold, only the global sum does), and the total
// sketch mass over all published epochs plus the final sweep equals the
// total weight applied, minus the reported checkpoint-recovery loss.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flow_table.h"
#include "core/attack_monitor.h"
#include "obs/metrics.h"
#include "ovs/fault.h"
#include "ovs/spsc_ring.h"
#include "ovs/steering.h"
#include "packet/keys.h"

namespace coco::ovs {

struct ScaleoutConfig {
  size_t num_shards = 4;
  size_t num_workers = 4;  // 1 <= workers <= shards; worker s % W owns s

  // NIC pacing shared by all producers; 0 disables the cap entirely (offline
  // replay / the scaling bench, where the compute path is the object).
  double nic_rate_mpps = 0.0;

  bool with_sketch = true;  // false = plain forwarding ("OVS w/o")
  size_t sketch_memory_bytes = 512 * 1024;  // split across shards
  size_t d = 2;
  // One seed for every shard sketch — epoch publication merges shards
  // sketch-level (core/merge.h), which requires seed equality.
  uint64_t seed = 0x5ca1e0;
  // 0 = derive from `seed` (domain-separated inside FlowSteering).
  uint64_t steering_seed = 0;

  size_t ring_capacity = 4096;  // slots per SPSC ring
  size_t drain_batch = 32;      // max packets popped per ring poll
  // Producer behavior on a full ring: backpressure (spin) or drop + count.
  OverflowPolicy overflow = OverflowPolicy::kBackpressure;

  // Degradation ladder, per shard: when ring occupancy reaches 3/4 of
  // capacity the shard switches to sampled updates (probability
  // degrade_sample_prob, weights compensated by 1/p so estimates stay
  // unbiased), and steps back to exact updates once occupancy falls to 1/4.
  bool degrade_enabled = false;
  double degrade_sample_prob = 0.25;

  // Work stealing: a worker with nothing of its own to drain steals from the
  // fullest foreign ring whose occupancy is >= steal_threshold * capacity,
  // at most steal_batches batches per steal. 0 batches disables stealing.
  double steal_threshold = 0.5;
  size_t steal_batches = 4;

  // Epoch rotation: the collector requests a rotation every
  // `rotation_interval_packets` globally drained packets and merges the
  // published shard sketches. 0 = no mid-run epochs (one final sweep).
  uint64_t rotation_interval_packets = 0;

  // Periodic checkpointing: every `checkpoint_interval` packets applied, a
  // shard serializes its active sketch and epoch weight for crash recovery.
  // 0 = off.
  uint64_t checkpoint_interval = 0;

  // Watchdog poll timeout: a worker whose progress is frozen this long while
  // work remains is flagged as stalled; a dead one is respawned, restoring
  // each owned shard from its newest valid checkpoint. 0 = off (forced to
  // 200 ms when the fault plan injects kills — a killed worker with no
  // watchdog would hang a backpressured producer forever).
  uint64_t watchdog_timeout_ms = 0;

  // Scripted faults keyed to shard progress (empty plan = fault-free run).
  // A kill on shard s kills the worker that owns s.
  FaultPlan faults;

  // Windowed attack detection (core/attack_monitor.h): every
  // `attack_window_packets` packets applied, a shard snapshots its sketch
  // stats and classifies the window. 0 = detection off.
  uint64_t attack_window_packets = 0;
  core::AttackMonitor::Options attack_options;
  // Escalation on a confirmed COLLISION attack: rotate the shard's sketch to
  // a fresh seed (core/seed_rotation.h, mass conserved); every later epoch's
  // sketch of that shard carries the new seed. A collision confirmed again
  // after a rotation (adaptive attacker), or a confirmed churn flood
  // (seed-independent), instead forces the degrade ladder on — the last
  // resort, only available when degrade_enabled is set.
  bool rotate_on_attack = false;
  // 0 = rotate onto fresh entropy (production: the attacker must not be able
  // to predict the next seed). Nonzero gives deterministic rotation targets
  // for tests, derived per shard and per rotation.
  uint64_t rotation_seed = 0;

  // Live metrics under `<prefix>.q<shard>.*` / `<prefix>.run.*`
  // (docs/OBSERVABILITY.md). nullptr disables instrumentation entirely.
  obs::Registry* registry = nullptr;
  std::string metrics_prefix = "scaleout";
};

// The conservation invariant read live from the registry: a packet offered
// to a shard ends up exact, degraded, or rx_dropped — nowhere else. Offered
// is incremented before the ring push, so Accounted() <= offered holds
// mid-run (HoldsLive; modulo relaxed-counter propagation between cores) and
// equality holds once the datapath is quiescent (Holds).
struct ConservationView {
  uint64_t offered = 0;
  uint64_t exact = 0;
  uint64_t degraded = 0;
  uint64_t rx_dropped = 0;

  uint64_t Accounted() const { return exact + degraded + rx_dropped; }
  bool Holds() const { return Accounted() == offered; }
  bool HoldsLive() const { return Accounted() <= offered; }
};

// Scans the registry for every `<prefix>.q<i>.*` counter, so shards of a
// pool resized between runs against one registry keep their mass (the
// current width is the `<prefix>.run.num_shards` gauge). With work stealing
// only this global sum balances, not each shard.
ConservationView ReadConservation(obs::Registry* registry,
                                  const std::string& prefix = "scaleout");

// One collected epoch (or the final quiescent sweep, epoch id = last
// requested + 1).
struct EpochRecord {
  uint64_t epoch = 0;
  size_t shards_published = 0;
  // Writer-side accounting: total weight applied into the published sketches
  // during the epoch. Exactly equals sketch_mass when nothing saturated —
  // the no-torn-reads / conservation invariant of the rotation tests.
  uint64_t applied_weight = 0;
  uint64_t sketch_mass = 0;       // sum of TotalValue over published shards
  uint64_t merge_conflicts = 0;   // probabilistic key resolutions in the fold
  // Hash seed of each shard's sketch in this epoch, indexed by shard (0 =
  // nothing published). Shards differ only after an attack rotation.
  std::vector<uint64_t> shard_seeds;
};

struct ScaleoutResult {
  double mpps = 0.0;
  uint64_t packets_processed = 0;  // exact + degraded (excludes rx drops)
  uint64_t packets_exact = 0;
  uint64_t packets_degraded = 0;   // drained while the ladder was engaged
  uint64_t rx_dropped = 0;         // producer drops (kDropNewest only)

  // Sketch-update share of the workers' cycles (0 when with_sketch is off).
  double measurement_cpu_fraction = 0.0;
  // Workers pop up to drain_batch packets per poll and feed them to
  // UpdateBatch in one call; avg_batch_fill is packets per non-empty pop.
  // Producers deliver bursts of drain_batch packets, so the fill sits near
  // drain_batch unless a nearly full ring splits bursts.
  uint64_t batches_drained = 0;
  double avg_batch_fill = 0.0;

  uint64_t steal_events = 0;    // bounded steals executed
  uint64_t stolen_records = 0;  // records re-steered to a thief's shard

  uint64_t rotations = 0;          // successful per-shard epoch swaps
  uint64_t rotation_refusals = 0;  // TryRotate declined (reader lagging)

  // Robustness counters: all zero in a fault-free, non-degraded run.
  uint64_t degrade_enter_events = 0;  // exact -> degraded transitions
  uint64_t stalls_injected = 0;       // FaultPlan stalls that fired
  uint64_t kills_injected = 0;        // FaultPlan kills that fired
  uint64_t stalls_detected = 0;       // watchdog flags
  uint64_t checkpoints_taken = 0;
  uint64_t checkpoints_rejected = 0;  // restore candidates failing checksum
  uint64_t restores = 0;              // worker respawns by the watchdog
  // Upper bound on measurement loss from crash recovery: packets applied
  // after the restored checkpoint was taken (their sketch state died with
  // the worker). Merged mass + this == fault-free mass for unit weights.
  uint64_t packets_lost_estimate = 0;
  // Adversarial hardening (attack_window_packets > 0):
  uint64_t attack_windows_suspicious = 0;  // threshold crossings (pre-confirm)
  uint64_t collision_attacks_confirmed = 0;
  uint64_t churn_floods_confirmed = 0;
  uint64_t seed_rotations = 0;             // attack-driven seed swaps
  uint64_t attack_degrade_forced = 0;      // last-resort ladder activations
  // False only if some seed rotation failed to conserve sketch mass.
  bool rotation_mass_conserved = true;

  // False if the per-sketch writer-exclusion probe ever saw two workers in
  // an apply section of the same sketch concurrently — the single-writer
  // invariant, checked structurally (TSan checks it at the byte level).
  bool single_writer_ok = true;

  // Every collected epoch in order, final sweep last. Sum of sketch_mass
  // over the records equals the weight applied and still held.
  std::vector<EpochRecord> epochs;
  uint64_t total_sketch_mass = 0;

  // Decode of every epoch's merged sketch, accumulated — the control-plane
  // flow table over the whole run.
  FlowTable<FiveTuple> merged_table;

  ShardTopology topology;
};

// Runs the trace through the scale-out datapath. Records are pre-steered by
// full-key hash into per-shard producer lists (the NIC's RSS stage); one
// producer thread per shard paces and pushes, `num_workers` workers drain.
// Guaranteed to terminate for any config and FaultPlan: backpressure
// producers are always eventually drained (their owner polls until
// producer-done and empty), killed workers are respawned by the watchdog,
// and rotation refusals never block a writer.
ScaleoutResult RunScaleout(const ScaleoutConfig& config,
                           const std::vector<Packet>& trace);

}  // namespace coco::ovs
