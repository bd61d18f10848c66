#include "ovs/shard_core.h"

#include <utility>

#include "common/cycle_clock.h"
#include "common/rng.h"
#include "core/seed_rotation.h"
#include "obs/sketch_metrics.h"
#include "ovs/fault.h"
#include "ovs/scaleout.h"

namespace coco::ovs {
namespace {

// The degradation ladder's watermarks, as fractions of ring capacity: sample
// above three quarters full, return to exact updates below one quarter.
constexpr double kDegradeHighWatermark = 0.75;
constexpr double kDegradeLowWatermark = 0.25;

// One batch in kTimedBatchEvery gets its sketch update timed (two fenced
// cycle-counter reads); measurement_cpu_fraction scales the sample up. Timing
// every batch cost the uncapped datapath several percent of its rate.
constexpr uint64_t kTimedBatchEvery = 16;

}  // namespace

ShardCore::ShardCore(const ScaleoutConfig& config, size_t shard,
                     EpochShard<FiveTuple>* sketches, FaultInjector* faults)
    : config_(&config),
      shard_(shard),
      epoch_shard_(sketches),
      faults_(faults),
      ladder_(kDegradeHighWatermark, kDegradeLowWatermark,
              config.ring_capacity),
      seed_(config.seed) {
  if (config.degrade_enabled) {
    gate_.emplace(config.degrade_sample_prob,
                  config.seed ^ (0xdeadbeefULL + shard * 0x9e3779b9ULL));
  }
  if (config.with_sketch && config.checkpoint_interval != 0) {
    checkpoints_ = std::make_unique<CheckpointStore>();
  }
  if (config.with_sketch && config.attack_window_packets != 0) {
    monitor_ = std::make_unique<core::AttackMonitor>(config.attack_options);
  }
  if (obs::Registry* registry = config.registry) {
    Metrics& m = metrics_;
    m.base = config.metrics_prefix + ".q" + std::to_string(shard) + ".";
    m.offered = registry->GetCounter(m.base + "offered");
    m.exact = registry->GetCounter(m.base + "exact");
    m.degraded = registry->GetCounter(m.base + "degraded");
    m.rx_dropped = registry->GetCounter(m.base + "rx_dropped");
    m.steal_events = registry->GetCounter(m.base + "steal_events");
    m.stolen_records = registry->GetCounter(m.base + "stolen_records");
    m.batch_fill = registry->GetHistogram(m.base + "batch_fill");
    m.drain_cycles = registry->GetHistogram(m.base + "drain_cycles");
    m.occupancy = registry->GetGauge(m.base + "occupancy");
  }
}

void ShardCore::Bump(const char* leaf, uint64_t n) const {
  if (config_->registry != nullptr) {
    config_->registry->GetCounter(metrics_.base + leaf)->Add(n);
  }
}

bool ShardCore::ChooseMode(size_t occupancy) {
  bool degraded = config_->degrade_enabled && ladder_.OnOccupancy(occupancy);
  degraded |= attack_degrade_;
  if (degraded != degraded_) {
    degraded_ = degraded;
    Bump(degraded ? "degrade_enter" : "degrade_exit");
  }
  return degraded;
}

void ShardCore::Apply(const Packet* records, size_t n, bool degraded) {
  if (config_->with_sketch) {
    Sketch* sk = epoch_shard_->active();
    uint64_t weight = 0;
    // Fenced reads: the ring pop's cross-core loads finish before the clock
    // starts instead of being charged to the update.
    const bool timed = counts_.batches_drained % kTimedBatchEvery == 0;
    const uint64_t t0 = timed ? ReadCycleCounterFenced() : 0;
    if (degraded) {
      for (size_t i = 0; i < n; ++i) {
        if (gate_->Admit()) {
          const uint32_t cw = gate_->CompensatedWeight(records[i].weight);
          sk->Update(records[i].key, cw);
          weight += cw;
        }
      }
    } else {
      sk->UpdateBatch(records, n);
      for (size_t i = 0; i < n; ++i) weight += records[i].weight;
    }
    if (timed) {
      const uint64_t cycles = ReadCycleCounterFenced() - t0;
      counts_.update_cycles += cycles;
      ++counts_.timed_batches;
      if (metrics_.drain_cycles) metrics_.drain_cycles->Observe(cycles);
    }
    epoch_weight_ += weight;
  }
  applied_ += n;
  (degraded ? counts_.packets_degraded : counts_.packets_exact) += n;
  ++counts_.batches_drained;
  if (metrics_.exact) {
    (degraded ? metrics_.degraded : metrics_.exact)->Add(n);
    metrics_.batch_fill->Observe(n);
  }
  if (checkpoints_ &&
      applied_ - last_checkpoint_ >= config_->checkpoint_interval) {
    TakeCheckpoint();
  }
  if (monitor_ && applied_ - last_window_ >= config_->attack_window_packets) {
    ObserveAttackWindow();
  }
}

void ShardCore::CountSteal(uint64_t records) {
  ++counts_.steal_events;
  counts_.stolen_records += records;
  if (metrics_.steal_events) {
    metrics_.steal_events->Add(1);
    metrics_.stolen_records->Add(records);
  }
}

void ShardCore::TakeCheckpoint() {
  auto image = epoch_shard_->active()->SerializeState();
  const uint64_t seq = ++checkpoint_seq_;
  if (faults_ != nullptr) faults_->MaybeCorrupt(shard_, seq, &image);
  const size_t image_bytes = image.size();
  checkpoints_->Put({seq, applied_, epoch_weight_, std::move(image)});
  last_checkpoint_ = applied_;
  ++counts_.checkpoints_taken;
  Bump("checkpoints");
  Bump("checkpoint_bytes", image_bytes);
}

void ShardCore::Restore() {
  if (!config_->with_sketch) return;
  Sketch* sk = epoch_shard_->active();
  bool restored = false;
  if (checkpoints_) {
    for (const auto& image : checkpoints_->Candidates()) {
      if (sk->RestoreState(image.bytes)) {
        counts_.packets_lost_estimate += applied_ - image.progress;
        epoch_weight_ = image.weight;
        restored = true;
        break;
      }
      ++counts_.checkpoints_rejected;
      Bump("checkpoints_rejected");
    }
  }
  if (!restored) {
    sk->Clear();
    counts_.packets_lost_estimate += applied_ - empty_since_;
    epoch_weight_ = 0;
  }
  if (monitor_) {
    monitor_->Rebase(sk->Stats());
    last_window_ = applied_;
  }
}

// Last-resort escalation shared by both attack classes: force the
// degradation ladder on (if the operator enabled it at all). Lifts after
// sustained honest windows.
void ShardCore::ForceDegrade() {
  if (!config_->degrade_enabled || attack_degrade_) return;
  attack_degrade_ = true;
  honest_streak_ = 0;
  ++counts_.attack_degrade_forced;
  Bump("attack_degrade_forced");
}

void ShardCore::ObserveAttackWindow() {
  Sketch* sk = epoch_shard_->active();
  last_window_ = applied_;
  const core::AttackMonitor::Verdict verdict =
      monitor_->ObserveWindow(sk->Stats());
  if (config_->registry != nullptr) {
    obs::PublishAttackSignals(config_->registry, metrics_.base + "attack",
                              *monitor_);
  }
  switch (verdict) {
    case core::AttackMonitor::Verdict::kHonest:
      if (attack_degrade_ &&
          ++honest_streak_ >=
              2 * static_cast<uint64_t>(monitor_->options().confirm_windows)) {
        attack_degrade_ = false;
        honest_streak_ = 0;
      }
      break;
    case core::AttackMonitor::Verdict::kSuspicious:
      honest_streak_ = 0;
      ++counts_.attack_windows_suspicious;
      Bump("attack_suspicious");
      break;
    case core::AttackMonitor::Verdict::kCollisionConfirmed: {
      honest_streak_ = 0;
      ++counts_.collision_attacks_confirmed;
      Bump("attack_collision");
      if (!config_->rotate_on_attack) {
        // Rotation disabled by the operator: degradation is the only remedy
        // left on the ladder.
        ForceDegrade();
        break;
      }
      const uint64_t n = attack_rotations_++;
      if (n > 0) {
        // The attacker re-learned a rotated seed (adaptive white-box);
        // rotating alone is not holding, so also engage the ladder.
        ForceDegrade();
      }
      uint64_t mix = config_->rotation_seed ^
                     (static_cast<uint64_t>(shard_) << 32) ^ (n + 1);
      seed_ = config_->rotation_seed != 0 ? SplitMix64(mix) : RandomSeed();
      const core::RotationStats rotation = core::RotateSeed(sk, seed_);
      ++counts_.seed_rotations;
      Bump("seed_rotations");
      counts_.rotation_mass_conserved &= rotation.mass_conserved;
      // The sketch under the counters just changed wholesale; judge the next
      // window against the fresh baseline.
      monitor_->Reset(sk->Stats());
      // Older images carry the old seed; checkpoint the new one at once so a
      // crash right after rotation does not restore the attacked seed.
      if (checkpoints_) TakeCheckpoint();
      break;
    }
    case core::AttackMonitor::Verdict::kChurnFloodConfirmed:
      // Seed-independent flood: rotation would not help, degrade does.
      honest_streak_ = 0;
      ++counts_.churn_floods_confirmed;
      Bump("attack_churn_flood");
      ForceDegrade();
      break;
  }
}

bool ShardCore::TryRotate(uint64_t epoch) {
  if (!epoch_shard_->TryRotate(epoch, epoch_weight_)) {
    ++counts_.rotation_refusals;
    return false;
  }
  epoch_weight_ = 0;
  epoch_ = epoch;
  ++counts_.rotations;
  // The shard starts a fresh sketch: carry the shard's seed onto it (the
  // spare may predate an attack rotation; Recycle already cleared it, so a
  // reseed suffices), and restart the checkpoint and attack baselines — the
  // published epoch has left the worker, so no older image may be restored
  // over the new one.
  Sketch* sk = epoch_shard_->active();
  if (sk->seed() != seed_) sk->Reseed(seed_);
  if (checkpoints_) checkpoints_->Clear();
  last_checkpoint_ = empty_since_ = applied_;
  if (monitor_) {
    monitor_->Rebase(sk->Stats());
    last_window_ = applied_;
  }
  if (config_->registry != nullptr) {
    config_->registry->GetGauge(metrics_.base + "epoch")
        ->Set(static_cast<double>(epoch));
  }
  return true;
}

}  // namespace coco::ovs
