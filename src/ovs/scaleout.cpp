#include "ovs/scaleout.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/cycle_clock.h"
#include "common/rng.h"
#include "core/cocosketch.h"
#include "core/merge.h"
#include "core/sampled_cocosketch.h"
#include "core/seed_rotation.h"
#include "obs/sketch_metrics.h"
#include "ovs/degrade.h"
#include "ovs/epoch.h"
#include "ovs/watchdog.h"

namespace coco::ovs {
namespace {

using Sketch = core::CocoSketch<FiveTuple>;

// epoch_done sentinel: the shard's worker exited and will never publish
// again; the collector must stop waiting and leave the mass to the final
// quiescent sweep.
constexpr uint64_t kShardRetired = UINT64_MAX;

// Worker lifecycle, advanced by the worker itself and observed by the
// watchdog, the collector and the main thread. kExited means the thread died
// without finishing (injected kill) and needs a respawn; kDone means all of
// its work is drained.
constexpr int kRunning = 0;
constexpr int kExited = 1;
constexpr int kDone = 2;

// One batch in kTimedBatchEvery gets its sketch update timed (two fenced
// cycle-counter reads); measurement_cpu_fraction scales the sample up. Timing
// every batch cost the uncapped datapath several percent of its rate.
constexpr uint64_t kTimedBatchEvery = 16;

// Per-shard registry handles for the per-batch metrics, resolved before the
// threads start so the registry lock never appears on a hot path. Rare
// events (checkpoints, restores, attack verdicts, ladder transitions) look
// their counter up by name when they fire. Null when uninstrumented.
struct ShardMetrics {
  obs::Counter* offered = nullptr;
  obs::Counter* exact = nullptr;
  obs::Counter* degraded = nullptr;
  obs::Counter* rx_dropped = nullptr;
  obs::Counter* steal_events = nullptr;    // steals INTO this shard
  obs::Counter* stolen_records = nullptr;  // records re-steered to this shard
  obs::Histogram* batch_fill = nullptr;
  obs::Histogram* drain_cycles = nullptr;
  obs::Gauge* occupancy = nullptr;
  std::string base;  // "<prefix>.q<s>."
};

ShardMetrics ResolveShardMetrics(obs::Registry* registry,
                                 const std::string& prefix, size_t s) {
  ShardMetrics m;
  if (registry == nullptr) return m;
  m.base = prefix + ".q" + std::to_string(s) + ".";
  m.offered = registry->GetCounter(m.base + "offered");
  m.exact = registry->GetCounter(m.base + "exact");
  m.degraded = registry->GetCounter(m.base + "degraded");
  m.rx_dropped = registry->GetCounter(m.base + "rx_dropped");
  m.steal_events = registry->GetCounter(m.base + "steal_events");
  m.stolen_records = registry->GetCounter(m.base + "stolen_records");
  m.batch_fill = registry->GetHistogram(m.base + "batch_fill");
  m.drain_cycles = registry->GetHistogram(m.base + "drain_cycles");
  m.occupancy = registry->GetGauge(m.base + "occupancy");
  return m;
}

// Per-shard worker state that outlives a worker thread: a respawned worker
// picks up its shards' ladders, epoch accounting, checkpoints and attack
// history where the dead one left them. Only the shard's owning worker
// touches it; a respawn joins the dead thread before starting the next.
struct ShardState {
  ShardState(const ScaleoutConfig& config, size_t s, bool checkpointing,
             bool attack_detection)
      : ladder(config.degrade_high_watermark, config.degrade_low_watermark,
               config.ring_capacity),
        seed(config.seed) {
    if (config.degrade_enabled) {
      gate.emplace(config.degrade_sample_prob,
                   config.seed ^ (0xdeadbeefULL + s * 0x9e3779b9ULL));
    }
    if (checkpointing) checkpoints = std::make_unique<CheckpointStore>();
    if (attack_detection) {
      monitor = std::make_unique<core::AttackMonitor>(config.attack_options);
    }
  }

  DegradeLadder ladder;
  std::optional<core::SamplingGate> gate;  // degrade_enabled only
  bool degraded = false;     // mode of the last batch (transition counters)
  uint64_t applied = 0;      // packets applied: the fault/checkpoint clock
  uint64_t epoch_weight = 0; // weight applied into the active sketch
  uint64_t cur_epoch = 0;
  uint64_t seed;             // hash seed; changes on an attack rotation

  // Checkpointing; null when checkpoint_interval is 0.
  std::unique_ptr<CheckpointStore> checkpoints;
  uint64_t checkpoint_seq = 0;
  uint64_t last_checkpoint = 0;  // `applied` at the newest image
  uint64_t empty_since = 0;      // `applied` when the active sketch was empty

  // Attack detection; null when attack_window_packets is 0.
  std::unique_ptr<core::AttackMonitor> monitor;
  uint64_t last_window = 0;
  uint64_t attack_rotations = 0;  // adaptive-attacker escalation key
  uint64_t honest_streak = 0;     // consecutive honest windows while forced
  bool attack_degrade = false;    // ladder forced on (last-resort response)
};

// A worker thread's slot: lifecycle, progress for the stall watchdog, and
// the thread handle the watchdog swaps on respawn. Cache-line aligned, like
// WriterProbe: workers write their own slot while their neighbours run.
struct alignas(64) WorkerSlot {
  std::atomic<int> status{kRunning};
  std::atomic<uint64_t> progress{0};
  std::mutex mu;  // guards `thread` handle swaps
  std::thread thread;
};

// Writer-exclusion probe of one shard sketch: 0 = free, w+1 = worker w inside
// an apply section. A failed claim means two workers raced one sketch — the
// single-writer invariant the steal path must preserve. Every apply claims
// and releases it, so each probe gets its own cache line.
struct alignas(64) WriterProbe {
  std::atomic<uint32_t> writer{0};
};

// Sums the event counts one worker thread accumulated into the run totals.
void AddCounts(ScaleoutResult* into, const ScaleoutResult& from) {
  into->packets_exact += from.packets_exact;
  into->packets_degraded += from.packets_degraded;
  into->batches_drained += from.batches_drained;
  into->steal_events += from.steal_events;
  into->stolen_records += from.stolen_records;
  into->rotations += from.rotations;
  into->rotation_refusals += from.rotation_refusals;
  into->checkpoints_taken += from.checkpoints_taken;
  into->checkpoints_rejected += from.checkpoints_rejected;
  into->packets_lost_estimate += from.packets_lost_estimate;
  into->attack_windows_suspicious += from.attack_windows_suspicious;
  into->collision_attacks_confirmed += from.collision_attacks_confirmed;
  into->churn_floods_confirmed += from.churn_floods_confirmed;
  into->seed_rotations += from.seed_rotations;
  into->attack_degrade_forced += from.attack_degrade_forced;
  into->rotation_mass_conserved &= from.rotation_mass_conserved;
}

// Merge the given shard sketches and fold their decode into `table`. A shard
// rotated onto a fresh seed after an attack cannot share a position-wise
// merge with the others, so each seed group is merged on its own — one
// MergeAll per seed, its seed-equality check still a hard error. Returns the
// fold's conflict count.
uint64_t FoldEpochSketches(std::vector<const Sketch*> sources,
                           size_t per_shard_memory, size_t d, Rng* rng,
                           FlowTable<FiveTuple>* table) {
  std::stable_sort(sources.begin(), sources.end(),
                   [](const Sketch* a, const Sketch* b) {
                     return a->seed() < b->seed();
                   });
  uint64_t conflicts = 0;
  for (auto first = sources.begin(); first != sources.end();) {
    const uint64_t seed = (*first)->seed();
    const auto last = std::find_if(first, sources.end(), [&](const Sketch* s) {
      return s->seed() != seed;
    });
    Sketch snapshot(per_shard_memory, d, seed);
    const core::MergeStats stats =
        core::MergeAll(&snapshot, std::vector<const Sketch*>(first, last), rng);
    COCO_CHECK(stats.ok, "epoch publication merged incompatible shards");
    for (const auto& [key, value] : snapshot.Decode()) (*table)[key] += value;
    conflicts += stats.conflicts;
    first = last;
  }
  return conflicts;
}

}  // namespace

ConservationView ReadConservation(obs::Registry* registry,
                                  const std::string& prefix) {
  COCO_CHECK(registry != nullptr, "conservation check needs a registry");
  const std::string stem = prefix + ".q";
  ConservationView view;
  registry->ForEachCounter([&](std::string_view name, const obs::Counter& c) {
    if (name.substr(0, stem.size()) != stem) return;
    // Expect `<stem><digits>.<leaf>`.
    const std::string_view rest = name.substr(stem.size());
    const size_t digits = rest.find_first_not_of("0123456789");
    if (digits == 0 || digits == rest.npos || rest[digits] != '.') return;
    const std::string_view leaf = rest.substr(digits + 1);
    if (leaf == "offered") {
      view.offered += c.Value();
    } else if (leaf == "exact") {
      view.exact += c.Value();
    } else if (leaf == "degraded") {
      view.degraded += c.Value();
    } else if (leaf == "rx_dropped") {
      view.rx_dropped += c.Value();
    }
  });
  return view;
}

ScaleoutResult RunScaleout(const ScaleoutConfig& config,
                           const std::vector<Packet>& trace) {
  const size_t S = config.num_shards;
  const size_t W = config.num_workers;
  COCO_CHECK(S >= 1 && W >= 1 && W <= S,
             "scale-out needs 1 <= workers <= shards");
  const size_t drain_batch = config.drain_batch < 1 ? 1 : config.drain_batch;
  const size_t per_shard_memory = config.sketch_memory_bytes / S;
  const bool stealing = config.steal_batches > 0;
  const bool have_faults = !config.faults.Empty();
  const bool checkpointing =
      config.with_sketch && config.checkpoint_interval != 0;
  const bool attack_detection =
      config.with_sketch && config.attack_window_packets != 0;
  // The one per-batch branch every optional per-shard feature hides behind.
  const bool batch_hooks = have_faults || checkpointing || attack_detection;
  // A killed worker with no watchdog would hang a backpressured producer
  // forever, so kills force the watchdog on.
  uint64_t watchdog_ms = config.watchdog_timeout_ms;
  if (watchdog_ms == 0 && !config.faults.kills.empty()) watchdog_ms = 200;

  ScaleoutResult result;
  result.topology =
      PlaceShards(S, W, config.num_groups, config.placement_cost);
  const ShardTopology& topo = result.topology;

  // RSS stage: pre-steer the trace into per-shard producer lists, so the
  // producer threads only pace and push.
  uint64_t steer_seed = config.steering_seed;
  if (steer_seed == 0) {
    uint64_t mix = config.seed;
    steer_seed = SplitMix64(mix);
  }
  const FlowSteering steering(steer_seed, S);
  std::vector<std::vector<Packet>> striped(S);
  for (auto& v : striped) v.reserve(trace.size() / S + 1);
  for (const Packet& p : trace) striped[steering.Shard(p.key)].push_back(p);

  std::vector<std::unique_ptr<SpscRing<Packet>>> rings;
  rings.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    rings.push_back(std::make_unique<SpscRing<Packet>>(config.ring_capacity));
  }

  // Triple-buffered per-shard sketch pairs; one shared hash seed so epoch
  // publication can merge sketch-level.
  std::vector<std::unique_ptr<EpochShard<FiveTuple>>> shards;
  shards.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    shards.push_back(std::make_unique<EpochShard<FiveTuple>>(
        per_shard_memory, config.d, config.seed));
  }

  std::vector<ShardMetrics> metrics;
  std::vector<ShardState> state;
  metrics.reserve(S);
  state.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    metrics.push_back(
        ResolveShardMetrics(config.registry, config.metrics_prefix, s));
    state.emplace_back(config, s, checkpointing, attack_detection);
  }

  // Shared run state.
  std::atomic<uint64_t> issued{0};  // NIC token accounting (rate-capped mode)
  std::vector<std::atomic<bool>> producer_done(S);
  for (auto& f : producer_done) f.store(false);
  std::vector<WorkerSlot> workers(W);
  std::vector<WriterProbe> sketch_writer(S);
  // Last epoch each shard published (kShardRetired once its worker exits).
  std::vector<std::atomic<uint64_t>> epoch_done(S);
  for (auto& e : epoch_done) e.store(0);

  std::atomic<uint64_t> requested_epoch{0};
  std::atomic<uint64_t> drained_total{0};
  std::atomic<bool> single_writer_violated{false};
  FaultInjector injector(config.faults);

  // Run totals, summed from each worker thread as it exits.
  std::mutex totals_mu;
  ScaleoutResult totals;
  uint64_t update_cycles = 0;  // over `timed_batches` sampled batches
  uint64_t timed_batches = 0;
  uint64_t busy_cycles = 0;

  // A rare per-shard event: bump `<prefix>.q<s>.<leaf>` by `n`.
  const auto bump = [&](size_t s, const char* leaf, uint64_t n = 1) {
    if (config.registry != nullptr) {
      config.registry->GetCounter(metrics[s].base + leaf)->Add(n);
    }
  };

  const auto worker_done = [&](size_t w) {
    return workers[w].status.load(std::memory_order_acquire) == kDone;
  };

  // Start gate: no producer or worker proceeds until every thread has been
  // spawned. Without it, on a host that serializes threads onto few cores,
  // the first producer/worker pair can process the entire trace before the
  // remaining workers exist — idle thieves would never observe the backlog
  // and the wall-clock would charge thread-spawn latency to the datapath.
  std::atomic<bool> start_gate{false};

  Stopwatch wall;
  const double rate_pps = config.nic_rate_mpps * 1e6;
  const bool drop_mode = config.overflow == OverflowPolicy::kDropNewest;

  // ---- Producers: one per shard ring (single-producer invariant), pacing
  // against the shared NIC token bucket when a rate cap is set. ----
  std::vector<std::thread> producers;
  producers.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    producers.emplace_back([&, s] {
      while (!start_gate.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const ShardMetrics& sm = metrics[s];
      const std::vector<Packet>& recs = striped[s];
      // The NIC delivers bursts of up to drain_batch packets — the rx burst
      // a DPDK poll loop sees: the producer draws the burst's line-rate
      // slots from the token bucket at once, waits for the last to come
      // due, and publishes the burst with one ring-index store. Publishing
      // packet by packet made every push fight the polling worker for the
      // ring's cache lines, which held a paced queue near 5 Mpps.
      for (size_t i = 0; i < recs.size();) {
        const size_t n = std::min(drain_batch, recs.size() - i);
        if (rate_pps > 0) {
          const uint64_t last_slot =
              issued.fetch_add(n, std::memory_order_relaxed) + n - 1;
          while (static_cast<double>(last_slot) >=
                 wall.ElapsedSeconds() * rate_pps) {
            std::this_thread::yield();
          }
        }
        // Conservation accounting: the burst is `offered` before it can
        // surface anywhere else (ring, drop counter), so the live registry
        // view never over-accounts.
        if (sm.offered) sm.offered->Add(n);
        const Packet* burst = recs.data() + i;
        if (drop_mode) {
          const size_t pushed = rings[s]->PushOrDrop(burst, n);
          if (pushed < n && sm.rx_dropped) sm.rx_dropped->Add(n - pushed);
        } else {
          for (size_t done = 0; done < n;) {
            const size_t pushed = rings[s]->PushBatch(burst + done, n - done);
            if (pushed == 0) std::this_thread::yield();
            done += pushed;
          }
        }
        i += n;
      }
      producer_done[s].store(true, std::memory_order_release);
    });
  }

  // ---- Workers. `respawned` is the crash-recovery entry: the replacement
  // of a killed worker first restores each owned shard from its newest
  // checkpoint that validates. ----
  const auto worker_fn = [&](size_t w, bool respawned) {
    while (!start_gate.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    WorkerSlot& slot = workers[w];
    const std::vector<size_t>& owned = topo.worker_shards[w];
    const size_t home = owned[0];  // steal target: re-steered records go here
    ScaleoutResult local;          // this thread's event counts
    uint64_t local_update_cycles = 0;  // over the timed batches only
    uint64_t local_timed_batches = 0;
    uint64_t progress = slot.progress.load(std::memory_order_relaxed);
    uint64_t idle_streak = 0;
    bool dead = false;  // an injected kill fired: exit without finishing
    const uint64_t thread_begin = ReadCycleCounter();
    std::vector<Packet> batch(drain_batch);

    const auto take_checkpoint = [&](size_t s) {
      ShardState& st = state[s];
      auto image = shards[s]->active()->SerializeState();
      const uint64_t seq = ++st.checkpoint_seq;
      injector.MaybeCorrupt(s, seq, &image);
      const size_t image_bytes = image.size();
      st.checkpoints->Put({seq, st.applied, st.epoch_weight, std::move(image)});
      st.last_checkpoint = st.applied;
      ++local.checkpoints_taken;
      bump(s, "checkpoints");
      bump(s, "checkpoint_bytes", image_bytes);
    };

    // The dead worker's in-memory sketches died with it; rebuild each from
    // the newest checkpoint whose checksum validates, falling back once,
    // else start empty. Packets applied after the restored image was taken
    // are the bounded loss reported to the control plane.
    const auto restore = [&](size_t s) {
      ShardState& st = state[s];
      Sketch* sk = shards[s]->active();
      bool restored = false;
      if (st.checkpoints) {
        for (const auto& image : st.checkpoints->Candidates()) {
          if (sk->RestoreState(image.bytes)) {
            local.packets_lost_estimate += st.applied - image.progress;
            st.epoch_weight = image.weight;
            restored = true;
            break;
          }
          ++local.checkpoints_rejected;
          bump(s, "checkpoints_rejected");
        }
      }
      if (!restored) {
        sk->Clear();
        local.packets_lost_estimate += st.applied - st.empty_since;
        st.epoch_weight = 0;
      }
      if (st.monitor) {
        st.monitor->Rebase(sk->Stats());
        st.last_window = st.applied;
      }
    };
    if (respawned && config.with_sketch) {
      for (const size_t s : owned) restore(s);
    }

    // Last-resort escalation shared by both attack classes: force the
    // degradation ladder on (if the operator enabled it at all). Lifts after
    // sustained honest windows.
    const auto force_degrade = [&](size_t s) {
      ShardState& st = state[s];
      if (!config.degrade_enabled || st.attack_degrade) return;
      st.attack_degrade = true;
      st.honest_streak = 0;
      ++local.attack_degrade_forced;
      bump(s, "attack_degrade_forced");
    };

    const auto observe_attack_window = [&](size_t s) {
      ShardState& st = state[s];
      Sketch* sk = shards[s]->active();
      st.last_window = st.applied;
      const core::AttackMonitor::Verdict verdict =
          st.monitor->ObserveWindow(sk->Stats());
      if (config.registry != nullptr) {
        obs::PublishAttackSignals(config.registry, metrics[s].base + "attack",
                                  *st.monitor);
      }
      switch (verdict) {
        case core::AttackMonitor::Verdict::kHonest:
          if (st.attack_degrade &&
              ++st.honest_streak >=
                  2 * static_cast<uint64_t>(
                          st.monitor->options().confirm_windows)) {
            st.attack_degrade = false;
            st.honest_streak = 0;
          }
          break;
        case core::AttackMonitor::Verdict::kSuspicious:
          st.honest_streak = 0;
          ++local.attack_windows_suspicious;
          bump(s, "attack_suspicious");
          break;
        case core::AttackMonitor::Verdict::kCollisionConfirmed: {
          st.honest_streak = 0;
          ++local.collision_attacks_confirmed;
          bump(s, "attack_collision");
          if (!config.rotate_on_attack) {
            // Rotation disabled by the operator: degradation is the only
            // remedy left on the ladder.
            force_degrade(s);
            break;
          }
          const uint64_t n = st.attack_rotations++;
          if (n > 0) {
            // The attacker re-learned a rotated seed (adaptive white-box);
            // rotating alone is not holding, so also engage the ladder.
            force_degrade(s);
          }
          uint64_t mix = config.rotation_seed ^
                         (static_cast<uint64_t>(s) << 32) ^ (n + 1);
          st.seed = config.rotation_seed != 0 ? SplitMix64(mix) : RandomSeed();
          const core::RotationStats rotation = core::RotateSeed(sk, st.seed);
          ++local.seed_rotations;
          bump(s, "seed_rotations");
          local.rotation_mass_conserved &= rotation.mass_conserved;
          // The sketch under the counters just changed wholesale; judge the
          // next window against the fresh baseline.
          st.monitor->Reset(sk->Stats());
          // Older images carry the old seed; checkpoint the new one at once
          // so a crash right after rotation does not restore the attacked
          // seed.
          if (st.checkpoints) take_checkpoint(s);
          break;
        }
        case core::AttackMonitor::Verdict::kChurnFloodConfirmed:
          // Seed-independent flood: rotation would not help, degrade does.
          st.honest_streak = 0;
          ++local.churn_floods_confirmed;
          bump(s, "attack_churn_flood");
          force_degrade(s);
          break;
      }
    };

    // Checkpoint and attack window of shard `s` (deterministic in applied
    // packets, not wall time), then injected faults, at a batch boundary.
    // The fault clock of each owned shard is its ring's consumer cursor:
    // every record popped from the ring counts, stolen ones included. A
    // shard's own `applied` cannot serve, because thieves apply what they
    // steal into their home shard and it can end the trace below a
    // trigger. Returns true when this worker must die.
    const auto after_batch = [&](size_t s) -> bool {
      ShardState& st = state[s];
      if (checkpointing &&
          st.applied - st.last_checkpoint >= config.checkpoint_interval) {
        take_checkpoint(s);
      }
      if (attack_detection &&
          st.applied - st.last_window >= config.attack_window_packets) {
        observe_attack_window(s);
      }
      if (!have_faults) return false;
      for (const size_t f : owned) {
        const uint64_t popped = rings[f]->Popped();
        if (const uint32_t ms = injector.StallMs(f, popped)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        }
        if (injector.ShouldKill(f, popped)) return true;
      }
      return false;
    };

    // Apply the first `n` records of `batch` to shard `s`'s active sketch,
    // guarded by the writer-exclusion probe, and account for them. Exact
    // mode feeds UpdateBatch; degraded mode admits through the sampling gate
    // with compensated weights.
    const auto apply = [&](size_t s, size_t n, bool degraded_mode) {
      ShardState& st = state[s];
      uint32_t expected = 0;
      const bool claimed = sketch_writer[s].writer.compare_exchange_strong(
          expected, static_cast<uint32_t>(w) + 1, std::memory_order_acq_rel,
          std::memory_order_relaxed);
      if (!claimed) {
        single_writer_violated.store(true, std::memory_order_relaxed);
      }
      if (config.with_sketch) {
        Sketch* sk = shards[s]->active();
        uint64_t weight = 0;
        // Fenced reads: the ring pop's cross-core loads finish before the
        // clock starts instead of being charged to the update.
        const bool timed = local.batches_drained % kTimedBatchEvery == 0;
        const uint64_t t0 = timed ? ReadCycleCounterFenced() : 0;
        if (degraded_mode) {
          for (size_t i = 0; i < n; ++i) {
            if (st.gate->Admit()) {
              const uint32_t cw = st.gate->CompensatedWeight(batch[i].weight);
              sk->Update(batch[i].key, cw);
              weight += cw;
            }
          }
        } else {
          sk->UpdateBatch(batch.data(), n);
          for (size_t i = 0; i < n; ++i) weight += batch[i].weight;
        }
        if (timed) {
          const uint64_t cycles = ReadCycleCounterFenced() - t0;
          local_update_cycles += cycles;
          ++local_timed_batches;
          if (metrics[s].drain_cycles) {
            metrics[s].drain_cycles->Observe(cycles);
          }
        }
        st.epoch_weight += weight;
      }
      if (claimed) {
        sketch_writer[s].writer.store(0, std::memory_order_release);
      }
      st.applied += n;
      (degraded_mode ? local.packets_degraded : local.packets_exact) += n;
      ++local.batches_drained;
      if (metrics[s].exact) {
        (degraded_mode ? metrics[s].degraded : metrics[s].exact)->Add(n);
        metrics[s].batch_fill->Observe(n);
      }
      if (batch_hooks && after_batch(s)) dead = true;
    };

    // Drain up to `rounds` batches from owned shard `s`. The consumer token
    // guards only the POP (the ring's consumer cursor) and is released
    // before the sketch apply: the apply is the expensive part, and holding
    // the token across it would leave a preempted owner blocking every
    // steal attempt for its whole descheduled stretch.
    const auto drain_shard = [&](size_t s, size_t rounds) -> size_t {
      ShardState& st = state[s];
      size_t drained = 0;
      for (size_t r = 0; r < rounds && !dead; ++r) {
        // Occupancy is sampled before the pop so the ladder sees the
        // backlog this batch was drained from.
        const size_t occupancy =
            config.degrade_enabled ? rings[s]->SizeApprox() : 0;
        if (!rings[s]->TryAcquireConsumer()) break;  // thief mid-pop: skip
        const size_t n = rings[s]->PopBatch(batch.data(), drain_batch);
        rings[s]->ReleaseConsumer();
        if (n == 0) break;
        // The ladder observes occupancy even while the attack response
        // holds the mode degraded, so its own hysteresis stays current.
        bool degraded_mode =
            config.degrade_enabled && st.ladder.OnOccupancy(occupancy);
        degraded_mode |= st.attack_degrade;
        if (degraded_mode != st.degraded) {
          st.degraded = degraded_mode;
          bump(s, degraded_mode ? "degrade_enter" : "degrade_exit");
        }
        apply(s, n, degraded_mode);
        drained += n;
      }
      return drained;
    };

    // Bounded steal: fullest foreign ring above the occupancy threshold,
    // at most steal_batches batches, records re-steered to `home`.
    const size_t steal_floor = std::max<size_t>(
        1, static_cast<size_t>(config.steal_threshold *
                               static_cast<double>(config.ring_capacity)));
    const auto try_steal = [&]() -> size_t {
      if (!stealing) return 0;
      size_t victim = S;
      size_t best_occ = steal_floor - 1;
      for (size_t s = 0; s < S; ++s) {
        if (topo.shard_owner[s] == w) continue;
        const size_t occ = rings[s]->SizeApprox();
        if (occ > best_occ) {
          victim = s;
          best_occ = occ;
        }
      }
      if (victim == S) return 0;
      size_t stolen = 0;
      for (size_t b = 0; b < config.steal_batches && !dead; ++b) {
        // Token per batch, covering only the pop — the owner can reclaim
        // its ring between the thief's batches.
        if (!rings[victim]->TryAcquireConsumer()) break;
        const size_t n = rings[victim]->PopBatch(batch.data(), drain_batch);
        rings[victim]->ReleaseConsumer();
        if (n == 0) break;
        // Stolen work is applied at full fidelity into the thief's own
        // shard: single-writer holds, and the victim's backlog (the thing
        // the ladder keys off) shrinks.
        apply(home, n, false);
        stolen += n;
      }
      if (stolen > 0) {
        ++local.steal_events;
        local.stolen_records += stolen;
        if (metrics[home].steal_events) {
          metrics[home].steal_events->Add(1);
          metrics[home].stolen_records->Add(stolen);
        }
      }
      return stolen;
    };

    // At an epoch swap the shard starts a fresh sketch: carry the shard's
    // seed onto it (the spare may predate an attack rotation), and restart
    // the checkpoint and attack baselines — the published epoch has left
    // the worker, so no older image may be restored over the new one.
    const auto start_epoch = [&](size_t s) {
      ShardState& st = state[s];
      Sketch* sk = shards[s]->active();
      if (sk->seed() != st.seed) core::RotateSeed(sk, st.seed);
      if (st.checkpoints) st.checkpoints->Clear();
      st.last_checkpoint = st.empty_since = st.applied;
      if (st.monitor) {
        st.monitor->Rebase(sk->Stats());
        st.last_window = st.applied;
      }
    };

    const auto flush = [&] {
      std::lock_guard<std::mutex> lock(totals_mu);
      AddCounts(&totals, local);
      update_cycles += local_update_cycles;
      timed_batches += local_timed_batches;
      busy_cycles += ReadCycleCounter() - thread_begin;
    };

    // Occupancy snapshot buffer for proportional polling.
    std::vector<std::pair<size_t, size_t>> occ_order(owned.size());

    for (;;) {
      // Proportional polling: fullest owned ring first, drain budget
      // proportional to its backlog (1..4 batches), at least one attempt
      // per ring per cycle so no owned shard starves.
      for (size_t i = 0; i < owned.size(); ++i) {
        occ_order[i] = {rings[owned[i]]->SizeApprox(), owned[i]};
      }
      std::sort(occ_order.begin(), occ_order.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      size_t drained = 0;
      for (const auto& [occ, s] : occ_order) {
        if (dead) break;
        const size_t rounds = 1 + std::min<size_t>(3, occ / drain_batch);
        drained += drain_shard(s, rounds);
        if (metrics[s].occupancy) {
          metrics[s].occupancy->Set(
              static_cast<double>(rings[s]->SizeApprox()));
        }
      }

      if (!dead) {
        // Rotation check, once per polling cycle (== at a batch boundary).
        const uint64_t req = requested_epoch.load(std::memory_order_acquire);
        for (const size_t s : owned) {
          ShardState& st = state[s];
          if (st.cur_epoch >= req) continue;
          if (shards[s]->TryRotate(req, st.epoch_weight)) {
            st.epoch_weight = 0;
            st.cur_epoch = req;
            ++local.rotations;
            start_epoch(s);
            epoch_done[s].store(req, std::memory_order_release);
            if (config.registry != nullptr) {
              config.registry->GetGauge(metrics[s].base + "epoch")
                  ->Set(static_cast<double>(req));
            }
          } else {
            ++local.rotation_refusals;
          }
        }
        if (drained == 0) drained = try_steal();
      }

      if (drained != 0) {
        idle_streak = 0;
        // Shared progress exists only for the thread that reads it: a
        // contended RMW per poll would tax every worker for nothing.
        if (config.rotation_interval_packets > 0) {
          drained_total.fetch_add(drained, std::memory_order_relaxed);
        }
        if (watchdog_ms > 0) {
          progress += drained;
          slot.progress.store(progress, std::memory_order_relaxed);
        }
      }
      if (dead) {
        flush();
        slot.status.store(kExited, std::memory_order_release);
        return;
      }
      if (drained != 0) continue;

      // Exit test. Without stealing a worker answers only for its own
      // shards; with stealing it stays available as a thief until the
      // WHOLE run is drained — an idle core that left early would strand
      // exactly the skewed backlogs stealing exists for.
      bool done = true;
      for (size_t s = 0; s < S; ++s) {
        if (!stealing && topo.shard_owner[s] != w) continue;
        if (!producer_done[s].load(std::memory_order_acquire) ||
            rings[s]->SizeApprox() != 0) {
          done = false;
          break;
        }
      }
      if (done) break;
      // A persistently idle worker (nothing owned, nothing stealable)
      // backs off from yield to a short sleep: on an oversubscribed host a
      // spinning thief is stealing CPU from the workers it would help, and
      // 50us is far below the time a steal-worthy backlog persists.
      if (++idle_streak > 64) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        std::this_thread::yield();
      }
    }

    // Retire the owned shards so the collector stops waiting on them (their
    // residual epoch weight moves to the final sweep).
    for (const size_t s : owned) {
      epoch_done[s].store(kShardRetired, std::memory_order_release);
    }
    flush();
    slot.status.store(kDone, std::memory_order_release);
  };

  for (size_t w = 0; w < W; ++w) {
    workers[w].thread = std::thread(worker_fn, w, false);
  }

  // Everyone is spawned; open the gate and start the measured clock.
  wall.Restart();
  start_gate.store(true, std::memory_order_release);

  // ---- Watchdog: flags stalled workers and respawns dead ones. Join-
  // before-respawn keeps each shard single-writer at all times. ----
  std::atomic<bool> stop_watchdog{false};
  uint64_t stalls_detected = 0;
  uint64_t restores = 0;
  std::thread watchdog;
  if (watchdog_ms > 0) {
    watchdog = std::thread([&] {
      std::vector<StallDetector> detectors(W, StallDetector(watchdog_ms));
      Stopwatch clock;
      while (!stop_watchdog.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const uint64_t now_ms =
            static_cast<uint64_t>(clock.ElapsedSeconds() * 1e3);
        for (size_t w = 0; w < W; ++w) {
          WorkerSlot& slot = workers[w];
          const size_t home = topo.worker_shards[w][0];
          const int status = slot.status.load(std::memory_order_acquire);
          if (status == kExited) {
            std::lock_guard<std::mutex> lock(slot.mu);
            slot.thread.join();
            ++restores;
            bump(home, "restores");
            slot.status.store(kRunning, std::memory_order_release);
            slot.thread = std::thread(worker_fn, w, true);
          } else if (status == kRunning) {
            bool pending = false;
            for (const size_t s : topo.worker_shards[w]) {
              if (!producer_done[s].load(std::memory_order_acquire) ||
                  rings[s]->SizeApprox() != 0) {
                pending = true;
                break;
              }
            }
            if (detectors[w].Observe(
                    slot.progress.load(std::memory_order_relaxed), now_ms,
                    pending)) {
              ++stalls_detected;
              bump(home, "stalls_detected");
            }
          }
        }
      }
    });
  }

  // ---- Epoch collector: requests rotations on a drained-packet cadence
  // and folds each published epoch while the writers keep running. ----
  std::vector<EpochRecord> epochs;
  FlowTable<FiveTuple> merged_table;
  Rng merge_rng(config.seed ^ 0xe90c4ULL);
  std::thread collector;
  uint64_t last_requested = 0;
  if (config.rotation_interval_packets > 0) {
    collector = std::thread([&] {
      uint64_t next_mark = config.rotation_interval_packets;
      uint64_t epoch = 0;
      const auto all_done = [&] {
        for (size_t w = 0; w < W; ++w) {
          if (!worker_done(w)) return false;
        }
        return true;
      };
      for (;;) {
        while (drained_total.load(std::memory_order_relaxed) < next_mark &&
               !all_done()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        if (all_done()) break;

        ++epoch;
        requested_epoch.store(epoch, std::memory_order_release);
        if (config.registry != nullptr) {
          config.registry->GetGauge(config.metrics_prefix + ".run.epoch")
              ->Set(static_cast<double>(epoch));
        }

        EpochRecord rec;
        rec.epoch = epoch;
        rec.shard_seeds.assign(S, 0);
        std::vector<std::pair<size_t, EpochShard<FiveTuple>::Published>>
            taken;
        taken.reserve(S);
        for (size_t s = 0; s < S; ++s) {
          // Wait for the shard to serve this epoch — or for its worker to
          // retire, in which case the shard's mass lands in the final sweep.
          // A killed worker is not done: its respawn serves the epoch.
          while (epoch_done[s].load(std::memory_order_acquire) < epoch &&
                 !worker_done(topo.shard_owner[s])) {
            std::this_thread::yield();
          }
          auto pub = shards[s]->TakePublished();
          if (pub.sketch != nullptr) {
            rec.applied_weight += pub.applied_weight;
            rec.sketch_mass += pub.sketch->TotalValue();
            rec.shard_seeds[s] = pub.sketch->seed();
            ++rec.shards_published;
            taken.emplace_back(s, std::move(pub));
          }
        }
        std::vector<const Sketch*> sources;
        sources.reserve(taken.size());
        for (const auto& [s, pub] : taken) sources.push_back(pub.sketch.get());
        rec.merge_conflicts = FoldEpochSketches(
            sources, per_shard_memory, config.d, &merge_rng, &merged_table);
        // Recycling re-arms each shard's next rotation; Clear() runs here,
        // on the collector thread, never on a writer.
        for (auto& [s, pub] : taken) {
          shards[s]->Recycle(std::move(pub.sketch));
        }
        epochs.push_back(rec);
        next_mark += config.rotation_interval_packets;
      }
      last_requested = requested_epoch.load(std::memory_order_relaxed);
    });
  }

  for (auto& t : producers) t.join();
  if (watchdog_ms > 0) {
    // The watchdog may still swap thread handles; wait until every worker
    // has finished for good before joining.
    for (size_t w = 0; w < W; ++w) {
      while (!worker_done(w)) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }
  for (WorkerSlot& slot : workers) {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.thread.join();
  }
  if (collector.joinable()) collector.join();
  stop_watchdog.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();
  const double seconds = wall.ElapsedSeconds();

  // ---- Final quiescent sweep: leftover published epochs plus the active
  // sketches, folded as one last epoch record. ----
  EpochRecord final_rec;
  final_rec.epoch = last_requested + 1;
  final_rec.shard_seeds.assign(S, 0);
  std::vector<EpochShard<FiveTuple>::Published> leftovers;
  std::vector<const Sketch*> sources;
  for (size_t s = 0; s < S; ++s) {
    auto pub = shards[s]->TakePublished();
    if (pub.sketch != nullptr) {
      final_rec.applied_weight += pub.applied_weight;
      final_rec.sketch_mass += pub.sketch->TotalValue();
      leftovers.push_back(std::move(pub));
    }
    Sketch* active = shards[s]->active();
    final_rec.applied_weight += state[s].epoch_weight;
    final_rec.sketch_mass += active->TotalValue();
    final_rec.shard_seeds[s] = active->seed();
    sources.push_back(active);
    ++final_rec.shards_published;
  }
  for (const auto& pub : leftovers) sources.push_back(pub.sketch.get());
  final_rec.merge_conflicts = FoldEpochSketches(
      sources, per_shard_memory, config.d, &merge_rng, &merged_table);
  epochs.push_back(final_rec);

  AddCounts(&result, totals);
  result.packets_processed = result.packets_exact + result.packets_degraded;
  for (size_t s = 0; s < S; ++s) {
    result.rx_dropped += rings[s]->rx_dropped();
    result.degrade_enter_events += state[s].ladder.enter_events();
  }
  result.mpps = seconds == 0.0
                    ? 0.0
                    : static_cast<double>(result.packets_processed) /
                          seconds / 1e6;
  result.measurement_cpu_fraction =
      timed_batches == 0
          ? 0.0
          : static_cast<double>(update_cycles) *
                static_cast<double>(result.batches_drained) /
                static_cast<double>(timed_batches) /
                static_cast<double>(busy_cycles);
  result.avg_batch_fill =
      result.batches_drained == 0
          ? 0.0
          : static_cast<double>(result.packets_processed) /
                static_cast<double>(result.batches_drained);
  result.stalls_injected = injector.stalls_fired();
  result.kills_injected = injector.kills_fired();
  result.stalls_detected = stalls_detected;
  result.restores = restores;
  result.single_writer_ok = !single_writer_violated.load();
  result.epochs = std::move(epochs);
  for (const EpochRecord& rec : result.epochs) {
    result.total_sketch_mass += rec.sketch_mass;
  }
  result.merged_table = std::move(merged_table);

  // End-of-run registry publication: per-shard sketch introspection plus
  // the run-level rates. Counters were maintained live above.
  if (config.registry != nullptr) {
    if (config.with_sketch) {
      for (size_t s = 0; s < S; ++s) {
        obs::PublishSketchStats(config.registry, metrics[s].base + "sketch",
                                shards[s]->active()->Stats());
      }
    }
    const std::string run = config.metrics_prefix + ".run.";
    const auto gauge = [&](const char* leaf, double value) {
      config.registry->GetGauge(run + leaf)->Set(value);
    };
    gauge("mpps", result.mpps);
    gauge("measurement_cpu_fraction", result.measurement_cpu_fraction);
    gauge("avg_batch_fill", result.avg_batch_fill);
    // Current pool width, for dashboards; ReadConservation deliberately
    // ignores it and sums every q<i> that ever counted.
    gauge("num_shards", static_cast<double>(S));
    gauge("num_workers", static_cast<double>(W));
    gauge("steal_events", static_cast<double>(result.steal_events));
    gauge("rotations", static_cast<double>(result.rotations));
  }
  return result;
}

}  // namespace coco::ovs
