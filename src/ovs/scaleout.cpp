#include "ovs/scaleout.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/cycle_clock.h"
#include "common/rng.h"
#include "core/cocosketch.h"
#include "core/merge.h"
#include "obs/sketch_metrics.h"
#include "ovs/epoch.h"
#include "ovs/shard_core.h"
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

// A worker thread's slot: lifecycle, progress for the stall watchdog, and
// the thread handle the watchdog swaps on respawn. Cache-line aligned, like
// WriterProbe: workers write their own slot while their neighbours run.
// Each of the slot's threads adds to `busy_cycles` as it exits.
struct alignas(64) WorkerSlot {
  std::atomic<int> status{kRunning};
  std::atomic<uint64_t> progress{0};
  std::mutex mu;  // guards `thread` handle swaps
  std::thread thread;
  uint64_t busy_cycles = 0;
};

// Writer-exclusion probe of one shard sketch: 0 = free, w+1 = worker w inside
// an apply section. A failed claim means two workers raced one sketch — the
// single-writer invariant the steal path must preserve. Every apply claims
// and releases it, so each probe gets its own cache line.
struct alignas(64) WriterProbe {
  std::atomic<uint32_t> writer{0};
};

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
  // A killed worker with no watchdog would hang a backpressured producer
  // forever, so kills force the watchdog on.
  uint64_t watchdog_ms = config.watchdog_timeout_ms;
  if (watchdog_ms == 0 && !config.faults.kills.empty()) watchdog_ms = 200;

  ScaleoutResult result;
  result.topology = PlaceShards(S, W);
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

  // Triple-buffered per-shard sketches with one shared hash seed, so epoch
  // publication can merge sketch-level, each driven by a ShardCore that
  // outlives the worker threads: a respawn picks up where the dead one left.
  FaultInjector injector(config.faults);
  std::vector<std::unique_ptr<EpochShard<FiveTuple>>> shards;
  std::vector<ShardCore> cores;
  shards.reserve(S);
  cores.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    shards.push_back(std::make_unique<EpochShard<FiveTuple>>(
        per_shard_memory, config.d, config.seed));
    cores.emplace_back(config, s, shards[s].get(), &injector);
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
      const ShardCore::Metrics& sm = cores[s].metrics();
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

  // ---- Workers: move records from rings into shard cores. `respawned` is
  // the crash-recovery entry: the replacement of a killed worker first
  // restores each owned shard from its newest checkpoint that validates. ----
  const auto worker_fn = [&](size_t w, bool respawned) {
    while (!start_gate.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    WorkerSlot& slot = workers[w];
    const std::vector<size_t>& owned = topo.worker_shards[w];
    const size_t home = owned[0];  // steal target: re-steered records go here
    uint64_t progress = slot.progress.load(std::memory_order_relaxed);
    uint64_t idle_streak = 0;
    bool dead = false;  // an injected kill fired: exit without finishing
    const uint64_t thread_begin = ReadCycleCounter();
    std::vector<Packet> batch(drain_batch);
    if (respawned) {
      for (const size_t s : owned) cores[s].Restore();
    }

    // Apply the first `n` records of `batch` to shard `s`, guarded by the
    // writer-exclusion probe, then serve injected faults at the batch
    // boundary. The fault clock of each owned shard is its ring's consumer
    // cursor: every record popped from the ring counts, stolen ones
    // included. A shard's own applied count cannot serve, because thieves
    // apply what they steal into their home shard and it can end the trace
    // below a trigger.
    const auto apply = [&](size_t s, size_t n, bool degraded_mode) {
      uint32_t expected = 0;
      const bool claimed = sketch_writer[s].writer.compare_exchange_strong(
          expected, static_cast<uint32_t>(w) + 1, std::memory_order_acq_rel,
          std::memory_order_relaxed);
      if (!claimed) {
        single_writer_violated.store(true, std::memory_order_relaxed);
      }
      cores[s].Apply(batch.data(), n, degraded_mode);
      if (claimed) {
        sketch_writer[s].writer.store(0, std::memory_order_release);
      }
      if (!have_faults) return;
      for (const size_t f : owned) {
        const uint64_t popped = rings[f]->Popped();
        if (const uint32_t ms = injector.StallMs(f, popped)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        }
        if (injector.ShouldKill(f, popped)) {
          dead = true;
          return;
        }
      }
    };

    // Drain up to `rounds` batches from owned shard `s`. The consumer token
    // guards only the POP (the ring's consumer cursor) and is released
    // before the sketch apply: the apply is the expensive part, and holding
    // the token across it would leave a preempted owner blocking every
    // steal attempt for its whole descheduled stretch.
    const auto drain_shard = [&](size_t s, size_t rounds) -> size_t {
      size_t drained = 0;
      for (size_t r = 0; r < rounds && !dead; ++r) {
        // The ladder's input is sampled before the pop so it sees the
        // backlog this batch was drained from.
        const size_t occupancy =
            config.degrade_enabled ? rings[s]->SizeApprox() : 0;
        if (!rings[s]->TryAcquireConsumer()) break;  // thief mid-pop: skip
        const size_t n = rings[s]->PopBatch(batch.data(), drain_batch);
        rings[s]->ReleaseConsumer();
        if (n == 0) break;
        apply(s, n, cores[s].ChooseMode(occupancy));
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
      if (stolen > 0) cores[home].CountSteal(stolen);
      return stolen;
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
        if (obs::Gauge* occupancy = cores[s].metrics().occupancy) {
          occupancy->Set(
              static_cast<double>(rings[s]->SizeApprox()));
        }
      }

      if (!dead) {
        // Rotation check, once per polling cycle (== at a batch boundary).
        const uint64_t req = requested_epoch.load(std::memory_order_acquire);
        for (const size_t s : owned) {
          if (cores[s].epoch() < req && cores[s].TryRotate(req)) {
            epoch_done[s].store(req, std::memory_order_release);
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
      if (dead) break;
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
    // residual epoch weight moves to the final sweep). A killed worker's
    // shards stay unretired: its respawn serves them.
    if (!dead) {
      for (const size_t s : owned) {
        epoch_done[s].store(kShardRetired, std::memory_order_release);
      }
    }
    slot.busy_cycles += ReadCycleCounter() - thread_begin;
    slot.status.store(dead ? kExited : kDone, std::memory_order_release);
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
            cores[home].Bump("restores");
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
              cores[home].Bump("stalls_detected");
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
  // sketches, folded as one last epoch record, and the run totals. ----
  EpochRecord final_rec;
  final_rec.epoch = last_requested + 1;
  final_rec.shard_seeds.assign(S, 0);
  std::vector<EpochShard<FiveTuple>::Published> leftovers;
  std::vector<const Sketch*> sources;
  // Every writer has been joined, so the shard cores' counts are final too.
  uint64_t update_cycles = 0;  // over `timed_batches` sampled batches
  uint64_t timed_batches = 0;
  for (size_t s = 0; s < S; ++s) {
    auto pub = shards[s]->TakePublished();
    if (pub.sketch != nullptr) {
      final_rec.applied_weight += pub.applied_weight;
      final_rec.sketch_mass += pub.sketch->TotalValue();
      leftovers.push_back(std::move(pub));
    }
    Sketch* active = shards[s]->active();
    final_rec.applied_weight += cores[s].epoch_weight();
    final_rec.sketch_mass += active->TotalValue();
    final_rec.shard_seeds[s] = active->seed();
    sources.push_back(active);
    ++final_rec.shards_published;

    const ShardCore::Counts& c = cores[s].counts();
    result.packets_exact += c.packets_exact;
    result.packets_degraded += c.packets_degraded;
    result.batches_drained += c.batches_drained;
    result.steal_events += c.steal_events;
    result.stolen_records += c.stolen_records;
    result.rotations += c.rotations;
    result.rotation_refusals += c.rotation_refusals;
    result.checkpoints_taken += c.checkpoints_taken;
    result.checkpoints_rejected += c.checkpoints_rejected;
    result.packets_lost_estimate += c.packets_lost_estimate;
    result.attack_windows_suspicious += c.attack_windows_suspicious;
    result.collision_attacks_confirmed += c.collision_attacks_confirmed;
    result.churn_floods_confirmed += c.churn_floods_confirmed;
    result.seed_rotations += c.seed_rotations;
    result.attack_degrade_forced += c.attack_degrade_forced;
    result.rotation_mass_conserved &= c.rotation_mass_conserved;
    result.degrade_enter_events += cores[s].degrade_enter_events();
    result.rx_dropped += rings[s]->rx_dropped();
    update_cycles += c.update_cycles;
    timed_batches += c.timed_batches;
  }
  for (const auto& pub : leftovers) sources.push_back(pub.sketch.get());
  final_rec.merge_conflicts = FoldEpochSketches(
      sources, per_shard_memory, config.d, &merge_rng, &merged_table);
  epochs.push_back(final_rec);
  uint64_t busy_cycles = 0;
  for (const WorkerSlot& slot : workers) busy_cycles += slot.busy_cycles;
  result.packets_processed = result.packets_exact + result.packets_degraded;
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
        obs::PublishSketchStats(config.registry,
                                cores[s].metrics().base + "sketch",
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
