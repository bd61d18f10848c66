// Multi-core scale-out concurrency battery (DESIGN.md "Multi-core
// scale-out"): steering determinism and balance, round-robin placement,
// the thread-free shard core's robustness features, shard-merge fidelity
// against monolithic decode, epoch rotation (writers never blocked,
// per-epoch mass conservation, no torn reads),
// bounded work stealing on adversarially skewed fill, shard-level mass and
// flow affinity, and the discovery-based conservation check across
// runtime-variable shard counts.
//
// Thread counts scale with COCO_TEST_THREADS (CI runs the battery at 2 and
// at the host's hardware concurrency); every threaded test also runs under
// TSan and ASan via scripts/run_sanitizers.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/merge.h"
#include "metrics/accuracy.h"
#include "obs/metrics.h"
#include "ovs/epoch.h"
#include "ovs/fault.h"
#include "ovs/scaleout.h"
#include "ovs/shard_core.h"
#include "ovs/steering.h"
#include "packet/keys.h"
#include "trace/adversarial.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace coco::ovs {
namespace {

using core::CocoSketch;

// Worker-thread knob for the concurrency tests. CI exports
// COCO_TEST_THREADS=2 and =<hardware concurrency> on the scalar legs.
size_t TestThreads() {
  if (const char* env = std::getenv("COCO_TEST_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<size_t>(v);
  }
  return 4;
}

uint64_t TraceWeight(const std::vector<Packet>& trace) {
  uint64_t total = 0;
  for (const Packet& p : trace) total += p.weight;
  return total;
}

// Rewrites every packet's src_port until the flow steers to `target` — the
// adversarial all-mass-on-one-shard fill for the stealing tests.
std::vector<Packet> RetargetToShard(std::vector<Packet> trace,
                                    const FlowSteering& steering,
                                    size_t target) {
  for (Packet& p : trace) {
    FiveTuple k = p.key;
    uint16_t port = k.src_port();
    while (steering.Shard(k) != target) {
      ++port;
      k = FiveTuple(k.src_ip(), k.dst_ip(), port, k.dst_port(), k.proto());
    }
    p.key = k;
  }
  return trace;
}

// ---- Flow steering --------------------------------------------------------

TEST(Steering, DeterministicPureFunctionOfSeedAndShards) {
  const auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(5000));
  const FlowSteering a(42, 8), b(42, 8), other_seed(43, 8);
  bool any_differs_across_seeds = false;
  for (const Packet& p : trace) {
    const size_t s = a.Shard(p.key);
    ASSERT_LT(s, 8u);
    // Two instances with the same (seed, shards) agree on every key — the
    // property that makes shard ownership meaningful across restarts and
    // across any number of polling threads.
    ASSERT_EQ(s, b.Shard(p.key));
    any_differs_across_seeds |= s != other_seed.Shard(p.key);
  }
  EXPECT_TRUE(any_differs_across_seeds);
}

TEST(Steering, BalancedOverFlows) {
  const size_t shards = 8;
  const FlowSteering steering(7, shards);
  std::vector<size_t> hist(shards, 0);
  Rng rng(11);
  const size_t flows = 100000;
  for (size_t i = 0; i < flows; ++i) {
    const FiveTuple key(static_cast<uint32_t>(rng.Next()),
                        static_cast<uint32_t>(rng.Next()),
                        static_cast<uint16_t>(rng.Next()),
                        static_cast<uint16_t>(rng.Next()), 6);
    ++hist[steering.Shard(key)];
  }
  const double mean = static_cast<double>(flows) / shards;
  for (size_t s = 0; s < shards; ++s) {
    EXPECT_GT(hist[s], mean * 0.9) << "shard " << s;
    EXPECT_LT(hist[s], mean * 1.1) << "shard " << s;
  }
}

TEST(Steering, ShardAssignmentIndependentOfWorkerCount) {
  // The per-shard offered counters are a pure function of the steering seed
  // — one worker or many, every flow lands on the same shard.
  const size_t S = 4;
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(30000));
  ScaleoutConfig config;
  config.num_shards = S;
  config.steering_seed = 99;
  config.steal_batches = 0;

  obs::Registry reg_one, reg_many;
  config.num_workers = 1;
  config.registry = &reg_one;
  RunScaleout(config, trace);
  config.num_workers = S;
  config.registry = &reg_many;
  RunScaleout(config, trace);

  for (size_t s = 0; s < S; ++s) {
    const std::string name = "scaleout.q" + std::to_string(s) + ".offered";
    EXPECT_EQ(reg_one.GetCounter(name)->Value(),
              reg_many.GetCounter(name)->Value())
        << name;
  }
}

// ---- Placement ------------------------------------------------------------

TEST(Placement, UniformCostBalancesWithinOneShard) {
  const ShardTopology topo = PlaceShards(10, 4);
  ASSERT_EQ(topo.shard_owner.size(), 10u);
  std::vector<size_t> load(4, 0);
  for (size_t s = 0; s < 10; ++s) {
    ASSERT_LT(topo.shard_owner[s], 4u);
    ++load[topo.shard_owner[s]];
  }
  for (size_t w = 0; w < 4; ++w) {
    EXPECT_GE(load[w], 2u);
    EXPECT_LE(load[w], 3u);  // ceil(10/4)
    EXPECT_EQ(load[w], topo.worker_shards[w].size());
    for (const size_t s : topo.worker_shards[w]) {
      EXPECT_EQ(topo.shard_owner[s], w);
    }
  }
  // The placement is round-robin for every shape.
  for (size_t W = 1; W <= 64; ++W) {
    for (size_t S = W; S <= 64; ++S) {
      const ShardTopology t = PlaceShards(S, W);
      ASSERT_EQ(t.worker_shards.size(), W);
      for (size_t s = 0; s < S; ++s) {
        ASSERT_EQ(t.shard_owner[s], s % W) << "S=" << S << " W=" << W;
      }
    }
  }
}

// ---- Shard core (no threads) ---------------------------------------------

// Feeds packets [begin, end) of `trace` to `core` in batches of `batch`, as a
// worker draining the shard's own ring in exact mode would.
void Feed(ShardCore* core, const std::vector<Packet>& trace, size_t begin,
          size_t end, size_t batch) {
  for (size_t i = begin; i < end; i += batch) {
    core->Apply(trace.data() + i, std::min(batch, end - i), false);
  }
}

TEST(ShardCore, KillRestoreLosesAtMostOneIntervalAndOneBatch) {
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(12345));
  ASSERT_EQ(TraceWeight(trace), trace.size());  // unit weights
  const size_t kBatch = 32;
  ScaleoutConfig config;
  config.checkpoint_interval = 1000;
  EpochShard<FiveTuple> shard(KiB(64), config.d, config.seed);
  ShardCore core(config, 0, &shard, nullptr);
  Feed(&core, trace, 0, trace.size(), kBatch);
  ASSERT_EQ(core.applied(), trace.size());
  ASSERT_GE(core.counts().checkpoints_taken, 2u);

  // The worker died with the live sketch; its replacement restores it.
  core.Restore();
  const ShardCore::Counts& c = core.counts();
  EXPECT_EQ(c.checkpoints_rejected, 0u);
  EXPECT_GT(c.packets_lost_estimate, 0u);
  EXPECT_LE(c.packets_lost_estimate, config.checkpoint_interval + kBatch);
  EXPECT_EQ(shard.active()->TotalValue() + c.packets_lost_estimate,
            core.applied());
  EXPECT_EQ(core.epoch_weight(), shard.active()->TotalValue());

  // An epoch rotation publishes the active sketch, so no image taken before
  // it may be restored over the next epoch: a crash within one interval of
  // the rotation loses exactly what the new epoch had applied.
  ASSERT_TRUE(core.TryRotate(1));
  auto pub = shard.TakePublished();
  const uint64_t published = pub.sketch->TotalValue();
  shard.Recycle(std::move(pub.sketch));
  const uint64_t lost_before = c.packets_lost_estimate;
  Feed(&core, trace, 0, 500, kBatch);
  core.Restore();
  EXPECT_EQ(c.packets_lost_estimate - lost_before, 500u);
  EXPECT_EQ(published + shard.active()->TotalValue() + c.packets_lost_estimate,
            core.applied());
}

// The epoch pipeline of Datapath.KillRecoveryComposesWithEpochs, without
// threads: epochs every 7000 packets, checkpoints every 2000, and a crash
// 1000 packets into the fifth epoch. The crash must restore an image of the
// running epoch (never one from before its rotation), every published epoch
// keeps exactly its writers' weight, and published mass plus the active
// sketch plus the reported loss is everything applied.
TEST(ShardCore, KillRecoveryComposesWithEpochs) {
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(60000));
  ASSERT_EQ(TraceWeight(trace), trace.size());  // unit weights
  const size_t kBatch = 32;
  const uint64_t kEpochPackets = 7000;
  ScaleoutConfig config;
  config.checkpoint_interval = 2000;
  EpochShard<FiveTuple> shard(KiB(64), config.d, config.seed);
  ShardCore core(config, 0, &shard, nullptr);
  const ShardCore::Counts& c = core.counts();

  uint64_t published_mass = 0;
  uint64_t epochs = 0;
  uint64_t epoch_start = 0;  // `applied()` at the latest rotation
  bool killed = false;
  for (size_t i = 0; i < trace.size(); i += kBatch) {
    Feed(&core, trace, i, std::min(i + kBatch, trace.size()), kBatch);
    if (!killed && epochs == 4 && core.applied() >= epoch_start + 3000) {
      core.Restore();
      killed = true;
      EXPECT_EQ(c.checkpoints_rejected, 0u);
      EXPECT_GT(c.packets_lost_estimate, 0u);
      EXPECT_LE(c.packets_lost_estimate, config.checkpoint_interval + kBatch);
      // An image of this epoch was restored: the loss stays below what the
      // epoch had applied, which a pre-rotation image or a clear would lose.
      EXPECT_LT(c.packets_lost_estimate, core.applied() - epoch_start);
      EXPECT_EQ(core.epoch_weight(), shard.active()->TotalValue());
      EXPECT_EQ(core.epoch_weight() + c.packets_lost_estimate,
                core.applied() - epoch_start);
    }
    if (core.applied() >= (epochs + 1) * kEpochPackets) {
      ASSERT_TRUE(core.TryRotate(++epochs));
      auto pub = shard.TakePublished();
      ASSERT_NE(pub.sketch, nullptr);
      EXPECT_EQ(pub.sketch->TotalValue(), pub.applied_weight)
          << "epoch " << epochs;
      published_mass += pub.applied_weight;
      shard.Recycle(std::move(pub.sketch));
      epoch_start = core.applied();
    }
  }
  ASSERT_TRUE(killed);
  EXPECT_EQ(epochs, trace.size() / kEpochPackets);
  EXPECT_EQ(c.rotations, epochs);
  EXPECT_EQ(core.epoch_weight(), shard.active()->TotalValue());
  EXPECT_EQ(published_mass + shard.active()->TotalValue() +
                c.packets_lost_estimate,
            core.applied());
  EXPECT_EQ(core.applied(), trace.size());
}

TEST(ShardCore, CorruptNewestImageFallsBackToOlder) {
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(12345));
  const size_t kBatch = 32;
  ScaleoutConfig config;
  config.checkpoint_interval = 1000;
  config.faults.corruptions.push_back({0, 3});  // the third image is torn
  FaultInjector injector(config.faults);
  EpochShard<FiveTuple> shard(KiB(64), config.d, config.seed);
  ShardCore core(config, 0, &shard, &injector);

  // Apply until the third checkpoint, noting when the second was taken,
  // then a few batches more: the third image is the newest at the crash.
  uint64_t second_image_at = 0;
  size_t i = 0;
  while (core.counts().checkpoints_taken < 3) {
    ASSERT_LT(i, trace.size());
    Feed(&core, trace, i, i + kBatch, kBatch);
    i += kBatch;
    if (core.counts().checkpoints_taken == 2 && second_image_at == 0) {
      second_image_at = core.applied();
    }
  }
  Feed(&core, trace, i, i + 5 * kBatch, kBatch);
  ASSERT_EQ(injector.corruptions_fired(), 1u);

  core.Restore();
  const ShardCore::Counts& c = core.counts();
  EXPECT_EQ(c.checkpoints_rejected, 1u);
  EXPECT_EQ(c.packets_lost_estimate, core.applied() - second_image_at);
  EXPECT_EQ(shard.active()->TotalValue() + c.packets_lost_estimate,
            core.applied());
}

// The white-box collision workload of the datapath attack tests: a single
// 16 KiB shard under a fixed seed the attacker knows, with windowed
// detection and deterministic rotation targets.
ScaleoutConfig AttackedShardConfig() {
  ScaleoutConfig config;
  config.num_shards = config.num_workers = 1;
  config.sketch_memory_bytes = KiB(16);
  config.seed = 0xc0c0;
  config.attack_window_packets = 8192;
  config.attack_options.min_window_updates = 1024;
  config.rotate_on_attack = true;
  config.rotation_seed = 0x0123;
  return config;
}

const std::vector<Packet>& CollisionTrace() {
  static const std::vector<Packet> packets = [] {
    const ScaleoutConfig config = AttackedShardConfig();
    trace::TraceConfig honest_config = trace::TraceConfig::CaidaLike(60'000);
    honest_config.num_flows = 300;
    honest_config.num_networks = 32;
    honest_config.seed = 1;
    const auto honest = trace::GenerateTrace(honest_config);
    auto heavy = trace::CountTrace(honest).HeavyHitters(1);
    std::sort(heavy.begin(), heavy.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    std::vector<FiveTuple> victims;
    for (size_t v = 0; v < 8 && v < heavy.size(); ++v) {
      victims.push_back(heavy[v].first);
    }
    const CocoSketch<FiveTuple> ref(config.sketch_memory_bytes, config.d,
                                    config.seed);
    const auto attack = trace::CraftCollisionKeys(
        config.seed, ref.d(), ref.l(), victims, 16, 60'000'000, 13);
    return trace::BuildCollisionTrace(honest, attack, 80'000, 0.4).packets;
  }();
  return packets;
}

TEST(ShardCore, AttackRotationSeedCarriesOntoNextEpoch) {
  const ScaleoutConfig config = AttackedShardConfig();
  const auto& trace = CollisionTrace();
  const size_t kBatch = 32;
  EpochShard<FiveTuple> shard(config.sketch_memory_bytes, config.d,
                              config.seed);
  ShardCore core(config, 0, &shard, nullptr);
  size_t i = 0;
  while (core.counts().seed_rotations == 0 && i < trace.size()) {
    Feed(&core, trace, i, std::min(i + kBatch, trace.size()), kBatch);
    i += kBatch;
  }
  ASSERT_EQ(core.counts().seed_rotations, 1u);
  EXPECT_TRUE(core.counts().rotation_mass_conserved);
  uint64_t mix = config.rotation_seed ^ 1;  // shard 0, first rotation
  const uint64_t rotated = SplitMix64(mix);
  EXPECT_EQ(shard.active()->seed(), rotated);
  const uint64_t first_epoch_weight = core.epoch_weight();
  EXPECT_EQ(shard.active()->TotalValue(), first_epoch_weight);

  // The spare swapped in at the rotation predates the attack: it must be
  // re-seeded, and the published epoch keeps all of its mass.
  ASSERT_TRUE(core.TryRotate(1));
  auto pub = shard.TakePublished();
  ASSERT_NE(pub.sketch, nullptr);
  EXPECT_EQ(pub.sketch->seed(), rotated);
  EXPECT_EQ(pub.applied_weight, first_epoch_weight);
  EXPECT_EQ(pub.sketch->TotalValue(), first_epoch_weight);
  EXPECT_EQ(shard.active()->seed(), rotated);
  EXPECT_EQ(shard.active()->TotalValue(), 0u);
  // The reseeded spare is indistinguishable from a sketch built with the
  // rotated seed: same hash AND same restarted replacement RNG.
  {
    CocoSketch<FiveTuple> carried = *shard.active();
    CocoSketch<FiveTuple> fresh(config.sketch_memory_bytes, config.d, rotated);
    ASSERT_LE(5000u, trace.size());
    carried.UpdateBatch(trace.data(), 5000);
    fresh.UpdateBatch(trace.data(), 5000);
    EXPECT_EQ(carried.SerializeState(), fresh.SerializeState());
  }
  shard.Recycle(std::move(pub.sketch));

  Feed(&core, trace, i, trace.size(), kBatch);
  EXPECT_EQ(shard.active()->seed(), rotated);
  EXPECT_EQ(shard.active()->TotalValue(), core.epoch_weight());
  EXPECT_EQ(first_epoch_weight + core.epoch_weight(), TraceWeight(trace));
}

TEST(ShardCore, AttackMonitorNeedsConfirmWindowsPlusOnePerEpoch) {
  // Each fresh epoch sketch costs the monitor one warm-up window, so an
  // epoch shorter than confirm_windows + 1 attack windows never confirms.
  const ScaleoutConfig config = AttackedShardConfig();
  const uint64_t needed =
      (config.attack_options.confirm_windows + 1) * config.attack_window_packets;
  const auto& trace = CollisionTrace();
  const auto confirmed_with_epochs = [&](uint64_t epoch_packets) {
    EpochShard<FiveTuple> shard(config.sketch_memory_bytes, config.d,
                                config.seed);
    ShardCore core(config, 0, &shard, nullptr);
    uint64_t epoch = 0;
    for (size_t i = 0; i < trace.size(); i += 32) {
      core.Apply(trace.data() + i, std::min<size_t>(32, trace.size() - i),
                 false);
      if (core.applied() >= (epoch + 1) * epoch_packets) {
        EXPECT_TRUE(core.TryRotate(++epoch));
        shard.Recycle(shard.TakePublished().sketch);
      }
    }
    return core.counts().collision_attacks_confirmed;
  };
  ASSERT_LT(20'000u, needed);
  ASSERT_GE(30'000u, needed);
  EXPECT_EQ(confirmed_with_epochs(20'000), 0u);
  EXPECT_GT(confirmed_with_epochs(30'000), 0u);
}

// ---- Shard-merge fidelity (no threads) ------------------------------------

TEST(ShardMerge, SteeredShardsMergeToMonolithicFidelity) {
  // Steer a trace into S single-writer shard sketches, merge sketch-level,
  // and compare the decode against a monolithic sketch over the same trace:
  // exact mass conservation, and heavy-hitter estimates of comparable
  // accuracy (the PR 4 merge-unbiasedness argument applied to RSS shards).
  const size_t S = 4;
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(120000));
  const uint64_t seed = 0xfeed;
  const FlowSteering steering(21, S);

  CocoSketch<FiveTuple> mono(KiB(256), 2, seed);
  std::vector<std::unique_ptr<CocoSketch<FiveTuple>>> shards;
  for (size_t s = 0; s < S; ++s) {
    shards.push_back(
        std::make_unique<CocoSketch<FiveTuple>>(KiB(256) / S, 2, seed));
  }
  for (const Packet& p : trace) {
    mono.Update(p.key, p.weight);
    shards[steering.Shard(p.key)]->Update(p.key, p.weight);
  }

  CocoSketch<FiveTuple> merged(KiB(256) / S, 2, seed);
  std::vector<const CocoSketch<FiveTuple>*> sources;
  uint64_t shard_mass = 0;
  for (const auto& sk : shards) {
    sources.push_back(sk.get());
    shard_mass += sk->TotalValue();
  }
  Rng rng(5);
  const core::MergeStats stats = core::MergeAll(&merged, sources, &rng);
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.saturated, 0u);

  const uint64_t total = TraceWeight(trace);
  EXPECT_EQ(mono.TotalValue(), total);
  EXPECT_EQ(shard_mass, total);
  EXPECT_EQ(merged.TotalValue(), total);

  // Heavy-hitter fidelity: decoded estimates for the top ground-truth flows
  // track the truth about as well as the monolithic sketch does.
  const auto truth = trace::CountTrace(trace);
  std::vector<std::pair<uint64_t, FiveTuple>> top;
  for (const auto& [key, count] : truth.counts()) top.push_back({count, key});
  std::sort(top.begin(), top.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const auto merged_table = merged.Decode();
  double err_sum = 0.0;
  const size_t n = std::min<size_t>(20, top.size());
  for (size_t i = 0; i < n; ++i) {
    const auto it = merged_table.find(top[i].second);
    const double est =
        it == merged_table.end() ? 0.0 : static_cast<double>(it->second);
    err_sum += std::abs(est - static_cast<double>(top[i].first)) /
               static_cast<double>(top[i].first);
  }
  EXPECT_LT(err_sum / static_cast<double>(n), 0.35);
}

// ---- Epoch rotation -------------------------------------------------------

TEST(Epoch, RotateRefuseRecycleCycle) {
  EpochShard<FiveTuple> shard(KiB(64), 2, 7);
  const FiveTuple key(1, 2, 3, 4, 6);
  shard.active()->Update(key, 10);
  ASSERT_TRUE(shard.TryRotate(1, 10));
  EXPECT_TRUE(shard.HasPublished());
  EXPECT_EQ(shard.PublishedEpoch(), 1u);

  // Reader lagging: the published slot is occupied, so rotation refuses —
  // without blocking — and the writer keeps filling the fresh active.
  shard.active()->Update(key, 5);
  EXPECT_FALSE(shard.TryRotate(2, 5));
  shard.active()->Update(key, 5);  // writer is demonstrably not stalled

  auto pub = shard.TakePublished();
  ASSERT_NE(pub.sketch, nullptr);
  EXPECT_EQ(pub.epoch, 1u);
  EXPECT_EQ(pub.applied_weight, 10u);
  // Per-epoch conservation: the published sketch's mass equals the weight
  // the writer says it applied.
  EXPECT_EQ(pub.sketch->TotalValue(), pub.applied_weight);

  // Spare not yet recycled: still refused.
  EXPECT_FALSE(shard.TryRotate(2, 10));
  shard.Recycle(std::move(pub.sketch));
  ASSERT_TRUE(shard.TryRotate(2, 10));
  auto pub2 = shard.TakePublished();
  ASSERT_NE(pub2.sketch, nullptr);
  EXPECT_EQ(pub2.epoch, 2u);
  EXPECT_EQ(pub2.sketch->TotalValue(), 10u);  // recycled sketch was cleared
}

TEST(Scaleout, RotationUnderLoadConservesMassPerEpoch) {
  // Epochs rotate while the workers are mid-stream. Each collected epoch
  // must be internally consistent (sketch mass == writer-side applied
  // weight: no torn reads, no lost or double-applied batches), and the
  // epochs must partition the whole trace's mass exactly.
  const size_t S = std::max<size_t>(TestThreads(), 2);
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(120000));
  obs::Registry registry;
  ScaleoutConfig config;
  config.num_shards = S;
  config.num_workers = S;
  config.nic_rate_mpps = 2.0;  // stretch the run so epochs land mid-stream
  config.rotation_interval_packets = 10000;
  config.registry = &registry;
  const ScaleoutResult result = RunScaleout(config, trace);

  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_TRUE(result.single_writer_ok);
  EXPECT_GE(result.rotations, 1u);
  ASSERT_GE(result.epochs.size(), 2u);  // at least one mid-run + final sweep

  uint64_t epoch_mass = 0;
  for (const EpochRecord& rec : result.epochs) {
    EXPECT_EQ(rec.sketch_mass, rec.applied_weight) << "epoch " << rec.epoch;
    epoch_mass += rec.sketch_mass;
  }
  const uint64_t total = TraceWeight(trace);
  EXPECT_EQ(epoch_mass, total);
  EXPECT_EQ(result.total_sketch_mass, total);
  EXPECT_EQ(metrics::TotalMass(result.merged_table), total);

  const ConservationView view = ReadConservation(&registry, "scaleout");
  EXPECT_TRUE(view.Holds());
  EXPECT_EQ(view.offered, trace.size());
}

TEST(Scaleout, WritersNotStalledByMissingCollector) {
  // No collector at all (rotation_interval_packets == 0): writers run the
  // whole trace against their active sketches and the final sweep publishes
  // everything. Rotation machinery must impose nothing on this path.
  ScaleoutConfig config;
  config.num_shards = 4;
  config.num_workers = std::min<size_t>(TestThreads(), 4);
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(60000));
  const ScaleoutResult result = RunScaleout(config, trace);
  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_EQ(result.rotations, 0u);
  ASSERT_EQ(result.epochs.size(), 1u);  // the final sweep only
  EXPECT_EQ(result.total_sketch_mass, TraceWeight(trace));
  EXPECT_EQ(metrics::TotalMass(result.merged_table), TraceWeight(trace));
}

// ---- Work stealing --------------------------------------------------------

TEST(Scaleout, StealingDrainsAdversariallySkewedFill) {
  // Flash-crowd fill retargeted so every record steers to shard 0: worker 0
  // owns all the work, everyone else is idle unless stealing engages. The
  // battery checks (a) steals actually happen, (b) every record is counted
  // exactly once globally, (c) the single-writer probe never trips — stolen
  // records are re-steered to the thief's own sketch, not applied in place.
  // Sized so the run spans many scheduler periods even on a one-core host:
  // a few-ms run can end before the kernel ever schedules the idle workers,
  // which tests the scheduler, not the stealing policy.
  const size_t S = std::max<size_t>(std::min<size_t>(TestThreads(), 4), 2);
  const uint64_t steer_seed = 77;
  const FlowSteering steering(steer_seed, S);
  const auto honest = trace::GenerateUniformTrace(400000, 2000, 9);
  const auto crowd =
      trace::BuildFlashCrowdTrace(honest, /*crowd_flows=*/50000,
                                  /*packets_per_flow=*/20,
                                  /*start_fraction=*/0.25, 13);
  const auto trace = RetargetToShard(crowd.packets, steering, 0);

  obs::Registry registry;
  ScaleoutConfig config;
  config.num_shards = S;
  config.num_workers = S;
  config.steering_seed = steer_seed;
  // Deep enough to hold the whole crowd: the backlog on shard 0 then stands
  // for the duration of the drain instead of oscillating with the producer's
  // scheduling quantum, so idle thieves reliably observe it even when the
  // host serializes every thread onto one core.
  config.ring_capacity = size_t{1} << 18;
  config.steal_threshold = 0.01;  // floor ~2.6k records on the deep ring
  config.steal_batches = 8;
  config.registry = &registry;
  const ScaleoutResult result = RunScaleout(config, trace);

  EXPECT_GT(result.steal_events, 0u);
  EXPECT_GT(result.stolen_records, 0u);
  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_TRUE(result.single_writer_ok);
  EXPECT_EQ(result.total_sketch_mass, TraceWeight(trace));
  EXPECT_EQ(metrics::TotalMass(result.merged_table), TraceWeight(trace));

  // Per-queue balance is intentionally broken by re-steering (shard 0's
  // offered mass was partly applied elsewhere); only the global sum holds.
  const ConservationView global = ReadConservation(&registry, "scaleout");
  EXPECT_TRUE(global.Holds());
  EXPECT_EQ(global.offered, trace.size());
  const uint64_t q0_offered =
      registry.GetCounter("scaleout.q0.offered")->Value();
  const uint64_t q0_exact = registry.GetCounter("scaleout.q0.exact")->Value();
  EXPECT_EQ(q0_offered, trace.size());
  EXPECT_EQ(q0_offered, q0_exact + result.stolen_records);
}

TEST(Scaleout, DropModeConservationIncludesRxDrops) {
  ScaleoutConfig config;
  config.num_shards = 2;
  config.num_workers = std::min<size_t>(TestThreads(), 2);
  config.ring_capacity = 256;
  config.overflow = OverflowPolicy::kDropNewest;
  config.steal_batches = 0;
  obs::Registry registry;
  config.registry = &registry;
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(80000));
  const ScaleoutResult result = RunScaleout(config, trace);
  EXPECT_EQ(result.packets_processed + result.rx_dropped, trace.size());
  const ConservationView view = ReadConservation(&registry, "scaleout");
  EXPECT_TRUE(view.Holds());
  EXPECT_EQ(view.offered, trace.size());
  EXPECT_EQ(view.rx_dropped, result.rx_dropped);
}

TEST(Scaleout, WatchdogStaysQuietOnHealthyRun) {
  ScaleoutConfig config;
  config.num_shards = 2;
  config.num_workers = std::min<size_t>(TestThreads(), 2);
  config.watchdog_timeout_ms = 200;
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(40000));
  const ScaleoutResult result = RunScaleout(config, trace);
  EXPECT_EQ(result.stalls_detected, 0u);
  EXPECT_EQ(result.packets_processed, trace.size());
}

TEST(Scaleout, KilledWorkerRestoresEveryOwnedShard) {
  // Two workers own two shards each, stealing and epochs on. A kill keyed
  // to shard 1 takes down its owner with both of its shards' live sketches;
  // the respawned worker restores each owned shard from its own newest
  // image, so the loss is bounded per shard and mass plus loss still
  // reconstructs the offered mass, epoch by epoch.
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(120000));
  obs::Registry registry;
  ScaleoutConfig config;
  config.num_shards = 4;
  config.num_workers = 2;
  config.checkpoint_interval = 1000;
  config.watchdog_timeout_ms = 20;
  config.rotation_interval_packets = 8000;
  config.faults.kills.push_back({1, 10000});
  config.registry = &registry;
  const ScaleoutResult result = RunScaleout(config, trace);
  const ShardTopology& topo = result.topology;
  ASSERT_EQ(topo.worker_shards[topo.shard_owner[1]].size(), 2u);

  EXPECT_EQ(result.kills_injected, 1u);
  EXPECT_EQ(result.restores, 1u);
  EXPECT_TRUE(result.single_writer_ok);
  EXPECT_EQ(result.packets_processed, trace.size());
  EXPECT_LE(result.packets_lost_estimate,
            2 * (config.checkpoint_interval + 2 * config.drain_batch));
  EXPECT_EQ(result.total_sketch_mass + result.packets_lost_estimate,
            TraceWeight(trace));
  EXPECT_EQ(metrics::TotalMass(result.merged_table) + result.packets_lost_estimate,
            TraceWeight(trace));
  for (const EpochRecord& rec : result.epochs) {
    EXPECT_EQ(rec.sketch_mass, rec.applied_weight) << "epoch " << rec.epoch;
  }
  const ConservationView view = ReadConservation(&registry, "scaleout");
  EXPECT_TRUE(view.Holds());
  EXPECT_EQ(view.offered, trace.size());
}

// ---- Sharding: FlowSteering + per-shard sketches ---------------------------

TEST(Sharded, MergedMassEqualsStreamMass) {
  // Weighted packets: every unit of weight lands in exactly one shard's
  // sketch, stolen or not, and survives the sketch-level merge.
  auto trace = trace::GenerateTrace(trace::TraceConfig::CaidaLike(60000));
  Rng rng(3);
  for (Packet& p : trace) {
    p.weight = 1 + static_cast<uint32_t>(rng.NextBelow(8));
  }
  ScaleoutConfig config;
  config.num_shards = 4;
  config.num_workers = std::min<size_t>(TestThreads(), 4);
  const ScaleoutResult result = RunScaleout(config, trace);
  EXPECT_EQ(result.total_sketch_mass, TraceWeight(trace));
  EXPECT_EQ(metrics::TotalMass(result.merged_table), TraceWeight(trace));
}

TEST(Sharded, FlowAffinityRoutingIsStable) {
  const FlowSteering steering(0x51a2d, 3), again(0x51a2d, 3);
  const FiveTuple flow(1, 2, 3, 4, 5);
  const size_t s = steering.Shard(flow);
  EXPECT_LT(s, 3u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(steering.Shard(flow), s);
    EXPECT_EQ(again.Shard(flow), s);
  }
}

TEST(Sharded, FlowAffinityKeepsFlowWhole) {
  // Without stealing each flow's entire mass sits in one shard, so the
  // merged estimate of a heavy flow is its single-shard estimate.
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(60000));
  ScaleoutConfig config;
  config.num_shards = 4;
  config.num_workers = std::min<size_t>(TestThreads(), 4);
  config.steal_batches = 0;
  const ScaleoutResult result = RunScaleout(config, trace);
  const auto truth = trace::CountTrace(trace);
  const uint64_t threshold = truth.Total() / 1000;
  size_t heavy = 0, found = 0;
  for (const auto& [key, count] : truth.HeavyHitters(threshold)) {
    ++heavy;
    const auto it = result.merged_table.find(key);
    found += (it != result.merged_table.end() && it->second >= threshold);
  }
  ASSERT_GT(heavy, 0u);
  EXPECT_GT(static_cast<double>(found) / heavy, 0.9);
}

TEST(Sharded, ConcurrentWritersOneShardEach) {
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(80000));
  ScaleoutConfig config;
  config.num_shards = 4;
  config.num_workers = 4;
  config.steal_batches = 0;
  const ScaleoutResult result = RunScaleout(config, trace);
  EXPECT_TRUE(result.single_writer_ok);
  EXPECT_EQ(result.total_sketch_mass, trace.size());  // unit weights
  EXPECT_FALSE(result.merged_table.empty());
}

TEST(Sharded, ClearResetsAllShards) {
  // Recycling clears a taken epoch sketch before it returns as a spare, so
  // every shard's next epoch starts empty.
  std::vector<std::unique_ptr<EpochShard<FiveTuple>>> shards;
  for (uint64_t s = 0; s < 2; ++s) {
    shards.push_back(std::make_unique<EpochShard<FiveTuple>>(KiB(64), 2, 9));
    shards.back()->active()->Update(FiveTuple(1, 2, 3, 4, 5 + s), 10);
    ASSERT_TRUE(shards.back()->TryRotate(1, 10));
  }
  for (auto& shard : shards) {
    auto pub = shard->TakePublished();
    EXPECT_EQ(pub.sketch->TotalValue(), 10u);
    shard->Recycle(std::move(pub.sketch));
    ASSERT_TRUE(shard->TryRotate(2, 0));
    const auto next = shard->TakePublished();
    EXPECT_EQ(next.sketch->TotalValue(), 0u);
    EXPECT_TRUE(next.sketch->Decode().empty());
  }
}

TEST(Sharded, MemorySplitsEvenly) {
  obs::Registry registry;
  ScaleoutConfig config;
  config.num_shards = 4;
  config.num_workers = 1;
  config.sketch_memory_bytes = KiB(400);
  config.registry = &registry;
  RunScaleout(config,
              trace::GenerateTrace(trace::TraceConfig::CaidaLike(1000)));
  double bytes = 0;
  for (size_t s = 0; s < 4; ++s) {
    bytes += registry
                 .GetGauge("scaleout.q" + std::to_string(s) +
                           ".sketch.buckets_total")
                 ->Value() *
             static_cast<double>(CocoSketch<FiveTuple>::BucketBytes());
  }
  EXPECT_LE(bytes, static_cast<double>(KiB(400)));
  EXPECT_GT(bytes, static_cast<double>(KiB(380)));
}

// ---- Conservation across runtime-variable shard counts --------------------

TEST(Conservation, DiscoveryCoversResizedQueuePool) {
  // Two runs against ONE registry with different widths: a 4-shard run, then
  // a 2-shard run. q2/q3 keep the first run's mass; the discovery scan still
  // counts every shard that ever counted, so the identity holds globally.
  obs::Registry registry;
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000));
  ScaleoutConfig config;
  config.registry = &registry;
  config.metrics_prefix = "ovs";
  config.num_shards = config.num_workers = 4;
  RunScaleout(config, trace);
  config.num_shards = config.num_workers = 2;
  RunScaleout(config, trace);

  const ConservationView discovered = ReadConservation(&registry, "ovs");
  EXPECT_TRUE(discovered.Holds());
  EXPECT_EQ(discovered.offered, 2 * trace.size());
  EXPECT_GT(registry.GetCounter("ovs.q3.offered")->Value(), 0u);

  // Dashboards read the CURRENT width from the gauge instead of baking it
  // into call sites.
  EXPECT_EQ(registry.GetGauge("ovs.run.num_shards")->Value(), 2.0);
}

TEST(Conservation, DiscoveryMatchesExplicitWhenWidthIsStable) {
  obs::Registry registry;
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000));
  ScaleoutConfig config;
  config.registry = &registry;
  config.num_shards = config.num_workers = 3;
  RunScaleout(config, trace);
  ConservationView explicit_sum;
  for (size_t s = 0; s < 3; ++s) {
    const std::string base = "scaleout.q" + std::to_string(s) + ".";
    explicit_sum.offered += registry.GetCounter(base + "offered")->Value();
    explicit_sum.exact += registry.GetCounter(base + "exact")->Value();
    explicit_sum.degraded += registry.GetCounter(base + "degraded")->Value();
    explicit_sum.rx_dropped +=
        registry.GetCounter(base + "rx_dropped")->Value();
  }
  const ConservationView b = ReadConservation(&registry, "scaleout");
  EXPECT_EQ(explicit_sum.offered, b.offered);
  EXPECT_EQ(explicit_sum.exact, b.exact);
  EXPECT_EQ(explicit_sum.degraded, b.degraded);
  EXPECT_EQ(explicit_sum.rx_dropped, b.rx_dropped);
  EXPECT_TRUE(b.Holds());
}

}  // namespace
}  // namespace coco::ovs
