// Online detection of adversarial workloads from sketch-side signals
// (docs/ROBUSTNESS.md "Threat model & adversarial hardening").
//
// The monitor never touches packets or keys: it watches windowed deltas of
// the counters every sketch already maintains for Stats() — updates, pass-1
// misses, key replacements, bucket occupancy — and classifies each window
// against the balls-in-bins profile honest traffic produces.
//
// The signature of a white-box collision attack (crafted keys that land in
// the same d buckets as each other / as a victim heavy hitter) is specific:
// pass-1 misses are high because the crafted keys keep evicting each other,
// key-replacement churn is high for the same reason, and yet OCCUPANCY DOES
// NOT GROW — the misses all land in a handful of already-occupied buckets.
// Honest traffic cannot produce that combination below saturation: a pass-1
// miss from a fresh flow picks the minimum of d uniform buckets, which is
// empty with probability about 1 - rho^d at load factor rho ("power of d
// choices"), so misses convert into occupancy at a predictable rate.
//
// Churn floods (flash crowds, uniform no-heavy-tail DDoS traffic) are a
// separate class: they also drive misses, but they hash uniformly —
// occupancy grows normally until saturation, after which the miss rate
// stays pinned high while replacement churn (probability 1/V per miss)
// decays. The flood signature is therefore EITHER elevated replacement
// churn OR a high miss rate at saturation. Honest traffic severe enough to
// saturate the structure AND keep missing pass 1 is indistinguishable from
// a flood by these signals — deliberately so: both mean the sketch is
// drowning and both warrant the same response. Seed rotation does NOT help
// against floods (they are seed-independent), which is why the escalation
// ladder responds with degradation (PR 2 sampling ladder) instead.
//
// Cost: one Stats() scan per window (control-plane), a few divisions here.
// Nothing on the per-packet path.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/sketch_stats.h"

namespace coco::core {

// Windowed detector inputs/derived signals, exposed for obs gauges and
// tests. All rates are per update-rule application within the window.
struct AttackSignals {
  uint64_t window_updates = 0;   // update-rule applications this window
  double miss_rate = 0.0;        // pass-1 misses / updates
  double churn_rate = 0.0;       // key replacements / updates
  // Occupancy stall: 1 - (observed new occupancy / expected new occupancy),
  // where the expectation is the balls-in-bins rate (1 - rho^d) per miss,
  // clamped to [0, 1]. Near 0 for honest traffic below saturation; near 1
  // when misses concentrate into already-occupied buckets (collision
  // crafting). Meaningless at saturation, so the classifier gates it on
  // load_factor < saturation_guard.
  double occupancy_stall = 0.0;
  double load_factor = 0.0;
};

class AttackMonitor {
 public:
  struct Options {
    // Windows with fewer update-rule applications than this are ignored
    // (signals too noisy to classify).
    uint64_t min_window_updates = 4096;
    // Collision class: miss rate above this AND occupancy stalled.
    double miss_rate_threshold = 0.35;
    double stall_threshold = 0.80;
    // Churn-flood class: replacement churn above this rate, OR miss rate
    // above miss_rate_threshold while saturated (replacements go as 1/V per
    // miss, so a sustained flood shows up in misses long after churn decays).
    double churn_rate_threshold = 0.35;
    // Above this load factor the stall signal is off (a full structure
    // cannot grow occupancy no matter how honest the traffic is).
    double saturation_guard = 0.90;
    // Consecutive suspicious windows before an attack is confirmed —
    // hysteresis against one-window bursts.
    int confirm_windows = 2;
  };

  enum class Verdict {
    kHonest,
    kSuspicious,           // thresholds crossed, not yet confirmed
    kCollisionConfirmed,   // seed-targeted collision crafting
    kChurnFloodConfirmed,  // flash crowd / uniform flood (seed-independent)
  };

  AttackMonitor() = default;
  explicit AttackMonitor(const Options& options) : options_(options) {}

  // Feed one window's absolute counters (a fresh Stats() snapshot); the
  // monitor differences against the previous call. The first call only
  // establishes the baseline. Snapshots must come from the same sketch in
  // stream order.
  Verdict ObserveWindow(const SketchStats& stats) {
    if (!have_baseline_) {
      baseline_ = Baseline(stats);
      have_baseline_ = true;
      return Verdict::kHonest;
    }
    const uint64_t updates = stats.updates - baseline_.updates;
    const uint64_t misses = stats.pass1_misses - baseline_.pass1_misses;
    const uint64_t churn = stats.key_replacements - baseline_.key_replacements;
    const uint64_t occupied_before = baseline_.buckets_occupied;
    baseline_ = Baseline(stats);

    signals_ = AttackSignals{};
    signals_.window_updates = updates;
    signals_.load_factor = stats.load_factor;
    if (updates < options_.min_window_updates) {
      // Too little traffic to judge; decay toward honest rather than hold a
      // stale suspicion forever.
      if (suspicious_streak_ > 0) --suspicious_streak_;
      return verdict_ = Verdict::kHonest;
    }
    const double u = static_cast<double>(updates);
    signals_.miss_rate = static_cast<double>(misses) / u;
    signals_.churn_rate = static_cast<double>(churn) / u;

    // Expected occupancy growth for `misses` honest fresh-flow misses at the
    // window's starting load factor rho: each claims the min of d buckets,
    // empty w.p. ~ 1 - rho^d, capped by the free buckets available.
    const double rho =
        stats.buckets_total == 0
            ? 1.0
            : static_cast<double>(occupied_before) /
                  static_cast<double>(stats.buckets_total);
    const double empty_min_prob =
        1.0 - std::pow(rho, static_cast<double>(stats.arrays));
    const double free_buckets =
        static_cast<double>(stats.buckets_total - occupied_before);
    const double expected_gain =
        std::min(static_cast<double>(misses) * empty_min_prob, free_buckets);
    const double observed_gain = static_cast<double>(
        stats.buckets_occupied > occupied_before
            ? stats.buckets_occupied - occupied_before
            : 0);
    if (expected_gain >= 1.0) {
      const double stall = 1.0 - observed_gain / expected_gain;
      signals_.occupancy_stall = stall < 0.0 ? 0.0 : stall;
    }

    const bool collision_window =
        signals_.miss_rate > options_.miss_rate_threshold &&
        signals_.occupancy_stall > options_.stall_threshold &&
        rho < options_.saturation_guard;
    const bool churn_window =
        signals_.churn_rate > options_.churn_rate_threshold ||
        (signals_.miss_rate > options_.miss_rate_threshold &&
         rho >= options_.saturation_guard);

    if (!collision_window && !churn_window) {
      suspicious_streak_ = 0;
      return verdict_ = Verdict::kHonest;
    }
    ++suspicious_streak_;
    if (suspicious_streak_ < options_.confirm_windows) {
      return verdict_ = Verdict::kSuspicious;
    }
    // Collision takes precedence: it is the stronger (seed-targeted) claim
    // and drives a different response (rotate vs degrade).
    return verdict_ = collision_window ? Verdict::kCollisionConfirmed
                                       : Verdict::kChurnFloodConfirmed;
  }

  // Re-baseline after a response (seed rotation swaps the sketch state out
  // from under the counters) so the next window is judged fresh.
  void Reset(const SketchStats& stats) {
    baseline_ = Baseline(stats);
    have_baseline_ = true;
    suspicious_streak_ = 0;
    signals_ = AttackSignals{};
    verdict_ = Verdict::kHonest;
  }

  // Re-baseline after the sketch was swapped for a fresh one with its own
  // counters (an epoch rotation) while keeping any suspicion streak: the
  // traffic did not change, only the structure counting it.
  void Rebase(const SketchStats& stats) {
    baseline_ = Baseline(stats);
    have_baseline_ = true;
  }

  const AttackSignals& signals() const { return signals_; }
  Verdict verdict() const { return verdict_; }
  int suspicious_streak() const { return suspicious_streak_; }
  const Options& options() const { return options_; }

  static bool Confirmed(Verdict v) {
    return v == Verdict::kCollisionConfirmed ||
           v == Verdict::kChurnFloodConfirmed;
  }

 private:
  struct BaselineCounters {
    uint64_t updates = 0;
    uint64_t pass1_misses = 0;
    uint64_t key_replacements = 0;
    size_t buckets_occupied = 0;
  };

  static BaselineCounters Baseline(const SketchStats& stats) {
    return BaselineCounters{stats.updates, stats.pass1_misses,
                            stats.key_replacements, stats.buckets_occupied};
  }

  Options options_;
  BaselineCounters baseline_;
  bool have_baseline_ = false;
  int suspicious_streak_ = 0;
  AttackSignals signals_;
  Verdict verdict_ = Verdict::kHonest;
};

}  // namespace coco::core
