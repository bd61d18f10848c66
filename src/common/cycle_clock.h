// Per-packet cycle accounting, used for the paper's "95th percentile CPU
// cycles" metric (Fig. 14b). On x86 we read the TSC directly; elsewhere we
// fall back to steady_clock nanoseconds (still a monotone per-packet cost
// proxy, just in different units).
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace coco {

inline uint64_t ReadCycleCounter() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// ReadCycleCounter ordered after every earlier load: on x86 an lfence first,
// so a cache miss still in flight (say, a ring slot another core just wrote)
// completes before the counter is read instead of being charged to the
// region timed next. Bracket a region with two fenced reads to time exactly
// its own work.
inline uint64_t ReadCycleCounterFenced() {
#if defined(__x86_64__) || defined(_M_X64)
  _mm_lfence();
#endif
  return ReadCycleCounter();
}

// Wall-clock stopwatch for throughput (Mpps) measurements.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace coco
