// Median of a few estimates, shared by the hardware-friendly estimators
// (core::HwCocoSketch, p4::P4CocoSketch): the middle value for odd n, the
// mean of the middle two (rounded down) for even n, 0 for n = 0. Sorts
// `v[0, n)` in place by insertion: n is at most the number of arrays (8),
// where std::sort's unrolled prologue only adds code.
#pragma once

#include <cstddef>
#include <cstdint>

namespace coco {

inline uint64_t SmallMedian(uint64_t* v, size_t n) {
  if (n == 0) return 0;
  for (size_t i = 1; i < n; ++i) {
    const uint64_t x = v[i];
    size_t j = i;
    for (; j > 0 && v[j - 1] > x; --j) v[j] = v[j - 1];
    v[j] = x;
  }
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace coco
