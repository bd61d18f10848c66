// Hierarchical heavy hitters with descendant discounting.
//
// Fig. 11/12 score plain per-level heavy prefixes (every level queried
// independently, as the paper's arbitrary-partial-key formulation allows).
// The classical HHH definition [Zhang et al., IMC 2004] additionally
// DISCOUNTS the counts of already-reported descendant HHHs, so an ancestor
// is only reported for traffic not already explained below it. This module
// implements that conditioned semantics on top of decoded flow tables — a
// pure control-plane computation, which is exactly where CocoSketch puts it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "keys/key_spec.h"
#include "packet/keys.h"
#include "query/flow_table.h"

namespace coco::query {

struct HhhEntry {
  DynKey prefix;
  uint8_t bits = 0;
  uint64_t discounted_count = 0;  // own traffic not covered by HHH children
  uint64_t raw_count = 0;         // plain aggregate at this prefix
};

// Computes the discounted HHH set over an IPv4 full-key table for prefix
// levels `level_bits` (descending, e.g. {32,24,16,8,0}). A prefix enters the
// set when its aggregate MINUS the raw counts of already-selected HHHs
// beneath it is >= threshold.
inline std::vector<HhhEntry> DiscountedHhh(
    const FlowTable<IPv4Key>& full_table,
    const std::vector<uint8_t>& level_bits, uint64_t threshold) {
  std::vector<uint8_t> levels = level_bits;
  std::sort(levels.rbegin(), levels.rend());  // longest prefixes first

  std::vector<HhhEntry> result;
  // Selected HHHs as (address, bits, raw aggregate) for containment checks;
  // the raw aggregate at selection time IS the descendant mass to discount.
  struct Selected {
    uint32_t addr;
    uint8_t bits;
    uint64_t raw;
    bool covered = false;  // true once an ancestor HHH has discounted it
  };
  std::vector<Selected> selected;

  for (uint8_t bits : levels) {
    const keys::PrefixSpec spec(bits);
    const FlowTable<DynKey> level = Aggregate(full_table, spec);
    const uint32_t mask = bits == 0 ? 0u : ~uint32_t{0} << (32 - bits);

    std::vector<HhhEntry> found_here;
    std::vector<Selected> selected_here;
    for (const auto& [key, count] : level) {
      const uint32_t addr = spec.Unpack(key).addr();  // the masked prefix
      // Discount the NEAREST already-selected HHHs contained in this prefix
      // (each descendant's mass is discounted once: via its covered flag).
      uint64_t discounted = count;
      for (Selected& s : selected) {
        if (!s.covered && s.bits > bits && (s.addr & mask) == addr) {
          discounted = discounted > s.raw ? discounted - s.raw : 0;
        }
      }
      if (discounted >= threshold) {
        HhhEntry entry;
        entry.prefix = key;
        entry.bits = bits;
        entry.discounted_count = discounted;
        entry.raw_count = count;
        found_here.push_back(entry);
        selected_here.push_back({addr, bits, count, false});
        // Descendants inside this new HHH are now explained through it.
        for (Selected& s : selected) {
          if (s.bits > bits && (s.addr & mask) == addr) s.covered = true;
        }
      }
    }
    result.insert(result.end(), found_here.begin(), found_here.end());
    selected.insert(selected.end(), selected_here.begin(),
                    selected_here.end());
  }
  return result;
}

}  // namespace coco::query
