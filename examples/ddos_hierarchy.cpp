// DDoS / hierarchical-heavy-hitter example (the §2.2 security use case).
//
// A volumetric attack is injected as many spoofed sources inside one /16:
// no single source IP is heavy, so flat per-IP heavy hitters miss it — but
// the 16-bit prefix level of an arbitrary-partial-key query exposes it
// immediately. One CocoSketch over the 32-bit source key answers all 33
// prefix levels.
//
// Build & run:  ./build/examples/ddos_hierarchy
#include <cstdio>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "keys/key_spec.h"
#include "query/flow_table.h"
#include "trace/generators.h"

using namespace coco;

int main() {
  // Background: a normal CAIDA-like workload.
  const auto background =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(800'000));

  // Attack: 200k packets from random hosts inside 203.0.0.0/16 (each host
  // sends only a couple of packets — invisible at the /32 level).
  Rng rng(0xa77ac);
  core::CocoSketch<IPv4Key> sketch(KiB(500), 2);
  uint64_t total = 0;
  for (const Packet& p : background) {
    sketch.Update(IPv4Key(p.key.src_ip()), p.weight);
    total += p.weight;
  }
  const uint32_t attack_net = 0xcb000000;  // 203.0.0.0/16
  for (int i = 0; i < 200'000; ++i) {
    const uint32_t spoofed =
        attack_net | static_cast<uint32_t>(rng.NextBelow(65536));
    sketch.Update(IPv4Key(spoofed), 1);
    ++total;
  }

  const auto table = sketch.Decode();
  std::printf("one sketch, %zu recorded sources, %llu packets total\n\n",
              table.size(), static_cast<unsigned long long>(total));

  // Flat heavy hitters at /32: the attack is invisible.
  const uint64_t threshold = total / 100;  // 1% of traffic
  std::printf("heavy sources at /32 (>= 1%% of traffic):\n");
  size_t flat_hits = 0;
  for (const auto& [key, size] : query::TopRows(table, 5)) {
    if (size < threshold) continue;
    std::printf("  %-16s %10llu\n", key.ToString().c_str(),
                static_cast<unsigned long long>(size));
    ++flat_hits;
  }
  if (flat_hits == 0) std::printf("  (none - attack hides below threshold)\n");

  // Walk the prefix hierarchy: the /16 aggregate lights up.
  std::printf("\nheavy prefixes per level (>= 1%% of traffic):\n");
  for (uint8_t bits : {24, 20, 16, 12, 8}) {
    const keys::PrefixSpec spec(bits);
    const auto level = query::Aggregate(table, spec);
    const auto heavy = query::FilterThreshold(level, threshold);
    std::printf("  /%-3u: %3zu heavy prefixes", bits, heavy.size());
    const auto top = query::TopRows(heavy, 1);
    if (!top.empty()) {
      std::printf("   biggest: %s/%u with %llu pkts",
                  spec.Unpack(top[0].first).ToString().c_str(), bits,
                  static_cast<unsigned long long>(top[0].second));
    }
    std::printf("\n");
  }

  std::printf(
      "\n=> the spoofed /16 (203.0.x.x) dominates the prefix levels even "
      "though no\n   single source is heavy — the arbitrary partial key "
      "query at work.\n");
  return 0;
}
