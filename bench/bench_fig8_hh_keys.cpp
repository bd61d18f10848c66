// Figure 8: heavy hitter detection under different numbers of partial keys
// (1..6), 500 KB total memory, CAIDA-like trace, threshold 1e-4 — reporting
// Recall Rate (a), Precision Rate (b), and ARE (c) averaged over the keys.
#include "harness.h"

using namespace coco;
using namespace coco::bench;

int main() {
  const auto all_specs = keys::TupleKeySpec::DefaultSix();
  const size_t memory = KiB(500);
  const double fraction = 1e-4;

  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(BenchPackets()));
  const auto truth = trace::CountTrace(trace);
  const auto exact = query::PartialKeyTruth(truth, all_specs);
  const uint64_t threshold =
      query::HeavyHitterThreshold(truth.Total(), fraction);
  std::printf(
      "Figure 8: heavy hitters vs number of keys (CAIDA-like, %zu pkts, "
      "%s, threshold=1e-4)\n",
      trace.size(), FormatBytes(memory).c_str());

  // results[metric][algo][num_keys-1]
  std::vector<std::string> names;
  std::vector<std::vector<double>> recall, precision, are;

  for (size_t nkeys = 1; nkeys <= all_specs.size(); ++nkeys) {
    const std::vector<keys::TupleKeySpec> specs(all_specs.begin(),
                                                all_specs.begin() + nkeys);
    auto roster = MakeHeavyHitterRoster(memory, specs);
    for (size_t a = 0; a < roster.size(); ++a) {
      const auto mean = metrics::MeanAccuracy(RunHeavyHitters(
          roster[a], trace, SpecTruth(exact).first(nkeys), threshold));
      if (nkeys == 1) {
        names.push_back(roster[a].name);
        recall.emplace_back();
        precision.emplace_back();
        are.emplace_back();
      }
      recall[a].push_back(mean.recall);
      precision[a].push_back(mean.precision);
      are[a].push_back(mean.are);
    }
  }

  PrintHeader("Fig 8(a): Recall Rate vs number of keys (1..6)");
  PrintColumns("algo", {"1", "2", "3", "4", "5", "6"});
  for (size_t a = 0; a < names.size(); ++a) PrintRow(names[a], recall[a]);

  PrintHeader("Fig 8(b): Precision Rate vs number of keys (1..6)");
  PrintColumns("algo", {"1", "2", "3", "4", "5", "6"});
  for (size_t a = 0; a < names.size(); ++a) PrintRow(names[a], precision[a]);

  PrintHeader("Fig 8(c): ARE vs number of keys (1..6)");
  PrintColumns("algo", {"1", "2", "3", "4", "5", "6"});
  for (size_t a = 0; a < names.size(); ++a) PrintRow(names[a], are[a]);

  std::printf(
      "\nExpected shape (paper): Ours stays >0.95 RR/PR with flat, lowest "
      "ARE;\nper-key baselines degrade as keys grow; USS precision suffers "
      "from 4x\nauxiliary memory overhead.\n");
  return 0;
}
