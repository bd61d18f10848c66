// Figure 9: heavy hitter detection under different memory constraints
// (200..600 KB), six partial keys — F1 Score (a) and ARE (b).
#include "harness.h"

using namespace coco;
using namespace coco::bench;

int main() {
  const auto specs = keys::TupleKeySpec::DefaultSix();
  const double fraction = 1e-4;
  const std::vector<size_t> memories = {KiB(200), KiB(300), KiB(400),
                                        KiB(500), KiB(600)};

  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(BenchPackets()));
  const auto truth = trace::CountTrace(trace);
  const auto exact = query::PartialKeyTruth(truth, specs);
  const uint64_t threshold =
      query::HeavyHitterThreshold(truth.Total(), fraction);
  std::printf(
      "Figure 9: heavy hitters vs memory (CAIDA-like, %zu pkts, 6 keys, "
      "threshold=1e-4)\n",
      trace.size());

  std::vector<std::string> names;
  std::vector<std::vector<double>> f1, are;

  for (size_t m = 0; m < memories.size(); ++m) {
    auto roster = MakeHeavyHitterRoster(memories[m], specs);
    for (size_t a = 0; a < roster.size(); ++a) {
      const auto mean = metrics::MeanAccuracy(
          RunHeavyHitters(roster[a], trace, exact, threshold));
      if (m == 0) {
        names.push_back(roster[a].name);
        f1.emplace_back();
        are.emplace_back();
      }
      f1[a].push_back(mean.f1);
      are[a].push_back(mean.are);
    }
  }

  PrintHeader("Fig 9(a): F1 Score vs memory (KB)");
  PrintColumns("algo", {"200", "300", "400", "500", "600"});
  for (size_t a = 0; a < names.size(); ++a) PrintRow(names[a], f1[a]);

  PrintHeader("Fig 9(b): ARE vs memory (KB)");
  PrintColumns("algo", {"200", "300", "400", "500", "600"});
  for (size_t a = 0; a < names.size(); ++a) PrintRow(names[a], are[a]);

  std::printf(
      "\nExpected shape (paper): Ours >0.9 F1 already at 300KB while "
      "baselines sit\nbelow ~0.65; Ours ARE ~10x smaller.\n");
  return 0;
}
