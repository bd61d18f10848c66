// Figure 13: heavy hitter (a) and heavy change (b) F1 Scores on the
// MAWI-like trace, vs number of partial keys.
#include "harness.h"

using namespace coco;
using namespace coco::bench;

int main() {
  const auto all_specs = keys::TupleKeySpec::DefaultSix();
  const size_t memory = KiB(500);
  const double fraction = 1e-4;

  // --- (a) heavy hitters ---
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::MawiLike(BenchPackets()));
  const auto truth = trace::CountTrace(trace);
  const auto exact = query::PartialKeyTruth(truth, all_specs);
  const uint64_t hh_threshold =
      query::HeavyHitterThreshold(truth.Total(), fraction);
  std::printf("Figure 13: MAWI-like trace, %zu pkts, %s total memory\n",
              trace.size(), FormatBytes(memory).c_str());

  std::vector<std::string> names;
  std::vector<std::vector<double>> hh_f1;
  for (size_t nkeys = 1; nkeys <= all_specs.size(); ++nkeys) {
    const std::vector<keys::TupleKeySpec> specs(all_specs.begin(),
                                                all_specs.begin() + nkeys);
    auto roster = MakeHeavyHitterRoster(memory, specs);
    for (size_t a = 0; a < roster.size(); ++a) {
      const auto mean = metrics::MeanAccuracy(
          RunHeavyHitters(roster[a], trace, SpecTruth(exact).first(nkeys),
                          hh_threshold));
      if (nkeys == 1) {
        names.push_back(roster[a].name);
        hh_f1.emplace_back();
      }
      hh_f1[a].push_back(mean.f1);
    }
  }

  PrintHeader("Fig 13(a): heavy hitter F1 vs number of keys (MAWI)");
  PrintColumns("algo", {"1", "2", "3", "4", "5", "6"});
  for (size_t a = 0; a < names.size(); ++a) PrintRow(names[a], hh_f1[a]);

  // --- (b) heavy changes ---
  const auto pair = trace::GenerateChurnPair(
      trace::TraceConfig::MawiLike(BenchPackets()), 0.4);
  const auto truth_before = trace::CountTrace(pair.before);
  const auto truth_after = trace::CountTrace(pair.after);
  const auto change_truth =
      query::ChangeTruth(truth_before, truth_after, all_specs);
  const uint64_t hc_threshold = query::HeavyChangeThreshold(
      truth_before.Total(), truth_after.Total(), fraction);

  std::vector<std::string> hc_names;
  std::vector<std::vector<double>> hc_f1;
  for (size_t nkeys = 1; nkeys <= all_specs.size(); ++nkeys) {
    const std::vector<keys::TupleKeySpec> specs(all_specs.begin(),
                                                all_specs.begin() + nkeys);
    auto before = MakeHeavyChangeRoster(memory, specs, 1);
    auto after = MakeHeavyChangeRoster(memory, specs, 2);
    for (size_t a = 0; a < before.size(); ++a) {
      const auto mean = metrics::MeanAccuracy(
          RunHeavyChanges(before[a], after[a], pair,
                          SpecTruth(change_truth).first(nkeys), hc_threshold));
      if (nkeys == 1) {
        hc_names.push_back(before[a].name);
        hc_f1.emplace_back();
      }
      hc_f1[a].push_back(mean.f1);
    }
  }

  PrintHeader("Fig 13(b): heavy change F1 vs number of keys (MAWI)");
  PrintColumns("algo", {"1", "2", "3", "4", "5", "6"});
  for (size_t a = 0; a < hc_names.size(); ++a) PrintRow(hc_names[a], hc_f1[a]);

  std::printf(
      "\nExpected shape (paper): Ours > 0.9 F1 beyond two keys and best "
      "overall on\nboth tasks.\n");
  return 0;
}
