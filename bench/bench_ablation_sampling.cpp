// Ablation: NitroSketch-style sampling on top of CocoSketch (§8 future
// work, implemented in core/sampled_cocosketch.h) — throughput vs F1 as the
// sampling probability drops.
#include "core/sampled_cocosketch.h"
#include "harness.h"

using namespace coco;
using namespace coco::bench;

int main() {
  const auto specs = keys::TupleKeySpec::DefaultSix();
  const size_t memory = KiB(500);
  const double fraction = 1e-4;

  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(BenchPackets()));
  const auto truth = trace::CountTrace(trace);
  const auto exact = query::PartialKeyTruth(truth, specs);
  const uint64_t threshold =
      query::HeavyHitterThreshold(truth.Total(), fraction);
  std::printf("Ablation: sampling front-end on CocoSketch (%zu pkts, %s)\n",
              trace.size(), FormatBytes(memory).c_str());
  std::printf("%-8s %10s %10s %10s\n", "p", "Mpps", "F1", "ARE");

  for (double p : {1.0, 0.5, 0.25, 0.1, 0.05}) {
    auto sol = MakeFullKey<core::SampledCocoSketch<FiveTuple>>(
        "Sampled", memory, specs, p, 2);
    const double mpps =
        metrics::MeasureThroughput(trace, sol.update, sol.reset, 3);
    const auto mean =
        metrics::MeanAccuracy(RunHeavyHitters(sol, trace, exact, threshold));
    std::printf("%-8.2f %10.2f %10.4f %10.4f\n", p, mpps, mean.f1, mean.are);
  }

  std::printf(
      "\nExpected shape: throughput rises as p falls (fewer sketch touches) "
      "while F1\ndecays gently until sampling noise approaches the HH "
      "threshold.\n");
  return 0;
}
