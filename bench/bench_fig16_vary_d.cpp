// Figure 16: the d ablation in the basic CocoSketch — F1 Score (a) and
// throughput (b) for d = 1..6 plus the USS limit (d = number of buckets).
// 500 KB, heavy hitter task over the six partial keys.
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
  std::printf("Figure 16: varying d in basic CocoSketch (%zu pkts, %s)\n",
              trace.size(), FormatBytes(memory).c_str());

  std::vector<std::string> labels;
  std::vector<double> f1s, mppss;

  for (size_t d = 1; d <= 6; ++d) {
    auto sol = MakeCoco(memory, specs, d);
    const auto mean = metrics::MeanAccuracy(
        RunHeavyHitters(sol, trace, exact, threshold));
    const double mpps = metrics::MeasureThroughput(
        trace, [&sol](const Packet& p) { sol.update(p); },
        [&sol] { sol.reset(); }, 5);
    labels.push_back("d=" + std::to_string(d));
    f1s.push_back(mean.f1);
    mppss.push_back(mpps);
  }

  // USS = CocoSketch with d == number of buckets (its accuracy limit), run
  // through the optimized USS implementation.
  {
    auto sol = MakeFullKey<sketch::UnbiasedSpaceSaving<FiveTuple>>(
        "USS", memory, specs);
    const auto mean = metrics::MeanAccuracy(
        RunHeavyHitters(sol, trace, exact, threshold));
    // Throughput of USS at the same BUCKET COUNT as CocoSketch (so the
    // figure isolates the d effect, not the memory-overhead effect).
    const size_t same_buckets_mem =
        (memory / core::CocoSketch<FiveTuple>::BucketBytes()) *
        sketch::StreamSummary<FiveTuple>::EntryBytes();
    auto uss = std::make_shared<sketch::UnbiasedSpaceSaving<FiveTuple>>(
        same_buckets_mem);
    const double mpps = metrics::MeasureThroughput(
        trace, [uss](const Packet& p) { uss->Update(p.key, p.weight); },
        [uss] { uss->Clear(); }, 3);
    labels.push_back("USS");
    f1s.push_back(mean.f1);
    mppss.push_back(mpps);
  }

  PrintHeader("Fig 16(a): F1 Score by d");
  PrintColumns("", {labels[0], labels[1], labels[2], labels[3], labels[4],
                    labels[5], labels[6]});
  PrintRow("F1", f1s);

  PrintHeader("Fig 16(b): throughput (Mpps) by d");
  PrintColumns("", {labels[0], labels[1], labels[2], labels[3], labels[4],
                    labels[5], labels[6]});
  PrintRow("Mpps", mppss, " %8.2f");

  std::printf(
      "\nExpected shape (paper): F1 rises only marginally beyond d=2 "
      "(95.3%% at d=2,\n96.9%% at d=3) while throughput falls with d; USS "
      "(max d) matches F1 but is\nfar slower.\n");
  return 0;
}
