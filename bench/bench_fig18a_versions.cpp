// Figure 18(a): F1 Score of the three CocoSketch versions vs memory —
// basic (software), FPGA variant (hardware-friendly, exact division), and
// P4 variant (hardware-friendly, Tofino approximate division).
#include "harness.h"

using namespace coco;
using namespace coco::bench;

int main() {
  const auto specs = keys::TupleKeySpec::DefaultSix();
  const double fraction = 1e-4;
  const std::vector<size_t> memories = {KiB(500), KiB(1000), KiB(1500)};

  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(BenchPackets()));
  const auto truth = trace::CountTrace(trace);
  const auto exact = query::PartialKeyTruth(truth, specs);
  const uint64_t threshold =
      query::HeavyHitterThreshold(truth.Total(), fraction);
  std::printf("Figure 18(a): CocoSketch versions vs memory (%zu pkts)\n",
              trace.size());

  std::vector<double> basic_f1, fpga_f1, p4_f1;
  for (size_t mem : memories) {
    auto basic = MakeCoco(mem, specs);
    auto fpga = MakeFullKey<core::HwCocoSketch<FiveTuple>>(
        "FPGA", mem, specs, 2, core::DivisionMode::kExact, 0xc0c1);
    auto p4 = MakeFullKey<core::HwCocoSketch<FiveTuple>>(
        "P4", mem, specs, 2, core::DivisionMode::kApproximate, 0xc0c1);
    basic_f1.push_back(metrics::MeanAccuracy(
        RunHeavyHitters(basic, trace, exact, threshold)).f1);
    fpga_f1.push_back(metrics::MeanAccuracy(
        RunHeavyHitters(fpga, trace, exact, threshold)).f1);
    p4_f1.push_back(metrics::MeanAccuracy(
        RunHeavyHitters(p4, trace, exact, threshold)).f1);
  }

  PrintHeader("Fig 18(a): F1 Score vs memory (KB)");
  PrintColumns("version", {"500", "1000", "1500"});
  PrintRow("Basic", basic_f1);
  PrintRow("FPGA", fpga_f1);
  PrintRow("P4", p4_f1);

  std::printf(
      "\nExpected shape (paper): basic best; hardware-friendly within 10%%; "
      "FPGA vs P4\ngap < 1%% (approximate division is nearly free); "
      "hardware-friendly > 90%% F1\nat 1MB.\n");
  return 0;
}
