// Measurement program of the pipeline benchmark (see README.md).
//
// Runs one workload through two phases, one after the other:
//
//   replay   — a single-threaded replay of the pipeline assembled from
//              public calls (steer, SPSC ring, UpdateBatch, TryRotate,
//              MergeAll, Decode, the workload's queries, Recycle), timed per
//              epoch on the thread CPU clock and, with --trace 1, recorded
//              as spans;
//   threaded — ovs::RunScaleout with 2 shards, 1 worker and epoch rotation,
//              the shipped datapath, timed from outside on the wall clock.
//
// It writes raw measurements (samples, counters, check outcomes, spans) as
// one JSON document to --out; run.py turns them into the reported metrics.
//
//   pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --out <file>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cocosketch.h"
#include "core/merge.h"
#include "keys/key_spec.h"
#include "metrics/accuracy.h"
#include "ovs/epoch.h"
#include "ovs/scaleout.h"
#include "ovs/spsc_ring.h"
#include "ovs/steering.h"
#include "packet/keys.h"
#include "query/flow_table.h"
#include "query/sql.h"
#include "simd/dispatch.h"
#include "trace/generators.h"
#include "trace/ground_truth.h"

namespace {

using namespace coco;
using Clock = std::chrono::steady_clock;
using Sketch = core::CocoSketch<FiveTuple>;
using Shard = ovs::EpochShard<FiveTuple>;
using Table = query::FlowTable<FiveTuple>;

constexpr size_t kShards = 2;
constexpr size_t kD = 2;
constexpr size_t kRingCapacity = 4096;
constexpr size_t kDrainBatch = 32;   // the scale-out worker's drain batch
constexpr size_t kMinThreadedCalls = 3;
// Every process answers at least this many epochs, so that at least ten
// query latency samples lie beyond its p90.
constexpr uint64_t kMinEpochs = 100;
constexpr size_t kTopN = 100;
constexpr double kHeavyShare = 1e-4;  // heavy hitter: >= this share of weight
// Threaded epochs are cut by the collector's drained-packet cadence and
// lengthen when it lags (on a 4-core host it folds every ~170k packets
// instead of every 20k on epoch-query), so the threaded decode is less
// accurate than the replay's by a timing-dependent amount: up to 0.045 in
// F1 was seen. The median hh_f1 of the first kMinThreadedCalls calls must
// stay within this of the replay's.
constexpr double kPhaseF1Tolerance = 0.10;

// The heavy query set's statement, and its TopRows(Aggregate()) twin used
// by the SQL correctness check.
constexpr const char* kSql =
    "SELECT SrcIP/24, DstPort, SUM(Size) FROM flows GROUP BY SrcIP/24, "
    "DstPort HAVING SUM(Size) >= 20 ORDER BY SUM(Size) DESC LIMIT 100";
constexpr uint64_t kSqlHaving = 20;
constexpr size_t kSqlLimit = 100;

struct Workload {
  std::string name;
  trace::TraceConfig traffic;
  size_t sketch_bytes = 0;  // total, split across the shards
  uint64_t epoch_packets = 0;
  bool heavy_queries = false;
};

std::optional<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  // Each replay pass covers the whole trace; passes repeat until kMinEpochs
  // epochs are answered and the time budget is spent. Every epoch starts
  // from an empty sketch, so a repeated pass does the same kind of work as
  // fresh traffic would.
  if (name == "l2-ingest") {
    w.traffic = trace::TraceConfig::CaidaLike(2'000'000);
    w.sketch_bytes = 512 * 1024;
    w.epoch_packets = 100'000;
  } else if (name == "dram-ingest") {
    w.traffic = trace::TraceConfig::MawiLike(2'000'000);
    w.traffic.num_flows = 2'000'000;
    w.traffic.zipf_alpha = 0.8;
    w.sketch_bytes = size_t{256} << 20;
    w.epoch_packets = 100'000;
  } else if (name == "epoch-query") {
    w.traffic = trace::TraceConfig::CaidaLike(2'000'000);
    w.sketch_bytes = 512 * 1024;
    w.epoch_packets = 20'000;
    w.heavy_queries = true;
  } else {
    return std::nullopt;
  }
  return w;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time of the calling thread. Set-up and the replay are single-threaded
// and never block, so on an idle core this equals their wall time; unlike
// wall time it excludes time the core is taken away, by other processes or
// by the hypervisor (steal), which on a shared VM moves wall times by tens
// of percent between runs.
int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

double CpuSeconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// ---- Spans ----------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index into the span list, -1 for a root
  uint64_t epoch;
};

// In-memory span recorder on the thread CPU clock; written out with the rest
// of the results at the end of the run. Disabled, it records nothing and
// reads no clock.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t epoch) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->Open(name, epoch);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  size_t Open(const char* name, uint64_t epoch) {
    const int64_t parent =
        open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back({name, ThreadCpuNs(), 0, parent, epoch});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(size_t index) {
    spans_[index].end_ns = ThreadCpuNs();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// ---- Checks ---------------------------------------------------------------

class Checks {
 public:
  void Expect(bool ok, const std::string& name, const std::string& detail) {
    auto& [attempted, failed] = counts_[name];
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures_.size() < 20) failures_.push_back(name + ": " + detail);
    }
  }
  const std::map<std::string, std::pair<uint64_t, uint64_t>>& counts() const {
    return counts_;
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> counts_;
  std::vector<std::string> failures_;
};

// ---- Ground truth and scoring ---------------------------------------------

// Exact heavy hitters of the six default partial keys. Flows below the
// threshold never enter metrics::ScoreThreshold's result, so only the heavy
// ones are kept.
struct Truth {
  uint64_t total = 0;
  uint64_t threshold = 0;
  std::vector<keys::TupleKeySpec> specs = keys::TupleKeySpec::DefaultSix();
  std::vector<std::unordered_map<DynKey, uint64_t>> heavy;
};

Truth BuildTruth(const std::vector<Packet>& trace) {
  trace::ExactCounter<FiveTuple> exact;
  for (const Packet& p : trace) exact.Add(p.key, p.weight);
  Truth truth;
  truth.total = exact.Total();
  truth.threshold = static_cast<uint64_t>(
      std::ceil(static_cast<double>(truth.total) * kHeavyShare));
  for (const auto& spec : truth.specs) {
    truth.heavy.push_back(query::FilterThreshold(
        query::Aggregate(exact.counts(), spec), truth.threshold));
  }
  return truth;
}

struct Score {
  double f1 = 0.0;
  double are = 0.0;
};

// Mean F1 / ARE over the six default partial keys.
Score ScoreSixKeys(const Table& estimate, const Truth& truth) {
  Score score;
  for (size_t i = 0; i < truth.specs.size(); ++i) {
    const auto acc = metrics::ScoreThreshold(
        query::Aggregate(estimate, truth.specs[i]), truth.heavy[i],
        truth.threshold);
    score.f1 += acc.f1;
    score.are += acc.are;
  }
  score.f1 /= static_cast<double>(truth.specs.size());
  score.are /= static_cast<double>(truth.specs.size());
  return score;
}

// ---- Replay phase ---------------------------------------------------------

struct Replay {
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::unique_ptr<ovs::SpscRing<Packet>>> rings;
};

Replay MakeReplay(const Workload& w, uint64_t sketch_seed) {
  Replay r;
  for (size_t s = 0; s < kShards; ++s) {
    r.shards.push_back(
        std::make_unique<Shard>(w.sketch_bytes / kShards, kD, sketch_seed));
    r.rings.push_back(std::make_unique<ovs::SpscRing<Packet>>(kRingCapacity));
  }
  return r;
}

struct PassResult {
  bool traced = false;
  bool scored = false;  // the pass whose decodes hh_f1/hh_are score
  double cpu_s = 0.0;
  double ingest_cpu_s = 0.0;  // steering, ring and updates
  uint64_t packets = 0;
  uint64_t epochs = 0;
  std::vector<double> query_ms;
  // Counters summed over the pass's epochs.
  uint64_t updates = 0;
  uint64_t pass1_misses = 0;
  uint64_t replacements = 0;
  uint64_t merge_slots = 0;  // matched + copied + conflicts
  uint64_t merge_conflicts = 0;
  uint64_t decode_rows = 0;
  uint64_t aggregate_groups = 0;
};

// One pass of the trace through the replayed pipeline, epoch by epoch.
// The query clock of an epoch (the thread CPU clock) starts once every
// shard's TryRotate has returned and stops when the workload's query set is
// answered. With
// `accumulated` set, every epoch's decode is added to it for scoring.
PassResult ReplayPass(const Workload& w, const std::vector<Packet>& trace,
                      Replay* replay, const ovs::FlowSteering& steering,
                      uint64_t sketch_seed, uint64_t* epoch_id, Rng* merge_rng,
                      Tracer* tracer, Checks* checks, Table* accumulated) {
  using Scope = Tracer::Scope;
  PassResult out;
  out.traced = tracer != nullptr;
  out.scored = accumulated != nullptr;
  const size_t per_shard_bytes = w.sketch_bytes / kShards;
  std::vector<std::vector<Packet>> striped(kShards);
  for (auto& v : striped) v.reserve(w.epoch_packets);
  std::vector<Packet> staged(kRingCapacity);
  const keys::TupleKeySpec sql_spec(
      "sql", {keys::FieldSel(keys::Field::kSrcIp, 24),
              keys::FieldSel(keys::Field::kDstPort)});
  const auto six = keys::TupleKeySpec::DefaultSix();

  const int64_t start = ThreadCpuNs();
  Scope pass_scope(tracer, "replay.pass", *epoch_id + 1);
  for (size_t begin = 0; begin < trace.size(); begin += w.epoch_packets) {
    const size_t end = std::min(trace.size(), begin + w.epoch_packets);
    const uint64_t epoch = ++*epoch_id;
    Scope epoch_scope(tracer, "replay.epoch", epoch);
    const int64_t ingest_start = ThreadCpuNs();

    {
      Scope s(tracer, "ovs.steer", epoch);
      for (auto& v : striped) v.clear();
      for (size_t i = begin; i < end; ++i) {
        striped[steering.Shard(trace[i].key)].push_back(trace[i]);
      }
    }

    std::vector<uint64_t> fed(kShards, 0);
    for (size_t s = 0; s < kShards; ++s) {
      ovs::SpscRing<Packet>& ring = *replay->rings[s];
      Sketch* active = replay->shards[s]->active();
      const std::vector<Packet>& in = striped[s];
      for (size_t c = 0; c < in.size(); c += kRingCapacity) {
        const size_t n = std::min(kRingCapacity, in.size() - c);
        size_t popped = 0;
        {
          Scope sr(tracer, "ovs.ring", epoch);
          for (size_t i = 0; i < n; ++i) ring.TryPush(in[c + i]);
          while (size_t got = ring.PopBatch(staged.data() + popped,
                                            kDrainBatch)) {
            popped += got;
          }
        }
        checks->Expect(popped == n, "replay.ring_lossless",
                       "pushed " + std::to_string(n) + ", popped " +
                           std::to_string(popped));
        Scope su(tracer, "core.update", epoch);
        for (size_t i = 0; i < popped; i += kDrainBatch) {
          const size_t m = std::min(kDrainBatch, popped - i);
          active->UpdateBatch(staged.data() + i, m);
          for (size_t k = 0; k < m; ++k) fed[s] += staged[i + k].weight;
        }
      }
    }

    out.ingest_cpu_s += CpuSeconds(ingest_start, ThreadCpuNs());

    {
      Scope s(tracer, "ovs.epoch.rotate", epoch);
      for (size_t s2 = 0; s2 < kShards; ++s2) {
        checks->Expect(replay->shards[s2]->TryRotate(epoch, fed[s2]),
                       "replay.rotate",
                       "refused at epoch " + std::to_string(epoch));
      }
    }

    // ---- Epoch closed: the query clock runs from here. ----
    const int64_t query_start = ThreadCpuNs();
    std::vector<Shard::Published> taken;
    std::optional<Sketch> snapshot;
    Table table;
    std::optional<query::sql::Result> sql_result;
    size_t answer_rows = 0;
    {
      Scope sq(tracer, "query", epoch);
      {
        Scope s(tracer, "ovs.epoch.take", epoch);
        for (auto& shard : replay->shards) {
          taken.push_back(shard->TakePublished());
        }
      }
      core::MergeStats merged;
      {
        Scope s(tracer, "core.merge", epoch);
        snapshot.emplace(per_shard_bytes, kD, sketch_seed);
        std::vector<const Sketch*> sources;
        for (const auto& pub : taken) {
          if (pub.sketch != nullptr) sources.push_back(pub.sketch.get());
        }
        merged = core::MergeAll(&*snapshot, sources, merge_rng);
      }
      {
        Scope s(tracer, "core.decode", epoch);
        table = snapshot->Decode();
      }
      if (w.heavy_queries) {
        {
          Scope s(tracer, "query.aggregate", epoch);
          for (const auto& spec : six) {
            const auto groups = query::Aggregate(table, spec);
            out.aggregate_groups += groups.size();
            answer_rows += query::TopRows(groups, kTopN).size();
          }
        }
        Scope s(tracer, "query.sql", epoch);
        std::string error;
        sql_result = query::sql::Query(kSql, table, &error);
      } else {
        Scope s(tracer, "query.filter", epoch);
        const uint64_t epoch_weight = fed[0] + fed[1];
        answer_rows += query::FilterThreshold(
                           table, static_cast<uint64_t>(std::ceil(
                                      epoch_weight * kHeavyShare)))
                           .size();
      }
      out.merge_slots += merged.matched + merged.copied + merged.conflicts;
      out.merge_conflicts += merged.conflicts;
      checks->Expect(merged.ok, "replay.merge_ok",
                     "MergeAll refused epoch " + std::to_string(epoch));
    }
    out.query_ms.push_back(CpuSeconds(query_start, ThreadCpuNs()) * 1e3);
    out.decode_rows += table.size();

    {
      Scope s(tracer, "bench.check", epoch);
      const uint64_t fed_total = fed[0] + fed[1];
      const uint64_t mass = snapshot->TotalValue();
      checks->Expect(mass == fed_total, "replay.merged_mass",
                     "epoch " + std::to_string(epoch) + " merged " +
                         std::to_string(mass) + " of " +
                         std::to_string(fed_total));
      for (size_t s2 = 0; s2 < kShards; ++s2) {
        checks->Expect(taken[s2].sketch != nullptr &&
                           taken[s2].applied_weight == fed[s2],
                       "replay.published",
                       "shard " + std::to_string(s2) + " epoch " +
                           std::to_string(epoch));
      }
      if (w.heavy_queries) {
        bool same = sql_result.has_value();
        if (same) {
          const auto twin = query::TopRows(
              query::FilterThreshold(query::Aggregate(table, sql_spec),
                                     kSqlHaving),
              kSqlLimit);
          same = twin.size() == sql_result->rows.size();
          for (size_t i = 0; same && i < twin.size(); ++i) {
            same = twin[i].first == sql_result->rows[i].key &&
                   twin[i].second == sql_result->rows[i].size;
          }
        }
        checks->Expect(same, "replay.sql_matches_toprows",
                       "epoch " + std::to_string(epoch));
      }
      checks->Expect(answer_rows > 0, "replay.answered",
                     "empty answer at epoch " + std::to_string(epoch));
    }
    {
      Scope s(tracer, "bench.stats", epoch);
      for (const auto& pub : taken) {
        if (pub.sketch == nullptr) continue;
        const core::SketchStats st = pub.sketch->Stats();
        out.updates += st.updates;
        out.pass1_misses += st.pass1_misses;
        out.replacements += st.key_replacements;
      }
    }
    if (accumulated != nullptr) {
      Scope s(tracer, "bench.accumulate", epoch);
      for (const auto& [key, value] : table) (*accumulated)[key] += value;
    }
    {
      Scope s(tracer, "query.release", epoch);
      snapshot.reset();
      table = {};
      sql_result.reset();
    }
    {
      Scope s(tracer, "ovs.epoch.recycle", epoch);
      for (size_t s2 = 0; s2 < kShards; ++s2) {
        if (taken[s2].sketch != nullptr) {
          replay->shards[s2]->Recycle(std::move(taken[s2].sketch));
        }
      }
    }
    out.packets += end - begin;
    ++out.epochs;
  }
  out.cpu_s = CpuSeconds(start, ThreadCpuNs());
  return out;
}

// ---- Threaded phase -------------------------------------------------------

struct ThreadedCall {
  double wall_s = 0.0;
  double reported_mpps = 0.0;
  uint64_t packets = 0;
  uint64_t epochs = 0;
  uint64_t rotation_refusals = 0;
};

ThreadedCall RunThreaded(const ovs::ScaleoutConfig& config,
                         const std::vector<Packet>& trace, uint64_t weight,
                         Checks* checks, Table* merged_out) {
  const auto t0 = Clock::now();
  ovs::ScaleoutResult r = ovs::RunScaleout(config, trace);
  ThreadedCall call;
  call.wall_s = Seconds(t0, Clock::now());
  call.reported_mpps = r.mpps;
  call.packets = trace.size();
  call.epochs = r.epochs.size();
  call.rotation_refusals = r.rotation_refusals;

  checks->Expect(r.total_sketch_mass == weight, "threaded.total_mass",
                 std::to_string(r.total_sketch_mass) + " of " +
                     std::to_string(weight));
  checks->Expect(r.packets_processed == trace.size(), "threaded.packets",
                 std::to_string(r.packets_processed) + " of " +
                     std::to_string(trace.size()));
  checks->Expect(r.single_writer_ok, "threaded.single_writer", "violated");
  checks->Expect(r.rx_dropped == 0, "threaded.rx_dropped",
                 std::to_string(r.rx_dropped));
  for (const ovs::EpochRecord& rec : r.epochs) {
    checks->Expect(rec.applied_weight == rec.sketch_mass,
                   "threaded.epoch_mass",
                   "epoch " + std::to_string(rec.epoch) + " applied " +
                       std::to_string(rec.applied_weight) + " mass " +
                       std::to_string(rec.sketch_mass));
  }
  if (merged_out != nullptr) *merged_out = std::move(r.merged_table);
  return call;
}

// ---- Output ---------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

template <typename T>
std::string JsonArray(const std::vector<T>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += JsonNumber(static_cast<double>(values[i]));
  }
  return out + "]";
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

long CacheBytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? v : 0;
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <l2-ingest|dram-ingest|epoch-query> "
               "--seed <n> --seconds <s> --trace <0|1> --out <file>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* key : {"--workload", "--seed", "--seconds", "--trace",
                          "--out"}) {
    if (!args.count(key)) return Usage(argv[0]);
  }
  const std::optional<Workload> workload = MakeWorkload(args["--workload"]);
  if (!workload) return Usage(argv[0]);
  const Workload& w = *workload;
  const uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  const bool traced = args["--trace"] == "1";
  if (!(seconds > 0)) return Usage(argv[0]);

  // Every random choice derives from the workload seed.
  uint64_t mix = seed ^ 0x70697065ULL;
  trace::TraceConfig traffic = w.traffic;
  traffic.seed = SplitMix64(mix);
  const uint64_t sketch_seed = SplitMix64(mix);
  const uint64_t steering_seed = SplitMix64(mix);
  const uint64_t merge_seed = SplitMix64(mix);

  Checks checks;

  // ---- Setup: trace, exact truth, replay shard construction. ----
  const int64_t t0 = ThreadCpuNs();
  const std::vector<Packet> trace = trace::GenerateTrace(traffic);
  const int64_t t1 = ThreadCpuNs();
  const Truth truth = BuildTruth(trace);
  const int64_t t2 = ThreadCpuNs();
  Replay replay = MakeReplay(w, sketch_seed);
  const int64_t t3 = ThreadCpuNs();
  const double budget_s = seconds / 2.0;  // per phase

  // ---- Replay phase. ----
  const ovs::FlowSteering steering(steering_seed, kShards);
  Rng merge_rng(merge_seed);
  uint64_t epoch_id = 0;
  std::vector<PassResult> passes;
  Tracer tracer;
  const auto replay_start = Clock::now();
  // Pass 0 is untraced and scored. Untraced runs repeat unscored passes
  // until both limits are met. Traced runs make one more untraced pass, the
  // base of the tracing overhead, and then traced passes until both limits
  // are met.
  Table scored_table;
  for (size_t p = 0;; ++p) {
    const bool trace_this = traced && p >= 2;
    passes.push_back(ReplayPass(w, trace, &replay, steering, sketch_seed,
                                &epoch_id, &merge_rng,
                                trace_this ? &tracer : nullptr, &checks,
                                p == 0 ? &scored_table : nullptr));
    if (epoch_id >= kMinEpochs && (!traced || p >= 2) &&
        Seconds(replay_start, Clock::now()) >= budget_s) {
      break;
    }
  }
  const Score replay_score = ScoreSixKeys(scored_table, truth);
  scored_table = {};
  replay = Replay{};

  // ---- Threaded phase. ----
  ovs::ScaleoutConfig config;
  config.num_shards = kShards;
  config.num_workers = 1;
  config.sketch_memory_bytes = w.sketch_bytes;
  config.d = kD;
  config.seed = sketch_seed;
  config.steering_seed = steering_seed;
  config.ring_capacity = kRingCapacity;
  config.drain_batch = kDrainBatch;
  config.overflow = ovs::OverflowPolicy::kBackpressure;
  config.rotation_interval_packets = w.epoch_packets;
  std::vector<ThreadedCall> calls;
  std::vector<double> threaded_f1, threaded_are;
  const auto threaded_start = Clock::now();
  while (calls.size() < kMinThreadedCalls ||
         Seconds(threaded_start, Clock::now()) < budget_s) {
    const bool score = calls.size() < kMinThreadedCalls;
    Table merged;
    calls.push_back(RunThreaded(config, trace, truth.total, &checks,
                                score ? &merged : nullptr));
    if (score) {
      const Score s = ScoreSixKeys(merged, truth);
      threaded_f1.push_back(s.f1);
      threaded_are.push_back(s.are);
    }
  }
  const Score threaded_score{Median(threaded_f1), Median(threaded_are)};
  checks.Expect(
      std::fabs(threaded_score.f1 - replay_score.f1) <= kPhaseF1Tolerance,
      "threaded.hh_f1_matches_replay",
      "threaded " + JsonNumber(threaded_score.f1) + " vs replay " +
          JsonNumber(replay_score.f1));

  // ---- Write everything out. ----
  std::ostringstream o;
  const long l2 = CacheBytes(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = CacheBytes(_SC_LEVEL3_CACHE_SIZE);
  o << "{\"context\":{"
    << "\"workload\":" << JsonString(w.name) << ",\"seed\":" << seed
    << ",\"trace_seed\":" << traffic.seed << ",\"sketch_seed\":" << sketch_seed
    << ",\"nproc\":" << OnlineCpus()
    << ",\"simd_tier\":" << JsonString(simd::TierName(simd::ActiveTier()))
    << ",\"l2_bytes\":" << l2 << ",\"l3_bytes\":" << l3
    << ",\"sketch_bytes\":" << w.sketch_bytes
    << ",\"sketch_exceeds_l3\":"
    << (l3 > 0 && w.sketch_bytes > static_cast<size_t>(l3) ? "true" : "false")
    << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
    << ",\"compiler\":" << JsonString(__VERSION__)
    << ",\"packets\":" << trace.size() << ",\"flows\":" << traffic.num_flows
    << ",\"zipf_alpha\":" << JsonNumber(traffic.zipf_alpha)
    << ",\"epoch_packets\":" << w.epoch_packets << ",\"shards\":" << kShards
    << ",\"workers\":1,\"d\":" << kD
    << ",\"heavy_queries\":" << (w.heavy_queries ? "true" : "false")
    << ",\"hh_threshold\":" << truth.threshold
    << ",\"phase_f1_tolerance\":" << JsonNumber(kPhaseF1Tolerance) << "}";
  o << ",\"setup\":{\"setup_s\":" << JsonNumber(CpuSeconds(t0, t3))
    << ",\"generate_s\":" << JsonNumber(CpuSeconds(t0, t1))
    << ",\"truth_s\":" << JsonNumber(CpuSeconds(t1, t2))
    << ",\"construct_s\":" << JsonNumber(CpuSeconds(t2, t3)) << "}";
  o << ",\"threaded\":{\"hh_f1\":" << JsonNumber(threaded_score.f1)
    << ",\"hh_are\":" << JsonNumber(threaded_score.are) << ",\"calls\":[";
  for (size_t i = 0; i < calls.size(); ++i) {
    const ThreadedCall& c = calls[i];
    o << (i ? "," : "") << "{\"wall_s\":" << JsonNumber(c.wall_s)
      << ",\"reported_mpps\":" << JsonNumber(c.reported_mpps)
      << ",\"packets\":" << c.packets << ",\"epochs\":" << c.epochs
      << ",\"rotation_refusals\":" << c.rotation_refusals << "}";
  }
  o << "]}";
  o << ",\"replay\":{\"hh_f1\":" << JsonNumber(replay_score.f1)
    << ",\"hh_are\":" << JsonNumber(replay_score.are) << ",\"passes\":[";
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    o << (i ? "," : "") << "{\"traced\":" << (p.traced ? "true" : "false")
      << ",\"scored\":" << (p.scored ? "true" : "false")
      << ",\"cpu_s\":" << JsonNumber(p.cpu_s)
      << ",\"ingest_cpu_s\":" << JsonNumber(p.ingest_cpu_s)
      << ",\"packets\":" << p.packets
      << ",\"epochs\":" << p.epochs << ",\"updates\":" << p.updates
      << ",\"pass1_misses\":" << p.pass1_misses
      << ",\"replacements\":" << p.replacements
      << ",\"merge_slots\":" << p.merge_slots
      << ",\"merge_conflicts\":" << p.merge_conflicts
      << ",\"decode_rows\":" << p.decode_rows
      << ",\"aggregate_groups\":" << p.aggregate_groups
      << ",\"query_ms\":" << JsonArray(p.query_ms) << "}";
  }
  o << "]}";
  o << ",\"spans\":[";
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    o << (i ? "," : "") << "[" << JsonString(s.name) << "," << s.start_ns
      << "," << s.end_ns << "," << s.parent << "," << s.epoch << "]";
  }
  o << "]";
  o << ",\"checks\":{";
  size_t i = 0;
  for (const auto& [name, counts] : checks.counts()) {
    o << (i++ ? "," : "") << JsonString(name) << ":[" << counts.first << ","
      << counts.second << "]";
  }
  o << "},\"failures\":[";
  for (size_t f = 0; f < checks.failures().size(); ++f) {
    o << (f ? "," : "") << JsonString(checks.failures()[f]);
  }
  o << "],\"peak_rss_mib\":" << JsonNumber(PeakRssMib()) << "}\n";

  std::ofstream file(args["--out"]);
  file << o.str();
  file.close();
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", args["--out"].c_str());
    return 1;
  }
  return 0;
}
