#!/usr/bin/env python3
"""Pipeline benchmark entry point (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the measurement program (pipeline_bench) from the repository's sources (first run only;
later runs rebuild incrementally), runs one workload, checks its outputs and
prints a summary followed by one JSON result line. With --trace 0 the result
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run. Exits non-zero when any check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402

ROOT = HERE.parent
RUN_LIMIT_S = 165  # a run (after the build) must end well inside 180 s
BUILD_LIMIT_S = 850  # the first run of a checkout builds from scratch
# A run is this many processes of pipeline_bench, one after another, each
# with an equal share of --seconds. Timings shift by up to ~15% from one
# process to the next with the same input (memory placement and cache
# contention differ per process), so each timing is taken per process and
# the median over the processes is reported. A dram-ingest process takes
# about 45 s, so only one fits in RUN_LIMIT_S.
PROCESSES = {"l2-ingest": 5, "epoch-query": 5, "dram-ingest": 1}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds pipeline_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no repository sources next to {HERE}")
    out = build_dir()
    deadline = time.monotonic() + BUILD_LIMIT_S
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_LIMIT_S,
        )
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "pipeline_bench", "-j", "4"],
        check=True, stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return out / "pipeline_bench"


def print_summary(raw, metrics, facts, failed_ratio):
    ctx = raw["context"]
    print("context " + json.dumps(ctx, sort_keys=True))
    if ctx["workload"] == "dram-ingest" and not ctx["sketch_exceeds_l3"]:
        print(
            "WARNING: the dram-ingest sketch "
            f"({ctx['sketch_bytes']} B) does not exceed the host's L3 "
            f"({ctx['l3_bytes']} B); its figures do not show DRAM-bound updates"
        )
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    for name, value in facts.items():
        print(f"  {name:32s} {value}")
    print(f"  {'failed_ratio':32s} {failed_ratio:14.6g} ratio")
    for failure in raw["failures"]:
        print(f"  FAILED {failure}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        log(f"build failed: {err}")
        return 2

    out_dir = build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    docs = []
    processes = PROCESSES[args.workload]
    for i in range(processes):
        raw_path = out_dir / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-p{i}.json")
        cmd = [
            str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / processes),
            "--trace", str(args.trace), "--out", str(raw_path),
        ]
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("pipeline_bench timed out")
            return 1
        if proc.returncode != 0:
            log(f"pipeline_bench exited with {proc.returncode}")
            return 1
        docs.append(json.loads(raw_path.read_text()))
    raw = benchstats.combine(docs)
    # The replay's accuracy depends on the seed alone, so every process
    # must score the same.
    repeats = all(
        (d["replay"]["hh_f1"], d["replay"]["hh_are"])
        == (raw["replay"]["hh_f1"], raw["replay"]["hh_are"])
        for d in docs
    )

    if args.trace:
        metrics, self_ns = benchstats.per_layer_metrics(raw)
        extra = [
            ("reconcile.layers_share",
             metrics["reconcile.layers_share"]["value"] >= benchstats.RECONCILE_MIN_SHARE),
            ("reconcile.query_share",
             metrics["reconcile.query_share"]["value"] >= benchstats.RECONCILE_MIN_SHARE),
        ]
        total = sum(self_ns.values()) or 1
        facts = {
            f"self_ms[{name}]": f"{ns / 1e6:.1f} ({100 * ns / total:.1f}%)"
            for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1])
        }
        expected = benchstats.PER_LAYER
    else:
        metrics, facts = benchstats.end_to_end_metrics(raw)
        # The p90 is reported only when, in every process, at least ten
        # samples lie beyond it.
        extra = [("query_ms.p90_supported",
                  (facts["highest_percentile"] or 0) >= 90.0)]
        expected = benchstats.END_TO_END
    extra.append(("replay.accuracy_repeats", repeats))
    for name, ok in extra:
        if not ok:
            raw["failures"].append(f"{name}: not met")
    attempted, failed = benchstats.check_counts(raw, extra)
    print_summary(raw, metrics, facts, failed / attempted)

    result = benchstats.result_line(failed == 0, attempted, failed, metrics)
    benchstats.validate_result(result, expected)
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
