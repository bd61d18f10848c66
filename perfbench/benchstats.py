"""Turns pipeline_bench's raw measurements into the benchmark's metrics.

pipeline_bench writes one JSON document per process (samples, counters,
check outcomes and, when traced, spans). A run pools several processes
(combine), and this module computes the reported numbers from the pool;
run.py prints them. Everything here is pure, so the self-tests in tests/
exercise it without building anything.
"""

import math
from statistics import median

# Span names that only group other spans: their self time is loop and
# bookkeeping overhead of the replay, not a layer of the program.
CONTAINER_SPANS = ("replay.pass", "replay.epoch")
QUERY_SPAN = "query"

# Reconciliation tolerance: the layers' self times must cover at least this
# share of the replay wall, and the query span's children at least this
# share of the query latency.
RECONCILE_MIN_SHARE = 0.90

END_TO_END = {
    # name: unit
    "replay_ingest_mpps": "Mpps",
    "query_ms.p50": "ms",
    "query_ms.p90": "ms",
    "hh_f1": "ratio",
    "hh_are": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "ovs.scaleout.ingest_mpps": "Mpps",
    "ovs.steer.ns_per_pkt": "ns",
    "ovs.ring.ns_per_pkt": "ns",
    "ovs.scaleout.reported_mpps": "Mpps",
    "ovs.scaleout.outside_ms": "ms",
    "ovs.scaleout.epochs": "count",
    "ovs.scaleout.rotation_refusals": "count",
    "core.update.ns_per_pkt": "ns",
    "core.update.pass1_miss_ratio": "ratio",
    "core.update.replace_ratio": "ratio",
    "ovs.epoch.rotate_us": "us",
    "ovs.epoch.recycle_ms": "ms",
    "core.merge.ms": "ms",
    "core.merge.conflict_ratio": "ratio",
    "core.decode.ms": "ms",
    "core.decode.rows": "count",
    "query.aggregate.ms": "ms",
    "query.aggregate.groups": "count",
    "query.sql.ms": "ms",
    "trace.generate_s": "s",
    "trace.truth_s": "s",
    "trace.overhead_ratio": "ratio",
    "reconcile.layers_share": "ratio",
    "reconcile.query_share": "ratio",
}

# Percentiles a latency may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def _rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples. The
    rounding keeps float error in p * n from pushing an exact rank up."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), p) - 1]


def samples_beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def highest_supported_percentile(n):
    """The highest percentile in PERCENTILES with at least MIN_BEYOND samples
    beyond it, or None when even the median lacks them."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children. `spans` holds [name, start, end, parent, epoch]
    with parent an index into `spans` (-1 for a root). Returns a list
    aligned with `spans`."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (_, start, end, _, _) in enumerate(spans):
        intervals = sorted(
            (max(start, spans[c][1]), min(end, spans[c][2])) for c in children[i]
        )
        covered = 0
        cur_start = cur_end = None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        result.append((end - start) - covered)
    return result


def self_time_by_name(spans):
    """Total self time (ns) per span name."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0) + own
    return totals


def reconcile(spans):
    """The two reconciliation shares of a traced replay.

    layers_share: the layers' summed self time (every span but the replay's
    own pass/epoch containers) over the summed duration of the traced
    passes.
    query_share: the summed duration of the query spans' children over the
    summed duration of the query spans, which are the query_ms samples."""
    own = self_times(spans)
    wall = sum(s[2] - s[1] for s in spans if s[0] == "replay.pass")
    layers = sum(t for s, t in zip(spans, own) if s[0] not in CONTAINER_SPANS)
    query_total = 0
    query_children = 0
    for i, span in enumerate(spans):
        if span[0] == QUERY_SPAN:
            query_total += span[2] - span[1]
        elif span[3] >= 0 and spans[span[3]][0] == QUERY_SPAN:
            query_children += span[2] - span[1]
    return {
        "layers_share": layers / wall if wall else 0.0,
        "query_share": query_children / query_total if query_total else 0.0,
    }


def combine(docs):
    """Pools the documents of one run's processes into one document of the
    same shape: calls, passes and spans are concatenated (calls and passes
    tagged with their process, span parents re-indexed), set-up times become
    lists, checks are summed and the peak RSS is the largest."""
    spans = []
    for doc in docs:
        offset = len(spans)
        spans += [
            [name, start, end, parent + offset if parent >= 0 else -1, epoch]
            for name, start, end, parent, epoch in doc["spans"]
        ]
    checks = {}
    for doc in docs:
        for name, (attempted, failed) in doc["checks"].items():
            a, f = checks.get(name, (0, 0))
            checks[name] = [a + attempted, f + failed]
    first = docs[0]
    return {
        "context": dict(first["context"], processes=len(docs)),
        "setup": {k: [doc["setup"][k] for doc in docs] for k in first["setup"]},
        "threaded": {
            "calls": [
                dict(c, process=i)
                for i, doc in enumerate(docs) for c in doc["threaded"]["calls"]
            ],
        },
        "replay": {
            "hh_f1": first["replay"]["hh_f1"],
            "hh_are": first["replay"]["hh_are"],
            "passes": [
                dict(p, process=i)
                for i, doc in enumerate(docs) for p in doc["replay"]["passes"]
            ],
        },
        "spans": spans,
        "checks": checks,
        "failures": [f for doc in docs for f in doc["failures"]],
        "peak_rss_mib": max(doc["peak_rss_mib"] for doc in docs),
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def by_process(items):
    """Groups pooled calls or passes by the process that measured them."""
    groups = {}
    for item in items:
        groups.setdefault(item["process"], []).append(item)
    return list(groups.values())


def threaded_ingest_mpps(raw):
    """Trace packets over the wall time of one RunScaleout call: the median
    per process, then the median over processes."""
    return median([
        median([c["packets"] / c["wall_s"] / 1e6 for c in group])
        for group in by_process(raw["threaded"]["calls"])
    ])


def end_to_end_metrics(raw):
    """End-to-end metrics of an untraced run, plus the facts printed beside
    them: the latency sample counts and the highest percentile every
    process supports.

    Each timing is computed per process and the median over processes is
    reported, so one process that ran slow as a whole cannot move it."""
    passes = [
        [p for p in group if not p["traced"]]
        for group in by_process(raw["replay"]["passes"])
    ]
    ingest = median([
        sum(p["packets"] for p in group) / sum(p["ingest_cpu_s"] for p in group)
        for group in passes
    ]) / 1e6
    samples = [[q for p in group for q in p["query_ms"]] for group in passes]
    fewest = min(len(s) for s in samples)
    values = {
        "replay_ingest_mpps": ingest,
        "query_ms.p50": median([percentile(s, 50) for s in samples]),
        "query_ms.p90": median([percentile(s, 90) for s in samples]),
        "hh_f1": raw["replay"]["hh_f1"],
        "hh_are": raw["replay"]["hh_are"],
        "setup_s": median(raw["setup"]["setup_s"]),
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    facts = {
        "threaded ingest_mpps": f"{threaded_ingest_mpps(raw):.6g} Mpps",
        "query_samples": sum(len(s) for s in samples),
        "query_samples_per_process_min": fewest,
        "highest_percentile": highest_supported_percentile(fewest),
    }
    return {k: _metric(v, END_TO_END[k]) for k, v in values.items()}, facts


def per_layer_metrics(raw):
    """Per-layer metrics of a traced run, from its spans and counters."""
    spans = raw["spans"]
    by_name = self_time_by_name(spans)
    traced = [p for p in raw["replay"]["passes"] if p["traced"]]
    untraced = [
        p for p in raw["replay"]["passes"] if not p["traced"] and not p["scored"]
    ]
    packets = sum(p["packets"] for p in traced)
    epochs = sum(p["epochs"] for p in traced)

    def total(key):
        return sum(p[key] for p in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_epoch_ms(name):
        return ratio(by_name.get(name, 0), epochs) / 1e6

    def rate(passes):
        return median([p["packets"] / p["cpu_s"] for p in passes])

    calls = raw["threaded"]["calls"]
    outside_ms = [
        (c["wall_s"] - c["packets"] / (c["reported_mpps"] * 1e6)) * 1e3
        for c in calls
    ]
    shares = reconcile(spans)
    values = {
        "ovs.scaleout.ingest_mpps": threaded_ingest_mpps(raw),
        "ovs.steer.ns_per_pkt": ratio(by_name.get("ovs.steer", 0), packets),
        "ovs.ring.ns_per_pkt": ratio(by_name.get("ovs.ring", 0), packets),
        "ovs.scaleout.reported_mpps": median([c["reported_mpps"] for c in calls]),
        "ovs.scaleout.outside_ms": median(outside_ms),
        "ovs.scaleout.epochs": median([c["epochs"] for c in calls]),
        "ovs.scaleout.rotation_refusals": median(
            [c["rotation_refusals"] for c in calls]
        ),
        "core.update.ns_per_pkt": ratio(by_name.get("core.update", 0), packets),
        "core.update.pass1_miss_ratio": ratio(total("pass1_misses"), total("updates")),
        "core.update.replace_ratio": ratio(total("replacements"), total("updates")),
        "ovs.epoch.rotate_us": per_epoch_ms("ovs.epoch.rotate") * 1e3,
        "ovs.epoch.recycle_ms": per_epoch_ms("ovs.epoch.recycle"),
        "core.merge.ms": per_epoch_ms("core.merge"),
        "core.merge.conflict_ratio": ratio(
            total("merge_conflicts"), total("merge_slots")
        ),
        "core.decode.ms": per_epoch_ms("core.decode"),
        "core.decode.rows": ratio(total("decode_rows"), epochs),
        "query.aggregate.ms": per_epoch_ms("query.aggregate"),
        "query.aggregate.groups": ratio(total("aggregate_groups"), epochs),
        "query.sql.ms": per_epoch_ms("query.sql"),
        "trace.generate_s": median(raw["setup"]["generate_s"]),
        "trace.truth_s": median(raw["setup"]["truth_s"]),
        "trace.overhead_ratio": ratio(rate(traced), rate(untraced)),
        "reconcile.layers_share": shares["layers_share"],
        "reconcile.query_share": shares["query_share"],
    }
    return {k: _metric(v, PER_LAYER[k]) for k, v in values.items()}, by_name


def check_counts(raw, extra=()):
    """(attempted, failed) over pipeline_bench's checks plus `extra`, a list of
    (name, ok) pairs evaluated here."""
    attempted = sum(a for a, _ in raw["checks"].values())
    failed = sum(f for _, f in raw["checks"].values())
    for _, ok in extra:
        attempted += 1
        failed += 0 if ok else 1
    return attempted, failed


def result_line(correct, attempted, failed, metrics):
    """The object run.py prints as its last line."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def validate_result(obj, expected_names):
    """Raises ValueError unless `obj` has the result line's schema and
    exactly the metric names in `expected_names`."""
    if not isinstance(obj, dict) or set(obj) != {
        "correct", "attempted", "failed", "metrics"
    }:
        raise ValueError("result must have exactly correct/attempted/failed/metrics")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ValueError(f"{key} must be an integer")
    if obj["attempted"] < 1 or not 0 <= obj["failed"] <= obj["attempted"]:
        raise ValueError("need attempted >= 1 and 0 <= failed <= attempted")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected_names):
        raise ValueError("metric names differ from the expected set")
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"{name}: metric must have exactly value/unit")
        value = metric["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{name}: value must be a number")
        if not math.isfinite(value):
            raise ValueError(f"{name}: value must be finite")
        if not isinstance(metric["unit"], str) or not metric["unit"]:
            raise ValueError(f"{name}: unit must be a non-empty string")
