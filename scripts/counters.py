"""What the artifact validators share: the pod's counter names and
the merged-report loader.

The names mirror kPodCounterFields and kTenantCounterFields in
src/sim/counters.hh (tests/test_counters.cc pins the order the
report, the timeseries and the journal use).
"""

import json

# Aggregate counters: merged-report `metrics` keys, in report order.
METRICS = [
    "instructions", "cycles", "trace_records", "llc_misses",
    "demand_accesses", "demand_hits", "mem_latency_cycles",
    "offchip_bytes", "stacked_bytes", "offchip_acts", "stacked_acts",
]

# Per-tenant counters; each sums bit-exactly to the aggregate
# metric of the same name.
TENANT = [
    "trace_records", "instructions", "llc_misses",
    "demand_accesses", "demand_hits", "mem_latency_cycles",
    "offchip_bytes",
]


def series_column(metric):
    """Timeseries column of an aggregate metric: the aggregate
    stream has always called trace_records "records"."""
    return "records" if metric == "trace_records" else metric


def load_json(path):
    """Parse one JSON artifact."""
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def report_points(path, experiment=None, keep_failed=False):
    """Map point key -> point of the merged sweep report at `path`,
    in report order.

    With `experiment`, only that experiment's points are walked,
    and None comes back when the report lacks it. Failed points
    are skipped unless `keep_failed`. A point without a key, or a
    key seen twice, ends the run naming `path`.
    """
    experiments = load_json(path).get("experiments", {})
    if experiment is not None:
        if experiment not in experiments:
            return None
        experiments = {experiment: experiments[experiment]}
    points, seen = {}, set()
    for name, exp in experiments.items():
        for point in exp.get("points", []):
            key = point.get("key")
            if not key:
                raise SystemExit(
                    f"{path}: point without a key in {name}")
            if key in seen:
                raise SystemExit(f"{path}: duplicate key {key}")
            seen.add(key)
            if keep_failed or not point.get("failed"):
                points[key] = point
    return points
