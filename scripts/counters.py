"""The pod's counter names, shared by the artifact validators.

Mirrors kPodCounterFields and kTenantCounterFields in
src/sim/counters.hh (tests/test_counters.cc pins the order the
report, the timeseries and the journal use).
"""

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
