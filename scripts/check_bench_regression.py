#!/usr/bin/env python3
"""Guard against engine performance regressions.

Compares a fresh perf_engine run (typically --quick) against the
committed BENCH_engine.json and fails when ns/record regresses
beyond the tolerance. The metric is the two-phase (functional)
engine's combined warmup+measure ns/record, per design.

In --relative mode each design's ns/record is first normalized to
the 'baseline' design's ns/record *from the same file*, which
cancels machine speed: CI runners are not the machine that
produced the committed baseline, so only relative regressions
(one design getting slower than the others) are meaningful there.
Absolute mode is for same-machine comparisons (scripts/check.sh
on the machine that committed the baseline).

Pass several --current files (repeats of the same quick run) to
compare against the per-design *minimum* ns/record: the minimum
is robust to scheduler noise spikes, which on shared CI vCPUs
dwarf real regressions in any single short run.

The guard also covers the colocation experiment: pass
--colocation-json with a merged sweep report containing the
`colocation` experiment and the script validates the interference
matrix instead of (or in addition to) the engine timings —
per-point tenant-metric conservation (every per-tenant counter
must sum bit-exactly to the aggregate metric of the same point)
and matrix coverage (--min-pairs workload pairs and --min-designs
designs with paired points).

Finally, --telemetry-json validates the `telemetry` section a
full perf_engine run emits: interval streaming + histograms, and
separately the introspection layer (shadow-directory miss
attribution + design probes + heatmaps), must each cost at most
--telemetry-budget-pct (default 2%) over the
instrumentation-off run, the engine metrics must be bit-identical
either way, and the interval and probe-column deltas must
conserve. The overhead
number in the committed file was measured interleaved
min-of-reps on an idle machine; the guard reads the file rather
than re-timing, so it is deterministic on noisy CI runners.

Usage:
  check_bench_regression.py --baseline BENCH_engine.json \
      --current quick1.json [quick2.json ...] \
      [--tolerance 0.15] [--relative]
  check_bench_regression.py --colocation-json sweep.json \
      [--min-pairs 3] [--min-designs 7]
  check_bench_regression.py --telemetry-json BENCH_engine.json \
      [--telemetry-budget-pct 2.0]
"""

import argparse
import sys

from counters import TENANT, load_json, report_points


def ns_per_record(design_entry):
    f = design_entry["functional"]
    records = f["warmup_records"] + f["measure_records"]
    seconds = f["warmup_seconds"] + f["measure_seconds"]
    if records <= 0:
        return 0.0
    return 1e9 * seconds / records


# Every per-tenant counter (counters.TENANT) must sum bit-exactly
# to the aggregate metric of the same point (tests/test_tenant.cc
# proves the same invariant in-process; this guards the shipped
# artifact).
def check_colocation(path, min_pairs, min_designs):
    points = report_points(path, "colocation", keep_failed=True)
    if points is None:
        print(f"{path}: no colocation experiment in the report")
        return 1
    pairs, designs = set(), set()
    violations = 0
    tenant_points = 0
    for p in points.values():
        tenants = p.get("tenants", [])
        if not tenants:
            print(f"{p['key']}: no per-tenant metrics")
            violations += 1
            continue
        tenant_points += 1
        if len(tenants) >= 2:
            pairs.add(p["key"].split("/")[1])
            designs.add(p["design"])
        m = p["metrics"]
        for field in TENANT:
            total = sum(t[field] for t in tenants)
            if total != m[field]:
                print(f"{p['key']}: tenant {field} sum {total} "
                      f"!= aggregate {m[field]}")
                violations += 1
    print(f"colocation guard: {len(points)} point(s), "
          f"{tenant_points} with tenant metrics, "
          f"{len(pairs)} pair(s), {len(designs)} design(s) "
          f"with paired runs")
    if len(pairs) < min_pairs:
        print(f"FAIL: need >= {min_pairs} workload pairs")
        violations += 1
    if len(designs) < min_designs:
        print(f"FAIL: need >= {min_designs} designs with "
              f"paired points")
        violations += 1
    if violations:
        print(f"FAIL: {violations} colocation violation(s)")
        return 1
    print("OK: colocation matrix complete and conserved")
    return 0


def check_telemetry_budget(path, budget_pct):
    tel = load_json(path).get("telemetry")
    if tel is None:
        print(f"{path}: no telemetry section (regenerate "
              f"BENCH_engine.json with a full perf_engine run)")
        return 1
    violations = 0
    overhead = tel.get("overhead_pct", 1e9)
    print(f"telemetry budget guard: overhead "
          f"{overhead:+.2f}% over {tel.get('reps', '?')} rep(s) "
          f"(off {tel.get('measure_seconds_off', 0):.3f}s, "
          f"on {tel.get('measure_seconds_on', 0):.3f}s)")
    if overhead > budget_pct:
        print(f"FAIL: telemetry overhead {overhead:.2f}% exceeds "
              f"the {budget_pct:.1f}% budget")
        violations += 1
    if not tel.get("metrics_identical", False):
        print("FAIL: metrics diverged with telemetry enabled")
        violations += 1
    if not tel.get("intervals_conserve", False):
        print("FAIL: interval deltas do not sum to aggregates")
        violations += 1
    # Introspection (miss attribution + design probes +
    # heatmaps) rides under the same budget; older baseline
    # files without the fields fail until regenerated.
    intro = tel.get("introspection_overhead_pct", 1e9)
    print(f"introspection budget guard: overhead "
          f"{intro:+.2f}% "
          f"(on {tel.get('measure_seconds_introspection', 0):.3f}s)")
    if intro > budget_pct:
        print(f"FAIL: introspection overhead {intro:.2f}% "
              f"exceeds the {budget_pct:.1f}% budget")
        violations += 1
    if not tel.get("introspection_metrics_identical", False):
        print("FAIL: metrics diverged with introspection "
              "enabled")
        violations += 1
    if not tel.get("introspection_probes_conserve", False):
        print("FAIL: probe-column deltas do not sum to "
              "aggregates")
        violations += 1
    if violations:
        return 1
    print(f"OK: telemetry costs {max(overhead, 0.0):.2f}% and "
          f"introspection {max(intro, 0.0):.2f}% "
          f"(budget {budget_pct:.1f}%), metrics identical, "
          f"intervals and probes conserve")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline")
    ap.add_argument("--current", nargs="+", default=[])
    ap.add_argument("--tolerance", type=float, default=0.15)
    ap.add_argument("--relative", action="store_true")
    ap.add_argument("--colocation-json")
    ap.add_argument("--min-pairs", type=int, default=3)
    ap.add_argument("--min-designs", type=int, default=7)
    ap.add_argument("--telemetry-json")
    ap.add_argument("--telemetry-budget-pct", type=float,
                    default=2.0)
    args = ap.parse_args()

    if args.baseline and not args.current:
        ap.error("--baseline needs at least one --current run")
    rc = 0
    if args.telemetry_json:
        rc = check_telemetry_budget(args.telemetry_json,
                                    args.telemetry_budget_pct)
        if rc or (not args.baseline and not args.colocation_json):
            return rc
    if args.colocation_json:
        rc = check_colocation(args.colocation_json,
                              args.min_pairs, args.min_designs)
        if rc or not args.baseline:
            return rc
    elif not args.baseline:
        if not args.telemetry_json:
            ap.error("--baseline/--current, --colocation-json, "
                     "or --telemetry-json is required")
        return rc

    base = load_json(args.baseline)
    currents = [load_json(path) for path in args.current]

    # Mixed scales are not comparable: the design-vs-baseline
    # ratios shift systematically with the window scale, which
    # would silently miscalibrate the tolerance.
    for path, c in zip(args.current, currents):
        if c.get("scale") != base.get("scale"):
            print(f"scale mismatch: baseline {args.baseline} is "
                  f"scale {base.get('scale')}, {path} is scale "
                  f"{c.get('scale')} — compare like with like "
                  f"(the committed quick-scale baseline is "
                  f"BENCH_engine_quick.json)")
            return 1

    base_designs = base["designs"]
    common = [d for d in base_designs
              if all(d in c["designs"] for c in currents)]
    if not common:
        print("no common designs between baseline and current")
        return 1

    def metric(designs, name):
        ns = ns_per_record(designs[name])
        if args.relative:
            # Normalize within one run: both numbers saw the same
            # machine conditions, so the ratio is coherent.
            ref = ns_per_record(designs["baseline"])
            return ns / ref if ref > 0 else 0.0
        return ns

    def cur_metric(name):
        # Minimum over the repeat runs (computed per run, so a
        # noise spike in one run cannot skew another's ratio).
        return min(metric(c["designs"], name) for c in currents)

    if args.relative and "baseline" not in common:
        print("--relative needs the 'baseline' design in both files")
        return 1

    unit = "x baseline" if args.relative else "ns/record"
    print(f"engine regression guard ({unit}, "
          f"tolerance {100 * args.tolerance:.0f}%)")
    print(f"  {'design':<12} {'committed':>10} {'current':>10} "
          f"{'ratio':>7}")
    failed = []
    for name in common:
        b = metric(base_designs, name)
        c = cur_metric(name)
        ratio = c / b if b > 0 else 0.0
        flag = ""
        if ratio > 1.0 + args.tolerance:
            failed.append(name)
            flag = "  << REGRESSION"
        print(f"  {name:<12} {b:>10.2f} {c:>10.2f} "
              f"{ratio:>6.2f}x{flag}")

    if failed:
        print(f"FAIL: ns/record regressed >"
              f"{100 * args.tolerance:.0f}% for: "
              f"{', '.join(failed)}")
        return 1
    print("OK: no design regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
