#!/usr/bin/env python3
"""Compare two sets of perfbench results, refusing unlike settings.

  python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result directories (.bench_build/perfbench-results
of two checkouts) or single result files. Records are grouped by
workload and trace mode. Two groups are compared only when every
setting that changes the measured work or host matches: scale,
--jobs, run seconds, nproc, compiler, build type and the set of
seeds. Otherwise the comparison is refused (exit 2) and the
differing setting named: a silent change of scale is how a
trajectory of numbers stops meaning anything.

For each metric it prints both medians, the change, and the base's
spread (quartile distance over median); with BENCHMARK.json beside
perfbench/ it flags end-to-end metrics worse by more than their
bound. It also reports whether the sim_digest of every seed
matched, i.e. whether the simulated statistics are unchanged.
"""

import json
import os
import statistics
import sys

SETTINGS = ["scale", "jobs", "run_seconds", "nproc", "compiler",
            "build_type"]


def load(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")]
             if os.path.isdir(path) else [path])
    groups = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        p = rec["provenance"]
        groups.setdefault((p["workload"], p["trace"]), []).append(rec)
    return groups


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def bounds():
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(os.path.dirname(here), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: (m["bound"], m["better"])
            for m in spec["end_to_end"]}


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    base, change = load(sys.argv[1]), load(sys.argv[2])
    limits = bounds()
    refused = False
    for key in sorted(set(base) ^ set(change)):
        print(f"{key[0]} trace={key[1]}: in one result set only, "
              f"not compared")
    for key in sorted(set(base) & set(change)):
        a, b = base[key], change[key]
        bad = False
        for name in SETTINGS:
            va = {r["provenance"][name] for r in a}
            vb = {r["provenance"][name] for r in b}
            if va != vb:
                print(f"REFUSED {key}: {name} differs: {sorted(va)} "
                      f"vs {sorted(vb)}")
                bad = True
        seeds_a = {r["provenance"]["seed"]: r for r in a}
        seeds_b = {r["provenance"]["seed"]: r for r in b}
        if set(seeds_a) != set(seeds_b):
            print(f"REFUSED {key}: seeds differ: {sorted(seeds_a)} vs "
                  f"{sorted(seeds_b)}")
            bad = True
        refused |= bad
        if bad:
            continue
        print(f"{key[0]} trace={key[1]} ({len(a)} vs {len(b)} runs)")
        for m in sorted(a[0]["metrics"]):
            va = [r["metrics"][m] for r in a]
            vb = [r["metrics"][m] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            delta = (mb - ma) / abs(ma) if ma else 0.0
            flag = ""
            if m in limits:
                bound, better = limits[m]
                worse = delta if better == "lower" else -delta
                if worse > bound:
                    flag = "  REGRESSION"
                elif abs(delta) <= spread(va):
                    flag = "  (within base spread)"
            print(f"  {m:34s} {ma:14.6g} -> {mb:14.6g} {delta:+8.2%}"
                  f"  base spread {spread(va):.2%}{flag}")
        same = [s for s in seeds_a
                if seeds_a[s]["sim_digest"] == seeds_b[s]["sim_digest"]]
        print(f"  sim_digest identical on {len(same)} of "
              f"{len(seeds_a)} seeds")
    return 2 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
