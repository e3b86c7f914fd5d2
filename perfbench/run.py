#!/usr/bin/env python3
"""Simulator benchmark: the host cost of producing the paper's grids.

One workload per invocation, run from the root of a source checkout:

  python3 perfbench/run.py --workload fig06_exact --seed 42 \
      --seconds 30 --trace 0

Builds `sweep` and the benchmark's serial tracer from source (into
$CARGO_TARGET_DIR or .bench_build), then

  --trace 0  repeats the untraced `sweep` run (--jobs 2) until
             --seconds of sweep wall time are measured and reports
             the median of each end-to-end metric over the runs;
  --trace 1  runs `sweep` once more (journaling every point) and
             the serial traced pass (layer_trace) over the same
             points and seed, and reports the per-layer metrics.

Every run checks the outputs (exit code, failed points, point
counts, a sim_digest that must repeat, telemetry conservation and
journal completeness on colocation, bit-identity of the traced
pass). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Settings, provenance and
the digest go to a results file that perfbench/compare.py reads.
See perfbench/NOTES.md for the workloads and metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

SCALE = 0.05
JOBS = 2
MIN_REPS = 3
# Wall-clock budget of one invocation after the build; a run must
# end within 180 s.
RUN_BUDGET_S = 165.0
BUILD_BUDGET_S = 850.0

WORKLOADS = {
    # The paper's headline grid: 5 designs x 4 capacities x 6
    # workloads; the timed OoO/MLP loop dominates.
    "fig06_exact": {"filter": "fig06", "points": 102, "flags": []},
    # The same grid sampled: trace/artifact builds, the span pass
    # and pod construction dominate instead of the timed loop.
    "fig06_sampled": {"filter": "fig06", "points": 102,
                      "flags": ["--sample-mode"]},
    # The only path through in-band warmup, tenants, alloy and
    # banshee, telemetry capture and per-point journal writes.
    "colocation_observed": {"filter": "colocation", "points": 56,
                            "flags": ["--histograms",
                                      "--design-probes",
                                      "--miss-attribution", "64"],
                            "observed": True},
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "measure_krec_per_s": "krec/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workload.gen_s": "s",
    "workload.gen_mrec_per_s": "Mrec/s",
    "mem.cache_hit_share": "ratio",
    "mem.cache_waits": "count",
    "mem.wait_s": "s",
    "mem.cache_peak_mb": "MB",
    "mem.acquire_self_s": "s",
    "mem.replay_mrec_per_s": "Mrec/s",
    "cache.hier_pass_s": "s",
    "cache.hier_ns_per_rec": "ns/rec",
    "cache.post_l2_ops_per_krec": "ops/krec",
    "cache.span_pass_s": "s",
    "dramcache.warm_replay_s": "s",
    "dramcache.warm_ns_per_op": "ns/op",
    "dramcache.hit_ratio.block": "ratio",
    "dramcache.hit_ratio.page": "ratio",
    "dramcache.hit_ratio.footprint": "ratio",
    "dramcache.fetch_accuracy": "ratio",
    "dram.offchip_bytes_per_rec": "B/rec",
    "dram.stacked_bytes_per_rec": "B/rec",
    "dram.acts_per_krec": "acts/krec",
    "sim.pod_build_s": "s",
    "sim.timed_ns_per_rec": "ns/rec",
    "sim.timed_ns_per_rec.baseline": "ns/rec",
    "sim.timed_ns_per_rec.block": "ns/rec",
    "sim.timed_ns_per_rec.page": "ns/rec",
    "sim.timed_ns_per_rec.footprint": "ns/rec",
    "sim.timed_ns_per_rec.ideal": "ns/rec",
    "sim.sampled_s": "s",
    "sim.warm_loop_ns_per_rec": "ns/rec",
    "sim.parallel_efficiency": "ratio",
    "sim.journal_append_ms": "ms",
    "sim.journal_load_s": "s",
    "telemetry.render_s": "s",
    "telemetry.interval_rows": "count",
    "telemetry.probe_columns": "count",
    "telemetry.heatmap_points": "count",
    "trace.wall_s": "s",
    "trace.span_coverage": "ratio",
    "trace.untraced_cpu_s": "s",
}

# Files of the repository the benchmark builds and calls.
REQUIRED = ["CMakeLists.txt", "src", "bench/sweep.cc",
            "scripts/check_telemetry.py"]


class CheckFailed(Exception):
    """A failure that leaves nothing to report (no result files)."""


# Output checks that failed; any entry makes the run incorrect.
PROBLEMS = []


def check(cond, what):
    if not cond:
        PROBLEMS.append(what)
        sys.stderr.write(f"perfbench: CHECK FAILED: {what}\n")
    return cond


def measure_records():
    # measureRecords() in src/sim/sweep.cc.
    return int(8.0e6 * SCALE)


def run_child(cmd, log_path, timeout, cwd):
    """Run cmd to completion; return (exit code, wall s, cpu s,
    peak RSS MB). The child is killed if it outlives timeout."""
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log,
                                stderr=subprocess.STDOUT, cwd=cwd)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0)


def tail(path, lines=20):
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def cmake_cache(bdir):
    out = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    k, v = line.rstrip("\n").split("=", 1)
                    out[k.split(":", 1)[0]] = v
    except OSError:
        pass
    return out


def build(root, bdir):
    """Configure (once) and build sweep + layer_trace."""
    src = os.path.join(root, "perfbench")
    if cmake_cache(bdir).get("CMAKE_HOME_DIRECTORY") not in (None, src):
        shutil.rmtree(bdir)  # a build of another checkout
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    deadline = time.monotonic() + BUILD_BUDGET_S
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc = run_child(cmd, log, BUILD_BUDGET_S, root)[0]
        if rc != 0:
            sys.stderr.write(tail(log))
            raise CheckFailed("cmake configure failed")
    rc = run_child(["cmake", "--build", bdir, "--target", "sweep",
                    "layer_trace", "-j", str(os.cpu_count() or 2)],
                   log, deadline - time.monotonic(), root)[0]
    if rc != 0:
        sys.stderr.write(tail(log))
        raise CheckFailed("build failed")
    return (os.path.join(bdir, "fpc", "sweep"),
            os.path.join(bdir, "layer_trace"))


def provenance(root, bdir, args):
    cache = cmake_cache(bdir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        compiler = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    rev = "none (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = got.stdout.strip() or rev
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "bench", "perfbench"]:
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base)
            for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, root).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return {"workload": args.workload, "trace": args.trace,
            "seed": args.seed, "run_seconds": args.seconds,
            "scale": SCALE, "jobs": JOBS, "nproc": os.cpu_count(),
            "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "git_rev": rev, "source_sha256": h.hexdigest()}


def sweep_args(wl, seed, out, journal):
    """sweep flags of one run whose artifacts go under out/."""
    args = ["--filter", wl["filter"], "--scale", str(SCALE),
            "--seed", str(seed)] + wl["flags"]
    if journal:
        args += ["--journal", os.path.join(out, "journal")]
    if wl.get("observed"):
        args += ["--interval-records", str(measure_records() // 16),
                 "--timeseries-out", os.path.join(out, "ts.json"),
                 "--heatmap-out", os.path.join(out, "heatmap.json")]
    return args


def sim_digest(report):
    """Hash of every point's simulated output (execution detail —
    timing, attempts — excluded)."""
    points = []
    for name in sorted(report["experiments"]):
        for p in report["experiments"][name]["points"]:
            points.append({k: v for k, v in p.items()
                           if k not in ("timing", "attempts")})
    blob = json.dumps(points, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def report_points(report):
    return [p for e in report["experiments"].values()
            for p in e["points"]]


def check_report(wl, name, report):
    """Point count, failures and per-mode shape of a merged report."""
    points = report_points(report)
    failed = sum(1 for p in points if p.get("failed"))
    check(len(points) == wl["points"],
          f"{len(points)} points, expected {wl['points']}")
    check(failed == 0, f"{failed} failed point(s)")
    for p in points:
        if p.get("failed"):
            continue
        if name == "fig06_sampled":
            check(p.get("extra", {}).get("sampled_intervals", 0) >= 1,
                  f"{p['key']} did not run sampled")
        else:
            check(p["metrics"]["trace_records"] == measure_records(),
                  f"{p['key']} measured "
                  f"{p['metrics']['trace_records']} records")
        check(0 < p["metrics"]["ipc"], f"{p['key']} has zero IPC")
    return len(points), failed


def check_observed(root, tracer, out, report_path, expected):
    """colocation_observed artifacts: interval conservation and v4
    journal shape (scripts/check_telemetry.py), and every point
    readable back through SweepJournal::load."""
    log = os.path.join(out, "check_telemetry.log")
    rc = run_child([sys.executable,
                    os.path.join(root, "scripts", "check_telemetry.py"),
                    "--timeseries", os.path.join(out, "ts.json"),
                    "--report", report_path,
                    "--journal", os.path.join(out, "journal")],
                   log, 60, root)[0]
    check(rc == 0, "check_telemetry.py failed:\n" + tail(log))
    got = subprocess.run([tracer, "--count-journal",
                          os.path.join(out, "journal")],
                         capture_output=True, text=True, timeout=60)
    check(got.returncode == 0 and got.stdout.strip() == str(expected),
          f"SweepJournal::load read {got.stdout.strip()!r} entries, "
          f"expected {expected}")


def run_sweep(root, sweep, wl, seed, out, journal, timeout):
    """One untraced sweep run; returns its stats and report."""
    if os.path.exists(out):
        shutil.rmtree(out)
    os.makedirs(out)
    report_path = os.path.join(out, "report.json")
    time_path = os.path.join(out, "time.json")
    cmd = [sweep] + sweep_args(wl, seed, out, journal) + [
        "--jobs", str(JOBS), "--no-report", "--out", report_path,
        "--time-out", time_path]
    rc, wall, cpu, rss = run_child(cmd, os.path.join(out, "sweep.log"),
                                   timeout, root)
    # Exit 3 means failed points; the report still holds the rest.
    if rc not in (0, 3) or not os.path.exists(report_path):
        raise CheckFailed(f"sweep exited {rc}:\n" +
                          tail(os.path.join(out, "sweep.log")))
    check(rc == 0, f"sweep exited {rc}")
    with open(report_path) as f:
        report = json.load(f)
    with open(time_path) as f:
        timing = json.load(f)
    points = timing["points"]
    measure_s = sum(p["timing"]["measure_s"] for p in points)
    stats = {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
        "setup_s": timing["cache"]["build_seconds"],
        "measure_krec_per_s":
            len(points) * measure_records() / 1e3 / measure_s,
        "points_s": sum(p["timing"]["trace_s"] + p["timing"]["warmup_s"]
                        + p["timing"]["measure_s"] for p in points),
        "wait_s": sum(p["timing"]["trace_s"] for p in points
                      if not p["timing"]["generated_trace"]),
        "cache": timing["cache"],
    }
    return stats, report, report_path


def untraced(root, sweep, tracer, args, wl, work, t_start):
    """--trace 0: repeat the sweep for --seconds; medians."""
    reps, digests = [], []
    attempted = failed = 0
    measured = 0.0
    while len(reps) < MIN_REPS or measured < args.seconds:
        left = RUN_BUDGET_S - (time.monotonic() - t_start)
        if reps and left < 1.5 * max(r["wall_s"] for r in reps):
            break
        out = os.path.join(work, f"rep{len(reps)}")
        stats, report, report_path = run_sweep(
            root, sweep, wl, args.seed, out, wl.get("observed"), left)
        n, f = check_report(wl, args.workload, report)
        attempted += n
        failed += f
        if wl.get("observed"):
            check_observed(root, tracer, out, report_path, n)
        digests.append(sim_digest(report))
        check(digests[-1] == digests[0],
              "sim_digest changed between repetitions")
        reps.append(stats)
        measured += stats["wall_s"]
        print(f"rep {len(reps)}: " + ", ".join(
            f"{k} {stats[k]:.4f}" for k in END_TO_END), flush=True)
        if len(reps) > 1:
            shutil.rmtree(out)
    check(len(reps) >= MIN_REPS, f"only {len(reps)} repetition(s) fit "
          f"the {RUN_BUDGET_S:.0f} s budget")
    metrics = {k: statistics.median(r[k] for r in reps)
               for k in END_TO_END}
    return metrics, digests[0], attempted, failed, [
        {k: r[k] for k in END_TO_END} for r in reps]


def traced(root, sweep, tracer, args, wl, work, t_start):
    """--trace 1: reference sweep + serial traced pass."""
    left = RUN_BUDGET_S - (time.monotonic() - t_start)
    ref_out = os.path.join(work, "reference")
    stats, report, report_path = run_sweep(root, sweep, wl, args.seed,
                                           ref_out, True, left)
    n, f = check_report(wl, args.workload, report)
    if wl.get("observed"):
        check_observed(root, tracer, ref_out, report_path, n)
    digest = sim_digest(report)

    out = os.path.join(work, "traced")
    os.makedirs(out)
    cmd = [tracer] + sweep_args(wl, args.seed, out, True) + [
        "--ref-journal", os.path.join(ref_out, "journal"),
        "--out-dir", out]
    left = RUN_BUDGET_S - (time.monotonic() - t_start)
    log = os.path.join(out, "layer_trace.log")
    rc = run_child(cmd, log, left, root)[0]
    if not os.path.exists(os.path.join(out, "layers.json")):
        raise CheckFailed(f"traced pass exited {rc}:\n" + tail(log))
    check(rc == 0, "traced pass differs from sweep:\n" + tail(log))
    with open(os.path.join(out, "layers.json")) as fh:
        layers = json.load(fh)
    with open(os.path.join(out, "report.json")) as fh:
        traced_report = json.load(fh)
    check(layers["mismatches"] == 0 and layers["points"] == n,
          "traced pass does not match the sweep journal")
    check(layers["journal_entries"] == n,
          f"SweepJournal::load read {layers['journal_entries']} of "
          f"{n} traced entries")
    check(sim_digest(traced_report) == digest,
          "traced sim_digest differs from the untraced sweep")
    if wl.get("observed"):
        check_observed(root, tracer, out,
                       os.path.join(out, "report.json"), n)

    metrics = dict(layers["metrics"])
    metrics["mem.cache_waits"] = float(stats["cache"]["waits"])
    metrics["mem.wait_s"] = stats["wait_s"]
    metrics["mem.cache_peak_mb"] = stats["cache"]["peak_bytes"] / 2**20
    metrics["sim.parallel_efficiency"] = (
        stats["points_s"] / (stats["wall_s"] * JOBS))
    metrics["trace.untraced_cpu_s"] = stats["cpu_s"]
    return metrics, digest, 2 * n, f + layers["mismatches"], [
        {k: stats[k] for k in END_TO_END}]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    missing = [p for p in REQUIRED
               if not os.path.exists(os.path.join(root, p))]
    if missing:
        sys.stderr.write("perfbench: not a source checkout, missing "
                         + ", ".join(missing) + "\n")
        return 2

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(root, base)
    bdir = os.path.join(base, "perfbench")
    work = os.path.join(base, "work", args.workload)
    try:
        sweep, tracer = build(root, bdir)
        prov = provenance(root, bdir, args)
        print("provenance: " + json.dumps(prov, sort_keys=True),
              flush=True)
        if os.path.exists(work):
            shutil.rmtree(work)
        os.makedirs(work)
        wl = WORKLOADS[args.workload]
        run = traced if args.trace else untraced
        metrics, digest, attempted, failed, reps = run(
            root, sweep, tracer, args, wl, work, time.monotonic())
    except (CheckFailed, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        sys.stderr.write(f"perfbench: FAILED: {e}\n")
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    mismatch = sorted(set(units) ^ set(metrics))
    if mismatch:
        sys.stderr.write(f"perfbench: metric set mismatch: {mismatch}\n")
        return 1
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:14.6f} {unit}")
    print(f"sim_digest {digest}")
    correct = not PROBLEMS

    results = os.path.join(base, "perfbench-results")
    os.makedirs(results, exist_ok=True)
    record = {"provenance": prov, "sim_digest": digest,
              "repetitions": reps, "correct": correct,
              "problems": PROBLEMS,
              "attempted": attempted, "failed": failed,
              "metrics": metrics}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{stamp}-{os.getpid()}.json")
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
