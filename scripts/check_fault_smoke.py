#!/usr/bin/env python3
"""Validate a fault-injected sweep report against a clean run.

CI's fault-smoke job runs the sweep twice: once clean and once
under a deterministic fault plan (transient trace-build failures
that retries absorb, plus one permanently-failing point). This
script asserts the graceful-degradation contract on the pair:

  * both reports parse as JSON (failure records embed exception
    text, so this also exercises control-character escaping);
  * the permanently-failing point appears as a structured failure
    record carrying "failed"/"error"/"attempts"/"elapsed_s";
  * every other point carries metrics identical to the clean run
    once per-execution fields ("attempts", "elapsed_s", "timing")
    are stripped — retries may change how often a point ran, but
    never what it measured.

Usage:
  check_fault_smoke.py --clean clean.json --faulted faulted.json \
      --expect-failed KEY [--expect-error SUBSTRING]
"""

import argparse
import sys

from counters import report_points


def strip_execution_detail(point):
    """Drop fields a retry or timing run may legitimately change."""
    return {
        k: v
        for k, v in point.items()
        if k not in ("attempts", "elapsed_s", "timing")
    }


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--clean", required=True,
                    help="report of the fault-free run")
    ap.add_argument("--faulted", required=True,
                    help="report of the fault-injected run")
    ap.add_argument("--expect-failed", required=True,
                    action="append", dest="expect_failed",
                    help="point key that must carry a failure "
                         "record (repeatable)")
    ap.add_argument("--expect-error", default="injected",
                    help="substring every failure record's error "
                         "must contain")
    args = ap.parse_args()

    clean = report_points(args.clean, keep_failed=True)
    faulted = report_points(args.faulted, keep_failed=True)
    if set(clean) != set(faulted):
        only_clean = sorted(set(clean) - set(faulted))[:5]
        only_faulted = sorted(set(faulted) - set(clean))[:5]
        raise SystemExit(
            "key sets differ between runs: "
            f"only-clean={only_clean} only-faulted={only_faulted}")

    expected_failed = set(args.expect_failed)
    failures = {k for k, p in faulted.items() if p.get("failed")}
    if failures != expected_failed:
        raise SystemExit(
            f"failed-point mismatch: expected {sorted(expected_failed)}, "
            f"report has {sorted(failures)}")

    for key in sorted(expected_failed):
        record = faulted[key]
        for field in ("error", "attempts", "elapsed_s"):
            if field not in record:
                raise SystemExit(
                    f"failure record {key} missing '{field}'")
        if args.expect_error not in record["error"]:
            raise SystemExit(
                f"failure record {key}: error {record['error']!r} "
                f"does not contain {args.expect_error!r}")
        if clean[key].get("failed"):
            raise SystemExit(
                f"{key} also failed in the clean run")

    mismatched = []
    retried = 0
    for key, point in faulted.items():
        if key in expected_failed:
            continue
        retried += 1 if point.get("attempts", 1) > 1 else 0
        if strip_execution_detail(point) != \
                strip_execution_detail(clean[key]):
            mismatched.append(key)
    if mismatched:
        raise SystemExit(
            "metrics differ from the clean run for: "
            f"{mismatched[:10]}")

    print(f"fault-smoke OK: {len(faulted)} point(s), "
          f"{len(expected_failed)} expected failure record(s), "
          f"{retried} retried point(s), all surviving metrics "
          f"identical to the clean run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
