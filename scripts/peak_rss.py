#!/usr/bin/env python3
"""Run a command and fail when its peak resident set exceeds a bound.

  python3 scripts/peak_rss.py --max-mb 300 -- ./build/sweep --quick ...

Prints the child's peak RSS (ru_maxrss from wait4, in MB) and exits
with the child's own status if it failed, 1 if the peak is over
--max-mb, else 0. The command's output passes through unchanged.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-mb", type=float, required=True,
                    help="fail when the peak RSS is above this")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the command, after --")
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")

    child = subprocess.Popen(cmd)
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    print(f"peak_rss_mb={peak_mb:.1f} bound={args.max_mb:.1f} "
          f"cmd={' '.join(cmd)}", file=sys.stderr)
    if code != 0:
        return code if code > 0 else 1
    if peak_mb > args.max_mb:
        print(f"::error::peak RSS {peak_mb:.1f} MB exceeds "
              f"{args.max_mb:.1f} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
