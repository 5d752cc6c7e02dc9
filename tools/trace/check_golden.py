#!/usr/bin/env python3
"""Golden-trace regression gate.

Runs the golden_trace_main fixture (a fixed-seed traced run), then holds two
invariants at --tolerance (default 1e-9):

  1. summarize_trace.py recomputes, from the exported trace alone, the same
     five-way breakdown the run accounted internally (PerfMonitor buckets);
  2. that breakdown matches the committed golden summary.

Without --golden only invariant 1 is checked.  --method passes the
fixture its parallelization method (rd, sd or fd).

--update rewrites the golden from the current run (commit the diff when the
change is an intended accounting/physics change, never to paper over an
unexplained drift).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--binary", required=True,
                    help="path to the golden_trace_main executable")
    ap.add_argument("--summarizer", required=True,
                    help="path to summarize_trace.py")
    ap.add_argument("--golden",
                    help="committed golden summary JSON (omit to check "
                         "invariant 1 only)")
    ap.add_argument("--method", default="rd", choices=("rd", "sd", "fd"),
                    help="the fixture's parallelization method")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden from the current run")
    ap.add_argument("--tolerance", type=float, default=1e-9)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.json")
        buckets = os.path.join(tmp, "buckets.json")
        summary = os.path.join(tmp, "summary.json")
        subprocess.run([args.binary, trace, buckets, args.method],
                       check=True)
        r = subprocess.run([sys.executable, args.summarizer, trace,
                            "--out", summary, "--compare", buckets,
                            "--tolerance", str(args.tolerance)])
        if r.returncode != 0:
            print("FAIL: trace breakdown disagrees with the run's own "
                  "PerfMonitor accounting", file=sys.stderr)
            return 1
        with open(summary, encoding="utf-8") as f:
            got = json.load(f)

    if args.golden is None:
        if args.update:
            ap.error("--update needs --golden")
        print("trace breakdown matches the run's own accounting")
        return 0
    if args.update:
        with open(args.golden, "w", encoding="utf-8") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"updated {args.golden}")
        return 0

    with open(args.golden, encoding="utf-8") as f:
        want = json.load(f)
    bad = []
    for k in sorted(set(got) | set(want)):
        g, w = got.get(k, 0.0), want.get(k, 0.0)
        if abs(g - w) > args.tolerance:
            bad.append(f"  {k}: got={g!r} golden={w!r}")
    if bad:
        print("\n".join(bad), file=sys.stderr)
        print("FAIL: summary drifted from the committed golden (rerun with "
              "--update only for intended accounting changes)",
              file=sys.stderr)
        return 1
    print("golden trace summary matches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
