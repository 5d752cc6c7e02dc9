#!/usr/bin/env python3
"""End-to-end host-time benchmark of OpalSim's paper workloads.

Builds bench_e2e from source (into .bench_build/ at the repository root),
runs every workload in a child process of its own with a scrubbed
environment, checks the outputs and prints every metric as
``workload metric value unit``.  See bench/e2e/README.md.

One workload, one mode (the last stdout line is the result as JSON):

    python3 bench/e2e/run_e2e.py --workload large_nocut --seed 7 \\
        --seconds 20 --trace 0

Every workload, untraced then traced, written to a BENCH_e2e.json:

    python3 bench/e2e/run_e2e.py --seed 42 --out BENCH_e2e.json

Two such files against the bounds in BENCHMARK.json:

    python3 bench/e2e/run_e2e.py --compare A.json B.json

Exit status: 0 when every check passed, 1 on a failed check, a crashed
child or a ``worse``/digest mismatch in --compare, 2 when the benchmark
cannot be built.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("calib_sweep", "large_nocut", "medium_cut_full", "small_lossy")
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)


def cpus() -> int:
    return len(os.sched_getaffinity(0))


def build() -> Path:
    """Configures and builds bench_e2e (half a second when up to date);
    exits 2 on failure."""
    steps = [["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD_DIR)],
             ["cmake", "--build", str(BUILD_DIR), "--target", "bench_e2e",
              "-j", str(min(4, cpus()))]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"run_e2e: build failed: {e}")
            sys.exit(2)
        if done.returncode != 0:
            log(f"run_e2e: build failed: {' '.join(cmd)}")
            sys.exit(2)
    return BUILD_DIR / "bench_e2e"


def child_env() -> dict[str, str]:
    """Production defaults: no OPALSIM_* knob survives except the pool
    size.  parallel_for_indexed runs jobs on every worker plus the calling
    thread: two workers put the sweep on three threads, leaving a CPU of a
    four-CPU host to the rest of the system (on a shared host the sweep's
    spread between runs reached 44% with four threads, 2-10% with three).
    Below four CPUs the one-worker pool runs the sweep inline."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPALSIM_")}
    env["OPALSIM_THREADS"] = str(max(1, min(3, cpus() - 1) - 1))
    return env


def run_child(binary: Path, workload: str, seed: int, seconds: float,
              trace: bool, scale: float, workdir: Path,
              check_f4: bool) -> dict:
    """Runs one workload in its own process; returns its result object.  A
    child that crashes or prints no result counts as one failed attempt."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--scale", repr(scale), "--workdir", str(workdir)]
    if check_f4:
        cmd.append("--check-f4")
    try:
        done = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
    except (OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log(f"run_e2e: {workload}: {e}")
        result = None
    if result is None:
        return {"workload": workload, "attempted": 1, "failed": 1,
                "failures": ["child produced no result"], "metrics": {}}
    if done.returncode != 0 and result["failed"] == 0:
        result["failed"] = 1
        result["failures"].append(f"child exited {done.returncode}")
    for failure in result["failures"]:
        log(f"run_e2e: {workload}: FAILED: {failure}")
    return result


def print_metrics(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{result['workload']} {name} {m['value']:.9g} {m['unit']}")


def host_info(binary: Path) -> dict:
    cache = {}
    cache_file = binary.parent / "CMakeCache.txt"
    if cache_file.exists():
        for line in cache_file.read_text().splitlines():
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=False).stdout
        compiler = version.splitlines()[0] if version else compiler
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=False).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"host": platform.node(), "machine": platform.machine(),
            "nproc": cpus(),
            "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_sha": sha}


def suite(args: argparse.Namespace, binary: Path) -> int:
    """Every workload, untraced then traced; optional BENCH_e2e.json."""
    doc = {"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
           "host": host_info(binary), "workloads": {}}
    failed = 0
    for w in WORKLOADS:
        entry: dict = {"attempted": 0, "failed": 0, "failures": [],
                       "metrics": {}}
        for trace in (False, True):
            check_f4 = (w == "calib_sweep" and not trace and args.seed == 42
                        and args.scale == 100)
            r = run_child(binary, w, args.seed, args.seconds, trace,
                          args.scale, args.workdir, check_f4)
            print_metrics(r)
            for key in ("attempted", "failed"):
                entry[key] += r[key]
            entry["failures"] += r["failures"]
            entry["metrics"].update(r["metrics"])
            for key in ("digest", "reps", "threads", "scale_pct"):
                if key in r and not trace:
                    entry[key] = r[key]
        entry["fail_frac"] = entry["failed"] / max(1, entry["attempted"])
        print(f"{w} fail_frac {entry['fail_frac']:.9g} ratio")
        print(f"{w} digest {entry.get('digest', 'none')}")
        doc["workloads"][w] = entry
        failed += entry["failed"]
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        log(f"run_e2e: wrote {args.out}")
    return 1 if failed else 0


def one_workload(args: argparse.Namespace, binary: Path) -> int:
    r = run_child(binary, args.workload, args.seed, args.seconds,
                  args.trace == 1, args.scale, args.workdir, False)
    print_metrics(r)
    correct = r["failed"] == 0 and bool(r["metrics"])
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, r["attempted"]),
        "failed": r["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in r["metrics"].items()},
    }))
    return 0 if correct else 1


def compare(path_a: str, path_b: str) -> int:
    """Each end-to-end metric of each workload: ok, worse, or unresolved
    when either side's run-to-run spread (IQR / median) exceeds the bound.
    Digests must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    bad = 0
    print(f"{'workload':16} {'metric':12} {'median A':>12} {'IQR A':>7} "
          f"{'median B':>12} {'IQR B':>7} {'bound':>6}  verdict")
    for w in WORKLOADS:
        wa, wb = a["workloads"].get(w), b["workloads"].get(w)
        if wa is None or wb is None:
            print(f"{w:16} missing from one side")
            bad += 1
            continue
        if wa.get("digest") != wb.get("digest"):
            print(f"{w:16} digest mismatch {wa.get('digest')} "
                  f"!= {wb.get('digest')}")
            bad += 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ma, mb = wa["metrics"].get(name), wb["metrics"].get(name)
            if ma is None or mb is None:
                print(f"{w:16} {name:12} missing")
                bad += 1
                continue

            def spread(m: dict) -> float:
                if "p25" not in m:
                    return 0.0
                return (m["p75"] - m["p25"]) / m["value"]

            sa, sb = spread(ma), spread(mb)
            change = (mb["value"] - ma["value"]) / ma["value"]
            if metric["better"] == "higher":
                change = -change
            if max(sa, sb) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                bad += 1
            else:
                verdict = "ok"
            print(f"{w:16} {name:12} {ma['value']:12.6g} {sa:7.3f} "
                  f"{mb['value']:12.6g} {sb:7.3f} {bound:6.2f}  {verdict}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload in one mode (default: all)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time per workload and mode")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 reports the per-layer metrics")
    ap.add_argument("--scale", type=float, default=100.0,
                    help="molecule size in percent (smoke test: 10)")
    ap.add_argument("--out", help="write the suite's results here")
    ap.add_argument("--bin", type=Path,
                    help="use this bench_e2e instead of building one")
    ap.add_argument("--workdir", type=Path, default=BUILD_DIR / "e2e-work",
                    help="where children write traces and spans")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    binary = args.bin if args.bin else build()
    if args.workload:
        return one_workload(args, binary)
    return suite(args, binary)


if __name__ == "__main__":
    sys.exit(main())
