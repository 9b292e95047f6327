#!/usr/bin/env python3
"""Build and run the gcsafe repository benchmark.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                                --trace 0|1

Builds perfbench/ (a CMake package compiling the repository's src/) into
.bench_build/ at the root of the checkout, runs one workload (or all three
with --workload all, one process each) and prints every metric by name
with its unit, then, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer
list. Exits nonzero when an output check fails. perfbench/README.md
describes the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
REFERENCE = BENCH_DIR / "reference_counts.json"
WORKLOADS = ["gc_adversarial", "compile_verify", "serve_mix"]
# One run must end within 180 s; the program stops well before.
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        die(f"no gcsafe sources under {ROOT}; run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake is not installed")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                           stdout=sys.stderr)
    if built.returncode != 0:
        die("build failed")
    return BUILD_DIR / "gcsafe-perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, args):
    """Runs one workload process; returns its parsed result line."""
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(TRACE_DIR), "--reference", str(REFERENCE)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"{workload}: exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    for reason in result.pop("failures", []):
        print(f"perfbench: {workload}: FAILED: {reason}", file=sys.stderr)
    if proc.returncode != 0 and result["correct"]:
        die(f"{workload}: exited {proc.returncode}")

    wanted = expected_metrics(args.trace)
    got = result["metrics"]
    if sorted(got) != sorted(wanted):
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        print(f"perfbench: {workload}: metrics differ from BENCHMARK.json "
              f"(missing {missing}, unlisted {extra})", file=sys.stderr)
        result["correct"] = False
    result["metrics"] = {name: got[name] for name in wanted if name in got}
    return result


def print_table(workload, result):
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:34s} {m['value']:16.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0
    print(f"{workload:15s} {'attempted':34s} {result['attempted']:16d} ops")
    print(f"{workload:15s} {'failed_ratio':34s} {ratio:16.6g} ratio")
    print(f"{workload:15s} {'correct':34s} {str(result['correct']):>16s}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    binary = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run_workload(binary, w, args) for w in names}
    for w, r in results.items():
        print_table(w, r)

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    else:
        r = results[args.workload]
        final = {key: r[key]
                 for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
