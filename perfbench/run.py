#!/usr/bin/env python3
"""prcost benchmark entry point.

Builds the harness (perfbench/CMakeLists.txt, which compiles the repo's
src/ libraries) into .bench_build/ and runs one workload:

  python3 perfbench/run.py --workload serve_lookup --seed 1 --seconds 30 \
      --trace 0

The harness's stdout passes through unchanged; its last line is the result
object ({"correct", "attempted", "failed", "metrics"}). Build output goes to
stderr. Exits non-zero when the build fails, the sources are missing, or
any answer fails its check.

  python3 perfbench/run.py --selfcheck

runs every workload at toy size, untraced and traced, with all answer
checks on, and verifies each result line against BENCHMARK.json.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
WORK_DIR = ROOT / ".bench_build" / "work"
HARNESS = BUILD_DIR / "prbench"
WORKLOADS = ("serve_lookup", "design_cold", "sched_stream")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: prcost sources (src/) not found next to "
                 "perfbench/")
    stderr = sys.stderr.fileno()
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=stderr, timeout=300)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "prbench", "-j", "4"],
        check=True, stdout=stderr, timeout=840)


def run_harness(workload, seed, seconds, trace, toy=False, capture=False):
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.relpath(WORK_DIR, ROOT)]
    if toy:
        cmd.append("--toy")
    return subprocess.run(cmd, cwd=ROOT, timeout=170, text=True,
                          stdout=subprocess.PIPE if capture else None)


def selfcheck():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run_harness(workload, 1, 1, trace, toy=True, capture=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            names = set(result["metrics"])
            good = (done.returncode == 0 and result["correct"]
                    and result["failed"] == 0 and names == expected[trace])
            ok &= good
            print(f"{workload:13s} trace={trace} "
                  f"{'ok' if good else 'FAILED'} "
                  f"attempted={result['attempted']}"
                  + ("" if names == expected[trace] else
                     f" metrics differ: {sorted(names ^ expected[trace])}"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            parser.error("--workload is required")
        return run_harness(args.workload, args.seed, args.seconds,
                           args.trace).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
