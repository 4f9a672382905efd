#!/usr/bin/env python3
"""Steadiness tool: run one workload K times and summarize every metric.

  python3 perfbench/steady.py --workload sched_stream --runs 10 [--seconds 10]
                              [--first-seed 1] [--same-seed]

Each run gets its own seed (first-seed, first-seed+1, ...), or with
--same-seed the first seed every time, which isolates host noise from the
seed's effect on the inputs. For each end-to-end metric (untraced runs) it
prints the median, the first and third quartiles (statistics.quantiles,
n=4), the interquartile spread (q3-q1)/median, the range (max-min)/median,
the bound from BENCHMARK.json and whether the interquartile spread stays
below a third of it. Exits 2 when one does not.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="give every run the first seed (host noise only)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, text=True, stdout=subprocess.PIPE, timeout=900)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        steal = json.loads(lines[-2])["accounting"].get("host_steal_frac", 0)
        if done.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {done.returncode})")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: ok, attempted={result['attempted']}, "
              f"host steal {steal:.3f}", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, {seconds} s each")
    print(f"{'metric':34s} {'unit':8s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}")
    steady = True
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            ok = iqr < bound / 3
            steady &= ok
            mark = "" if ok else "  <-- spread above bound/3"
        print(f"{name:34s} {units[name]:8s} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {iqr:8.4f} {rng:8.4f} "
              f"{'' if bound is None else bound:>6}{mark}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
