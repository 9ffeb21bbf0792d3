#!/usr/bin/env python3
"""Run the benchmark over a range of seeds and report its steadiness.

For every workload and end-to-end metric it prints the median of the
runs and their spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
A bound in BENCHMARK.json is only meaningful when the spread stays well
below it (the target is a third of the bound; setup_s is exempt). With
--sets 2 the seed range is run twice and the second set's median is
compared with the first's in the metric's "worse" direction.

Run from the repository root, e.g.

    python3 benchmark/spread.py --seeds 1-10 --sets 2 --json spread.json

Runs are sequential; each one is the BENCHMARK.json command with
--workload W --seed S --seconds <run_seconds> --trace 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - t0
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    try:
        result = json.loads(last)
    except ValueError:
        sys.exit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{proc.stdout[-3000:]}")
    return result, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--sets", type=int, default=1, help="times to run the range")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = seed_range(args.seeds)

    runs = {}  # (workload, set) -> list of metric dicts
    walls = {}
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                result, wall = run(bench, w, seed)
                runs.setdefault((w, s), []).append(result["metrics"])
                walls.setdefault(w, []).append(wall)
                print(f"  set {s + 1} {w:<6} seed {seed:<3} {wall:6.1f} s", file=sys.stderr)

    ok = True
    print(f"{'workload':<8} {'metric':<20} {'median':>14} {'spread':>8} "
          f"{'bound':>6}  {'2nd/1st':>8}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians, spreads = [], []
            for s in range(args.sets):
                values = [r[name]["value"] for r in runs[(w, s)]]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            worst = max(spreads)
            flag = ""
            if name != "setup_s" and worst > bound / 3:
                flag, ok = " spread", False
            drift = ""
            if args.sets > 1:
                first, second = medians[0], medians[-1]
                worse = (second - first) / first
                if m["better"] == "higher":
                    worse = -worse
                drift = f"{second / first:8.4f}"
                if worse > bound:
                    flag, ok = flag + " drift", False
            print(f"{w:<8} {name:<20} {medians[0]:14.6g} {worst:8.4f} "
                  f"{bound:6.3f}  {drift}{flag}")
        print(f"{w:<8} {'(run wall s)':<20} {statistics.median(walls[w]):14.1f}")

    if args.json:
        json.dump({f"{w}/{s + 1}": v for (w, s), v in runs.items()},
                  open(args.json, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
