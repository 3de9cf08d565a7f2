#!/usr/bin/env python3
"""Steadiness report: runs workloads repeatedly and prints, per metric, the
median, the quartiles and the spread (interquartile distance over the median).

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                                [--trace 0|1]

Run from the repository root. Each run uses the next seed; the quartiles are
those of statistics.quantiles(values, n=4). The spread of each end-to-end
metric is compared with its bound in BENCHMARK.json. Runs are sequential, one
workload process at a time.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {}
    for wl in args.workloads.split(","):
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(wl, []).append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr, flush=True)

    worst = 0.0
    for wl, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{wl}: {len(results)} runs, all correct={all(r['correct'] for r in results)}, "
              f"failed share(s)={sorted(shares)}")
        print(f"  {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:42s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{bound if bound is not None else '':>6}")
    if args.trace == 0:
        print(f"\nlargest spread/bound over end-to-end metrics except setup_s: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
