#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package (perfbench/
CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build when unset, then runs
the benchmark program and prints its result: one JSON object on the last line
of stdout with the keys correct, attempted, failed and metrics, the metrics
named and in the units that BENCHMARK.json declares. Build output goes to
stderr. Exits non-zero, printing no result, when the sources are missing or
the build or the run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("cnf-search", "smt-blast", "daemon-tenants", "app-loops")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark package; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            return False
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def with_units(measured, declared, trace):
    """The metrics object of the result, in BENCHMARK.json's order and units.

    A per-layer metric the workload does not exercise reads 0 (the
    prediction "no change"); a missing end-to-end metric, or a name
    BENCHMARK.json does not declare, is an error (None)."""
    names = {name for name, _ in declared}
    unknown = sorted(set(measured) - names)
    missing = sorted(names - set(measured))
    if unknown or (missing and not trace):
        log(f"undeclared metrics {unknown}, missing end-to-end metrics {missing}")
        return None
    return {name: {"value": measured.get(name, 0), "unit": unit} for name, unit in declared}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "substrate", "engine.cpp")):
        log("run from the repository root: the sciduction sources (src/) are missing")
        return 2
    try:
        declared = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", build_dir, "--tmp-dir", os.path.relpath(tmp_dir)]
    # The program runs in a process group of its own, so that on a timeout its
    # children (the daemon, the front door) are killed with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("the benchmark program did not finish in time")
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"the benchmark program failed (exit {proc.returncode})")
        return 1
    res = json.loads(lines[-1])
    res["metrics"] = with_units(res["metrics"], declared, args.trace)
    if res["metrics"] is None:
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
