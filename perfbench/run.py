#!/usr/bin/env python3
"""Build the name-server benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark is built with dune into
.bench_build/ (release profile, shared cache off, so nothing is written
outside the checkout), then run.  `--workload all` runs every workload
in turn.

An untraced run (--trace 0) splits its S seconds over PROCESSES fresh
processes of the same inputs.  On a shared host the speed of the two
client domains depends on where the host places them and on what runs
beside them, and that state lasts for seconds; fresh processes sample
it several times per run.  Each metric is the median over processes of
each process's value (for timings, its median over 100 ms epochs), so
a process that ran in an unusual placement does not move the result;
setup_s is the median of every process's Server.create samples.  A
traced run (--trace 1) is one process.

The last line of standard output is the JSON result.  The exit code is
1 when the build fails or an output check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# workload -> client domains
WORKLOADS = {"cold-solo": 1, "warm-pair": 2, "zipf-pair-obs": 2}
PROCESSES = 10
# per process, beyond its share of the timed phase
SLACK_S = 30


def build():
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return False
    if r.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return False
    return True


def run_once(workload, seed, seconds, trace, cpu=None):
    """Run one benchmark process, on one CPU if [cpu] is set; returns
    (context, result) or None."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=seconds + SLACK_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} timed out", file=sys.stderr)
        return None
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if len(lines) < 2:
        print(f"run.py: {workload} exited {r.returncode} without a result", file=sys.stderr)
        return None
    context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
    if r.returncode != 0:
        result["correct"] = False
    return context, result


def print_result(runs, metrics):
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:20.4f} {m['unit']}")
    print(json.dumps({"context": [c for c, _ in runs]}))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in runs),
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "metrics": metrics,
    }))


def bench(workload, seed, seconds, trace):
    """Run one workload and print its result; returns the exit code."""
    n = 1 if trace else PROCESSES
    cpus = sorted(os.sched_getaffinity(0))
    solo = WORKLOADS[workload] == 1 and len(cpus) > 1
    runs = []
    for i in range(n):
        got = run_once(workload, seed, seconds / n, trace,
                       cpus[i % len(cpus)] if solo else None)
        if got is None:
            return 1
        runs.append(got)
    metrics = {}
    for name, m in runs[0][1]["metrics"].items():
        if name == "setup_s":
            value = statistics.median(s for c, _ in runs for s in c["setup_samples"])
        else:
            value = statistics.median(r["metrics"][name]["value"] for _, r in runs)
        metrics[name] = {"value": value, "unit": m["unit"]}
    print_result(runs, metrics)
    return 0 if all(r["correct"] for _, r in runs) else 1


def main(argv):
    ap = argparse.ArgumentParser(description="name-server benchmark")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    if not build():
        return 1
    names = WORKLOADS if a.workload == "all" else [a.workload]
    return max(bench(w, a.seed, a.seconds, a.trace) for w in names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
