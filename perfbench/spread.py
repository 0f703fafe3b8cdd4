#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs each workload once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, per metric, the median of the runs and the
distance between their first and third quartiles as a share of that
median, next to the metric's bound.  Exits 1 if any run fails or any
spread but setup_s's exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    opts = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in opts.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "{}"
            res = json.loads(last)
            if r.returncode != 0 or not res.get("correct"):
                print(f"{w} seed {seed}: failed (exit {r.returncode})\n{r.stderr}")
                ok = False
                continue
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print(f"== {w} ({opts.seeds} seeds)")
        for name, vs in values.items():
            if len(vs) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[name] and name != "setup_s":
                flag = "  EXCEEDS BOUND"
                ok = False
            elif spread > bounds[name] / 3:
                flag = "  above bound/3"
            print(f"  {name:24s} median {med:14.6g}  spread {spread:7.4f}  bound {bounds[name]}{flag}")
            print("      " + " ".join(f"{v:.6g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
