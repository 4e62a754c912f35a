#!/usr/bin/env python3
"""Stability mode: runs the benchmark twice over, as two sets of runs of
the same build, and reports each end-to-end metric's spread against the
bound BENCHMARK.json gives it.

Set A uses seeds SEED, SEED+1, ...; set B uses SEED2, SEED2+1, ....
For every workload and metric it prints the median and the quartile
spread (IQR / median, from statistics.quantiles(n=4)) of each set, and
the drift of set B's median from set A's. Every spread must stay within
the metric's bound, and no median may drift by more than the bound in
the worse direction; the exit code is 1 otherwise.

    python3 perfbench/stability.py --seed 1 --seed2 1001 --runs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seed2", type=int, default=None)
    ap.add_argument("--runs", type=int, default=10)
    opts = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seed2 = opts.seed2 if opts.seed2 is not None else opts.seed + 1000
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for base in (opts.seed, seed2):
            runs = [run_once(bench["command"], workload, base + i, bench["run_seconds"])
                    for i in range(opts.runs)]
            sets.append({m: [r[m] for r in runs] for m in bounds})
        print(f"== {workload} ({opts.runs} runs per set)")
        for name, m in bounds.items():
            bound = m["bound"]
            cells = []
            medians = []
            for values in (s[name] for s in sets):
                sp, med = spread(values)
                medians.append(med)
                within = sp <= bound
                ok &= within
                cells.append(f"median {med:12.4f} spread {sp:6.3f}{'' if within else ' !'}")
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            drift_ok = worse <= bound
            ok &= drift_ok
            print(f"  {name:<16} bound {bound:5.3f}  " + "  |  ".join(cells)
                  + f"  |  drift {worse:+.3f}{'' if drift_ok else ' !'}")
    print("stable" if ok else "NOT stable")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
