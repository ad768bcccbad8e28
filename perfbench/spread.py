#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, as its acceptance check computes it.

    python3 perfbench/spread.py --workload W [--runs 10] [--first-seed 1]
        [--trace 0|1]

Runs the command from BENCHMARK.json once per seed (first-seed,
first-seed+1, ...) and prints, per metric, the median, the quartile
spread (Q3 - Q1) / median with Python's statistics.quantiles(n=4), and for
end-to-end metrics the bound and whether the spread is under a third of it.
Run from the root of the checkout.  Exits 1 if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d failed (exit %d)\n%s" % (seed, out.returncode, out.stderr),
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect output" % seed, file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "bound %.3f %s" % (bound, "ok" if spread < bound / 3 else
                                          "WIDE" if spread <= bound else "OVER")
            if name != "setup_s":
                worst = max(worst, spread / bound)
        print("%-28s median %12.4f  spread %.4f  %s" % (name, med, spread, verdict))
        print("    " + " ".join("%.4g" % v for v in vals))
    print("worst spread/bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
