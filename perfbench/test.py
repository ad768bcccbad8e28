#!/usr/bin/env python3
"""The benchmark's own tests, at reduced input sizes (about a minute).

    python3 perfbench/test.py

Run from the root of the checkout.  For every workload:
  - an untraced run prints every end-to-end metric of BENCHMARK.json, and
    only those, each with its unit, and reports correct output;
  - a second untraced run with the same seed prints the same input and
    output digests;
  - a traced run prints every per-layer metric, and only those.
Finally the benchmark must refuse to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

SCRATCH = ".perfbench_test"


def run(bench, workload, seed, trace, cwd="."):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "2",
        "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(out):
    lines = out.stdout.strip().splitlines()
    assert out.returncode == 0, "exit %d: %s" % (out.returncode, out.stderr[-2000:])
    prov = [l for l in lines if l.startswith("provenance: ")]
    assert prov, "no provenance line"
    return json.loads(lines[-1]), json.loads(prov[-1][len("provenance: "):])


def digests(prov):
    """Every *digest field of the per-scenario provenance records."""
    return {(scenario, k): v
            for scenario in ("revisions", "archive", "service")
            for k, v in prov[scenario].items() if k.endswith("digest")}


def check_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, "%s metrics differ: missing %s, extra %s, units %s" % (
        what, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
        sorted(k for k in got if k in want and got[k] != want[k]))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = 0
    for w in [w["name"] for w in bench["workloads"]]:
        try:
            first, prov1 = result_of(run(bench, w, 7, 0))
            assert first["correct"] and first["failed"] == 0, first
            assert first["attempted"] >= 1
            check_metrics(first, bench["end_to_end"], "end-to-end")
            _, prov2 = result_of(run(bench, w, 7, 0))
            d1, d2 = digests(prov1), digests(prov2)
            assert len(d1) >= 5 and d1 == d2, "same-seed digests differ: %s" % {
                k: (d1.get(k), d2.get(k)) for k in set(d1) | set(d2)
                if d1.get(k) != d2.get(k)}
            _, prov3 = result_of(run(bench, w, 8, 0))
            assert digests(prov3)[("revisions", "inputs_digest")] != \
                d1[("revisions", "inputs_digest")], "seed does not change inputs"
            traced, _ = result_of(run(bench, w, 7, 1))
            assert traced["correct"], traced
            check_metrics(traced, bench["per_layer"], "per-layer")
            print("ok   %s" % w)
        except AssertionError as e:
            failures += 1
            print("FAIL %s: %s" % (w, e))
    # Without the program's sources the benchmark must fail, printing no result.
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        os.makedirs(SCRATCH)
        shutil.copy("BENCHMARK.json", SCRATCH)
        for path in bench["paths"]:
            shutil.copytree(path, os.path.join(SCRATCH, path))
        out = run(bench, bench["workloads"][0]["name"], 1, 0, cwd=SCRATCH)
        if out.returncode == 0 or '"metrics"' in out.stdout:
            failures += 1
            print("FAIL bare directory: exit %d, stdout %r" % (out.returncode, out.stdout[-200:]))
        else:
            print("ok   bare directory refused (exit %d)" % out.returncode)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
