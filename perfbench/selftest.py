#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py on seed
9001, a seed reserved for this test and used for nothing else, with short
runs. Each run executes the benchmark's own output checks. The test also
asserts that:
  - every run exits 0 and reports correct, with no failed operations;
  - an untraced run prints exactly the end-to-end metrics, a traced run
    exactly the per-layer metrics, each with the unit BENCHMARK.json gives;
  - the deterministic outcome metrics repeat exactly across two untraced
    runs of the seed;
  - the traced run confirms the layer each workload claims to load.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 9001
SECONDS = 2
DETERMINISTIC = ("sim_mean_ms", "egress_usd_per_kreq")


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" % (
            workload, trace, done.returncode, "\n".join(lines[-20:])))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit("FAIL %s trace=%d: %s" % (workload, trace, lines[-1]))
    return result["metrics"]


def expect_metrics(workload, metrics, spec):
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        sys.exit("FAIL %s: metrics %s, want %s" % (workload, got, want))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        first = run(workload, 0)
        expect_metrics(workload, first, bench["end_to_end"])
        for name, m in first.items():
            if not m["value"] > 0:
                sys.exit("FAIL %s: end-to-end metric %s is %r" % (
                    workload, name, m["value"]))
        second = run(workload, 0)
        for name in DETERMINISTIC:
            if first[name]["value"] != second[name]["value"]:
                sys.exit("FAIL %s: %s differs across runs of seed %d" % (
                    workload, name, SEED))
        layers = run(workload, 1)
        expect_metrics(workload, layers, bench["per_layer"])
        value = {name: m["value"] for name, m in layers.items()}
        if workload == "social-steady":
            ok = value["core.solve_s"] < 0.05 * value["runtime.run_s"]
        elif workload == "synth-waterfall":
            ok = value["core.solves"] == 0
        else:
            ok = value["core.solve_ms_mean"] >= 0.9 * first["tick_ms_p50"]["value"]
        if not ok:
            sys.exit("FAIL %s: traced run does not load the claimed layer: %s"
                     % (workload, value))
        print("ok %s" % workload)
    print("selftest passed")


if __name__ == "__main__":
    main()
