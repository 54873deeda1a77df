#!/usr/bin/env python3
"""Self-check of the campaign benchmark.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

1. BENCHMARK.json names exactly the workloads of workloads.WORKLOADS
   (with the same one-line why) and the per-layer metrics of
   workloads.LAYER_MAP (same units and direction).
2. Every workload runs at --tiny length with --trace 0 and --trace 1 and
   emits every metric BENCHMARK.json names, with its unit, correct and
   with no failed cells.
3. A corrupted result row, an unreadable one and a forced digest mismatch
   each end with cells_failed > 0, "correct": false and exit code 1.
4. A directory holding only BENCHMARK.json and perfbench/ (no sources)
   exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import LAYER_MAP, WORKLOADS  # noqa: E402

FAILURES = []
PASSED = []


def expect(ok, what):
    if ok:
        PASSED.append(what)
    else:
        print("FAIL " + what, flush=True)
        FAILURES.append(what)


def run(workload, trace, *extra, cwd=ROOT, env=None):
    """Runs the benchmark at tiny length; returns (exit code, result)."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1", "--trace",
         str(trace), "--tiny", *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def check_manifest(bench):
    names = [w["name"] for w in bench["workloads"]]
    expect(names == list(WORKLOADS), "BENCHMARK.json workloads match")
    for w in bench["workloads"]:
        expect(w["why"] == WORKLOADS.get(w["name"], {}).get("why"),
               "why of %s matches workloads.py" % w["name"])
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    expect(layers == {k: v[:2] for k, v in LAYER_MAP.items()},
           "BENCHMARK.json per_layer matches LAYER_MAP")


def check_emits(bench, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run(workload, trace)
        label = "%s --trace %d" % (workload, trace)
        expect(code == 0 and result is not None, label + " exits 0")
        if result is None:
            continue
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               label + " result keys")
        expect(result["correct"] and result["failed"] == 0 and
               result["attempted"] >= 1, label + " correct, 0 failed")
        metrics = result["metrics"]
        for m in bench[section]:
            got = metrics.get(m["name"], {})
            expect(isinstance(got.get("value"), (int, float)) and
                   got.get("unit") == m["unit"],
                   "%s emits %s in %s" % (label, m["name"], m["unit"]))
        expect(len(metrics) == len(bench[section]), label + " no extra metric")


def check_faults():
    for fault in ("corrupt_row", "garble_row", "digest_mismatch"):
        code, result = run("grid_small", 0, "--fault", fault)
        expect(code == 1 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               "fault %s counted in cells_failed" % fault)


def check_bare():
    bare = os.path.join(ROOT, ".bench_out", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    code, result = run("grid_small", 0, cwd=bare, env=env)
    expect(code != 0 and result is None,
           "no sources: exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_manifest(bench)
    for workload in sys.argv[1:] or list(WORKLOADS):
        check_emits(bench, workload)
    check_faults()
    check_bare()
    print("%d checks passed, %d failed" % (len(PASSED), len(FAILURES)))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
