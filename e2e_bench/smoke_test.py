#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload at tiny size through run.py, untraced and traced, and
checks that each metric BENCHMARK.json declares for the mode is printed
with its unit and that the run verified clean. Then reruns each workload
with one expected event deliberately perturbed and checks that the run
reports the mismatch as a failure and exits non-zero.

Usage (from the repository root): python3 e2e_bench/smoke_test.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_uds", "batch_cohort", "fleet_mixed"]


def run(workload, trace, perturb=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--tiny"]
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, err = run(w, trace)
            tag = "%s --trace %d" % (w, trace)
            if rc != 0 or result is None or not result["correct"]:
                problems.append("%s: rc=%d result=%s %s" %
                                (tag, rc, result, err[-500:]))
                continue
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s: metric %s not printed" % (tag, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: metric %s has unit %s, declared %s" %
                                    (tag, m["name"], got["unit"], m["unit"]))
            print("ok   %s (%d metrics)" % (tag, len(result["metrics"])))
        rc, result, _ = run(w, 0, perturb=True)
        if rc == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append("%s --perturb: the corrupted event was not caught "
                            "(rc=%d result=%s)" % (w, rc, result))
        else:
            print("ok   %s --perturb caught (%d failed)" % (w, result["failed"]))
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
