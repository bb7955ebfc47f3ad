#!/usr/bin/env python3
"""Build and run one workload of the PTrack end-to-end benchmark.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload serve_uds --seed 1 --seconds 20 --trace 0

Configures and builds e2e_bench/ (a CMake project over ../src) into
.bench_build/e2e_bench on first use, runs the e2e_bench binary, checks that
it printed every metric BENCHMARK.json declares for the mode (end_to_end
with --trace 0, per_layer with --trace 1) with the declared unit, and
prints its detail line followed by the result line
{"correct", "attempted", "failed", "metrics"} as the last line of stdout.
Exits non-zero when the run found a wrong output, a metric is missing,
or there is no PTrack source tree to build.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("e2e_bench/run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no PTrack source tree next to the benchmark (src/ is missing)")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "e2e_bench", "ptrack_serve", "obs_check"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve_uds", "batch_cohort", "fleet_mixed"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--serve-rate-ksps", type=float, default=None)
    ap.add_argument("--fleet-hop-rate", type=float, default=None)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size (few, short inputs)")
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt one expected event; the run must fail")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, ".bench_build", "e2e_bench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.serve_rate_ksps is not None:
        cmd += ["--serve-rate-ksps", repr(args.serve_rate_ksps)]
    if args.fleet_hop_rate is not None:
        cmd += ["--fleet-hop-rate", repr(args.fleet_hop_rate)]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb:
        cmd.append("--perturb")
    # Own process group, so a timeout stops e2e_bench and its daemon.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("e2e_bench exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("e2e_bench printed no result (exit %d)" % proc.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("e2e_bench's last line is not JSON: " + lines[-1][:200], 1)

    metrics = {}
    missing = []
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = got
    detail = json.loads(lines[-2]) if len(lines) > 1 else {}
    attempted = max(1, int(result["attempted"]))
    detail["failed_frac"] = int(result["failed"]) / attempted
    # Figures e2e_bench measured that this mode does not declare (such as
    # the accuracy figures of an untraced run) stay visible here.
    detail["other_metrics"] = {k: v for k, v in result["metrics"].items()
                               if k not in metrics}
    if missing:
        detail["missing_metrics"] = missing
    print(json.dumps(detail))
    print(json.dumps({"correct": bool(result["correct"]) and not missing,
                      "attempted": attempted,
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    if missing:
        fail("metrics missing or with the wrong unit: " + ", ".join(missing), 1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
