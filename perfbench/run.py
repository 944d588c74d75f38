#!/usr/bin/env python3
"""Runs one workload of the DACE serving benchmark.

    python3 perfbench/run.py --workload serve_closed_hot --seed 1 \
        --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds the driver (perfbench/CMakeLists.txt, against the checkout's own
sources) under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later calls rebuild incrementally. The driver's stderr, which carries the
program's WARN lines, goes to a per-run log file there, never to the
terminal. The last line of stdout is the driver's JSON result.

Exit codes: 0 ok; 1 build, test or correctness failure; 2 bad arguments or
no source tree to build; 3 the run was void (a validity check failed).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# serve_open_miss is a diagnostic open loop outside BENCHMARK.json.
WORKLOADS = ("serve_closed_hot", "serve_closed_miss", "plan_choice",
             "serve_open_miss")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run(command, timeout, **kwargs):
    """subprocess.run in its own process group, so a timeout stops the
    whole tree (make's compilers too), and waits for it. Returns None on
    timeout."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
        return subprocess.CompletedProcess(command, proc.returncode, out)


def local_env(out):
    """The caller's environment minus DACE_* knobs (the serving
    configuration is the benchmark's), with temporary files kept inside the
    build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DACE_")}
    env["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must be in [0, 2^40)")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    return args


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the driver and the arithmetic tests."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(2, "no DACE source tree to build (missing %s)" % needed)
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_driver", "perfbench_stats_test"])
    with open(log_path, "w") as log:
        for step in steps:
            done = run(step, BUILD_TIMEOUT_S, stdout=log,
                       stderr=subprocess.STDOUT, env=local_env(out))
            if done is None:
                fail(1, "build timed out; see " + log_path)
            if done.returncode != 0:
                fail(1, "build failed; see " + log_path)


def run_tests(out):
    test = os.path.join(out, "perfbench_stats_test")
    done = run([test, "--gtest_brief=1"], 60, stdout=subprocess.PIPE,
               stderr=subprocess.STDOUT, text=True, env=local_env(out))
    if done is None:
        fail(1, "the benchmark's arithmetic tests timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        fail(1, "the benchmark's arithmetic tests failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    args = parse_args()
    out = build_dir()
    build(out)
    run_tests(out)

    run_dir = os.path.join(out, "runs", args.workload)
    log_dir = os.path.join(out, "logs")
    os.makedirs(log_dir, exist_ok=True)
    log_path = os.path.join(log_dir, "%s-seed%d-trace%d.log" %
                            (args.workload, args.seed, args.trace))
    command = [os.path.join(out, "perfbench_driver"),
               "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
               "--out-dir=" + run_dir]
    with open(log_path, "w") as log:
        done = run(command, RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=log,
                   text=True, env=local_env(out))
    if done is None:
        fail(1, "driver timed out after %d s; see %s" %
             (RUN_TIMEOUT_S, log_path))
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-5:]))
        fail(done.returncode, "driver exited with %d; log: %s" %
             (done.returncode, log_path))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(1, "malformed result line")
    missing = set(expected_metrics(args.trace)) ^ set(result["metrics"])
    if missing:
        fail(1, "metrics differ from BENCHMARK.json: " +
             ", ".join(sorted(missing)))
    print("\n".join(lines[:-1]))
    print("log: " + log_path)
    print(lines[-1])
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
