#!/usr/bin/env python3
"""Build and run the FBS datagram-path benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bulk_1408 --seed 1 --seconds 10 --trace 0

The first run configures and builds the repository's libraries and the
benchmark program (perfbench/fbs_perfbench.cpp) into .bench_build/perfbench;
later runs only check that the build is up to date. The program's result --
one JSON object with the keys correct, attempted, failed and metrics -- is
checked and printed as the last line of standard output. Build output and
the program's progress line go to standard error. With --trace 1 the
program's spans for the first rounds are written to
.bench_build/spans/<workload>-<seed>.jsonl.

Exits non-zero, printing no result, if the sources are missing, the build
fails, or the program fails or runs out of time.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("bulk_1408", "internet_flows", "udp_imix", "pipeline_rx")
HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fbs_perfbench")
BUILD_TIMEOUT_S = 700  # configure + build together
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_bounded(cmd, timeout, stdout):
    """Run `cmd` in its own process group; on timeout kill the whole group
    (compilers included) and wait for it. Returns (returncode, stdout)."""
    try:
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                                text=True, start_new_session=True)
    except OSError as err:
        fail(f"cannot run {cmd[0]}: {err}")
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {SOURCE_ROOT}/src")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fbs_perfbench",
                  "-j", jobs])
    for cmd in steps:
        code, _ = run_bounded(cmd, deadline - time.monotonic(), sys.stderr)
        if code != 0:
            fail(f"build step failed with status {code}: {' '.join(cmd)}")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(SOURCE_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"fbs_perfbench printed no JSON result: {line!r}")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"result has the wrong keys: {line!r}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"bad {key}: {result[key]!r}")
    if result["attempted"] < 1:
        fail("no datagrams attempted")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")
    expected = expected_metrics(trace)
    if set(result["metrics"]) != expected:
        fail(f"metrics {sorted(result['metrics'])} != {sorted(expected)}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-{args.seed}.jsonl")]
    # Eleven set-ups, 0.3 s of warm-up and the measured seconds, with margin;
    # the whole run must stay well inside three minutes.
    code, out = run_bounded(cmd, min(60 + 2 * args.seconds, 170),
                            subprocess.PIPE)
    if code != 0:
        fail(f"fbs_perfbench exited with status {code}")
    lines = out.strip().splitlines()
    if not lines:
        fail("fbs_perfbench printed nothing")
    result = check_result(lines[-1], args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
