#!/usr/bin/env python3
"""Build the simulator from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper-gpsr, privacy-als, scale-agfw-10k, or all. The benchmark is
built with CMake (RelWithDebInfo, the repository's default build type) into
.bench_build/ at the checkout root; the first run builds it, later runs only
check that it is up to date. Build output goes to stderr, so the last line of
stdout is the benchmark's result object. Traced runs (--trace 1) also write
their spans to .bench_build/spans/.

Exit status: 0 when every correctness check passed, 1 when a check failed or
the benchmark did not finish, 2 on bad arguments or an incomplete checkout.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper-gpsr", "privacy-als", "scale-agfw-10k", "all")
# A single-workload run ends well inside this; a hung one is stopped here.
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-dir", spans_dir]

    # A SIGTERM raises SystemExit here, so the handler below stops and reaps
    # the benchmark process before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
        raise
    lines = out.rstrip("\n").splitlines()
    # Everything but the result line is the human-readable report.
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with status {proc.returncode}", 1)
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line", 1)
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
