#!/usr/bin/env python3
"""Engine-level benchmark entry point (see enginebench/README.md).

Builds engine_bench from the repository sources on first use (a standalone
CMake build of enginebench/CMakeLists.txt in .bench_build, or in
$CARGO_TARGET_DIR when set), then runs one workload:

    python3 enginebench/run.py --workload batch_mix --seed 1 --seconds 25 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; build logs go to standard
error.  --report runs a workload end to end and traced, then prints every
end-to-end and per-layer metric by name with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_mix", "sweep_grid", "farfield_4k", "dense_4k"]
SETUP_PROBES = 7  # set-up-only processes per run; their median is setup_s


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds engine_bench; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "engine_bench")


def run(exe, workload, seed, seconds, trace, capture=False):
    work_dir = os.path.join(build_dir(), "run", workload)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    if trace == 0:
        # setup_s: from spawning a process to the end of its set-up, taken
        # as the median over several set-up-only processes.  Each probe
        # reports against the CLOCK_MONOTONIC reading taken just before it
        # was spawned.
        probes = []
        for _ in range(SETUP_PROBES):
            probe = subprocess.run(
                cmd + ["--spawned-at", str(time.monotonic_ns())],
                cwd=ROOT, text=True, stdout=subprocess.PIPE, check=True)
            probes.append(float(probe.stdout.split()[1]))
        cmd += ["--setup-s", repr(statistics.median(probes))]
    return subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def report(exe, args):
    """Both modes, then one table of every metric with its unit."""
    rows = []
    ok = True
    for trace in (0, 1):
        proc = run(exe, args.workload, args.seed, args.seconds, trace,
                   capture=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return 1
        result = json.loads(lines[-1])
        ok = ok and proc.returncode == 0 and result["correct"]
        if trace == 0:
            rows.append(("failed_frac",
                         result["failed"] / result["attempted"], "ratio"))
        for name, metric in result["metrics"].items():
            rows.append((name, metric["value"], metric["unit"]))
    print(f"\n{args.workload} (seed {args.seed}): every metric")
    for name, value, unit in rows:
        print(f"  {name:34s} {value:20.6f} {unit}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run --trace 0 and --trace 1, print all metrics")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "batch_runner.h")):
        print("run.py: decaylib sources (src/) not found next to enginebench/",
              file=sys.stderr)
        return 1
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    try:
        if args.report:
            return report(exe, args)
        return run(exe, args.workload, args.seed, args.seconds,
                   args.trace).returncode
    except subprocess.CalledProcessError as e:
        print(f"run.py: set-up probe failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
