#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a proxima checkout.  Builds the proxima library from
src/ together with the measuring program in perfbench/src (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload and forwards its output.  The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  Build output goes to
stderr.  Exits non-zero without a result when the sources are missing, the
build fails or the measuring program faults.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("control-dsr", "hv-image", "tiny-runs", "store-rerender")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(build_dir):
    """Configure (first time) and build; returns the program path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", build_dir, "--parallel", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "proxima_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds within 1..60")

    if not os.path.isfile(os.path.join(ROOT, "src", "exec", "engine.hpp")):
        return fail(f"no proxima sources under {os.path.join(ROOT, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    program = build(build_dir)
    if program is None:
        return fail("build failed")

    work_dir = os.path.join(build_dir, f"work-{args.workload}-{os.getpid()}")
    command = [program,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--expected", os.path.join(HERE, "expected.json"),
               "--work-dir", work_dir]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(build_dir, f"trace-{args.workload}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"measuring program exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode not in (0, 1):
        return fail(f"measuring program exited {result.returncode}")
    lines = result.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    if not isinstance(last, dict) or set(last) != {"correct", "attempted",
                                                   "failed", "metrics"}:
        return fail("measuring program printed no result line")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
