#!/usr/bin/env python3
"""Host MD benchmark: build the program from source, run one workload.

Run from the repository root:

    python3 mdbench/run.py --workload slab_wafer --seed 1 --seconds 38 --trace 0
    python3 mdbench/run.py --sweep      # one-shot backend table, not gated

The build goes to $CARGO_TARGET_DIR (default .bench_build) through
mdbench/CMakeLists.txt; build output goes to stderr. The binary's table
and, as the last line of stdout, its JSON result pass through unchanged.
Exit code: the binary's (1 on a correctness failure), or 1 when the build
fails or the run exceeds its time limit.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("slab_wafer", "bulk_reference", "gb_ranks_observed")
RUN_LIMIT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Run the binary without address-space randomization: where the SoA
    planes land relative to each other moves steps/s by ~7% from one
    process to the next, so a fixed layout keeps runs comparable."""
    libc = ctypes.CDLL(None)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "mdbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "mdbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sweep", action="store_true")
    args = p.parse_args()
    if not args.sweep and args.workload is None:
        p.error("--workload or --sweep is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as ex:
        print(f"mdbench: build failed: {ex}", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir, "runs", str(os.getpid()))
    cmd = [exe, "--out", out_dir]
    if args.sweep:
        cmd.append("--sweep")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own session: on a timeout the binary and any rank processes it forked
    # are killed together, and waited for.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, preexec_fn=fixed_layout)
    try:
        stdout, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"mdbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    sys.stdout.write(stdout)
    if proc.returncode != 0:
        return proc.returncode
    if not args.sweep:
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            print("mdbench: malformed result line", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
