#!/usr/bin/env python3
"""Builds blinkbench from source and runs it.

    python3 blinkbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 blinkbench/run.py --selftest

Configures and builds blinkbench/CMakeLists.txt into .bench_build at the
repository root (build output goes to stderr), then runs the binary with the
given arguments. A traced run also writes its spans to
.bench_build/trace-<workload>.jsonl. The binary's last stdout line is the
result JSON; its exit code is this script's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; kills and reaps it on timeout. Returns the exit code."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"timed out after {timeout}s: {' '.join(cmd)}", file=sys.stderr)
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                 BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            return rc
    return run(["cmake", "--build", BUILD, "-j", jobs, "--target", "blinkbench"],
               BUILD_TIMEOUT_S, stdout=sys.stderr)


def main():
    args = sys.argv[1:]
    if build() != 0:
        print("build failed", file=sys.stderr)
        return 1
    extra = []
    if "--trace" in args and "--workload" in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            workload = args[args.index("--workload") + 1]
            extra = ["--trace-file", os.path.join(BUILD, f"trace-{workload}.jsonl")]
    return run([os.path.join(BUILD, "blinkbench")] + args + extra, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
