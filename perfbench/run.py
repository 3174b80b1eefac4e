#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <paper_stream|fig_grid|ckpt_resume>
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

The build (CMake, Release) lands in .bench_build/perfbench; run outputs
(result records, Chrome traces, checkpoint scratch files) in
.perfbench_out. The last line on stdout is the JSON result. See README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Compiler and run scratch stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV)
    try:
        return proc.wait() == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no dsslice sources (src/) next to perfbench/",
              file=sys.stderr)
        return False
    os.makedirs(TMP_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny streams, for the self-tests")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="flip the reference digests (self-test)")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR,
           "--reference", os.path.join(HERE, "reference_digests.txt")]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=ENV)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
