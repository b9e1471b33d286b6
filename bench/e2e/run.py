#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources, then runs it.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Arguments pass through to the bench_e2e binary (see bench/e2e/README.md).
The build tree and the BENCH_*/TRACE_* files the run writes go under
.bench_build/ at the repo root. Build output goes to stderr, so the
benchmark's JSON result stays the last line of stdout. Exits non-zero,
printing no result, when the sources are missing or do not build.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
OUT = os.path.join(ROOT, ".bench_build", "e2e-out")


def build():
    generated = any(os.path.exists(os.path.join(BUILD, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "--parallel", "4"], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"bench_e2e: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    binary = os.path.join(BUILD, "bench_e2e")
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", OUT]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main())
