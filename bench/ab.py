#!/usr/bin/env python3
"""Paired A/B runs of one bench/e2e workload: a base revision against this checkout.

    python3 bench/ab.py --base <rev> --workload <name> --pairs N [--seconds S]
                        [--seed N] [--align]

Exports <rev> with `git archive` into .bench_build/ab/base-src and builds
bench_e2e (Release) from each side's own bench/e2e: the base from that
export, the head from this checkout's working tree. `--align` adds
`-falign-functions=64 -falign-loops=64` to both builds, so that a gap that
code placement alone opens can be told from one the change makes.

Each pair runs both sides once with the same arguments, alternating which
side runs first. For every end-to-end metric that BENCHMARK.json gates,
the harness prints each side's median and interquartile range (IQR), the
head/base median ratio and how many pairs the head won and lost (ties count
for neither).

Exit status: 0 when no gated metric regressed; 1 when one did, that is,
its head median is worse than the base median by more than the base IQR
and the head lost at least 80% of the pairs; 2 when a build or a run failed, or a run reported an
incorrect result. The export and the base build are removed when the
harness exits; the head build is kept for the next run.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "ab")
ALIGN_FLAGS = "-falign-functions=64 -falign-loops=64"
LOSS_SHARE = 0.8


class HarnessError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def export_rev(rev, dest):
    """Writes the tree of `rev` into `dest`; returns the full commit id."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
            capture_output=True, text=True, check=True).stdout.strip()
    except subprocess.CalledProcessError as e:
        raise HarnessError(f"unknown revision {rev!r}: {e.stderr.strip()}")
    os.makedirs(dest)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                       stdout=tar, check=True)
        tar.seek(0)
        subprocess.run(["tar", "-x", "-C", dest], stdin=tar, check=True)
    return sha


def build(src_root, build_dir, align):
    """Builds bench_e2e from `src_root`/bench/e2e; returns the binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(src_root, "bench", "e2e"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if align:
            configure.append("-DCMAKE_CXX_FLAGS=" + ALIGN_FLAGS)
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e",
                    "--parallel", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_e2e")


def run_once(binary, args, out_dir):
    """One bench_e2e run; returns its metrics as {name: value}."""
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seconds", str(args.seconds),
           "--out-dir", out_dir]
    if args.seed is not None:
        cmd += ["--seed", args.seed]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise HarnessError(f"{binary} printed no result line "
                           f"(exit {proc.returncode}): {proc.stderr.strip()}")
    if proc.returncode != 0 or not result.get("correct"):
        raise HarnessError(f"{' '.join(cmd)}: incorrect result, "
                           f"{result.get('failed')} of "
                           f"{result.get('attempted')} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def compare(metrics, base_runs, head_runs, pairs):
    """Prints the table; returns the metrics that regressed."""
    header = (f"{'metric':<26} {'base median':>12} {'base IQR':>10} "
              f"{'head median':>12} {'head IQR':>10} {'ratio':>7} "
              f"{'won':>4} {'lost':>4}")
    print(header)
    print("-" * len(header))
    regressed = []
    for spec in metrics:
        name = spec["name"]
        if name not in base_runs[0] or name not in head_runs[0]:
            continue
        base = [r[name] for r in base_runs]
        head = [r[name] for r in head_runs]
        if None in base or None in head:  # a non-finite reading
            print(f"{name:<26} (not finite in every run)")
            continue
        lower = spec["better"] == "lower"
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        lost = sum((h > b) if lower else (h < b) for b, h in zip(base, head))
        b_med, h_med = statistics.median(base), statistics.median(head)
        b_q1, b_q3 = quartiles(base)
        h_q1, h_q3 = quartiles(head)
        b_iqr = b_q3 - b_q1
        ratio = h_med / b_med if b_med else float("nan")
        print(f"{name:<26} {b_med:>12.6g} {b_iqr:>10.4g} {h_med:>12.6g} "
              f"{h_q3 - h_q1:>10.4g} {ratio:>7.3f} {won:>4} {lost:>4}")
        worse_by = (h_med - b_med) if lower else (b_med - h_med)
        if worse_by > b_iqr and lost >= LOSS_SHARE * pairs:
            regressed.append(name)
    return regressed


def main():
    parser = argparse.ArgumentParser(
        description="Paired A/B runs of one bench/e2e workload.")
    parser.add_argument("--base", required=True,
                        help="revision to compare this checkout against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-rep seconds per run (bench_e2e --seconds)")
    parser.add_argument("--seed", default=None,
                        help="input seed for both sides (bench_e2e --seed)")
    parser.add_argument("--align", action="store_true",
                        help="build both sides with " + ALIGN_FLAGS)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    suffix = "-align" if args.align else ""
    base_src = os.path.join(WORK, "base-src")
    base_build = os.path.join(WORK, "base" + suffix)
    try:
        # A leftover export or base build may be of another revision.
        for stale in (base_src, base_build):
            shutil.rmtree(stale, ignore_errors=True)
        sha = export_rev(args.base, base_src)
        log(f"ab: base {args.base} = {sha}")
        binaries = {
            "base": build(base_src, base_build, args.align),
            "head": build(ROOT, os.path.join(WORK, "head" + suffix),
                          args.align),
        }
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(
                    binaries[side], args, os.path.join(WORK, "out-" + side)))
            log(f"ab: pair {i + 1}/{args.pairs} done ({order[0]} first)")
    except (HarnessError, OSError, subprocess.CalledProcessError) as e:
        log(f"ab: {e}")
        return 2
    finally:
        shutil.rmtree(base_src, ignore_errors=True)
        shutil.rmtree(base_build, ignore_errors=True)

    print(f"workload {args.workload}, {args.pairs} pairs, --seconds "
          f"{args.seconds:g}, seed {args.seed or 'default'}, "
          f"base {sha[:12]} vs this checkout"
          f"{', aligned builds' if args.align else ''}")
    regressed = compare(bench["end_to_end"], runs["base"], runs["head"],
                        args.pairs)
    if regressed:
        print(f"REGRESSED: {', '.join(regressed)} (head median worse than the "
              f"base median by more than the base IQR, and at least "
              f"{LOSS_SHARE:.0%} of pairs lost)")
        return 1
    print("no gated metric regressed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
