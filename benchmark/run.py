#!/usr/bin/env python3
"""Build mmsoc_bench from this checkout and run one benchmark workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds benchmark/ (which builds the mmsoc libraries from the repository
root) into benchmark/build, runs the workload, and prints the benchmark's
full JSON report followed, as the last line, by a summary:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the summary holds the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, 0 for a
layer the workload does not exercise, and the spans are written to
benchmark/out/trace-<workload>-seed<n>.json. Build output goes to stderr.
Exits 1 if the build fails or an output check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "mmsoc_bench")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "--target", "mmsoc_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def git_provenance():
    """(revision, dirty flag) of the checkout, or "unknown" outside git."""
    def git(*args):
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    try:
        rev = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", "unknown"
    if rev is None or status is None:
        return "unknown", "unknown"
    return rev, "1" if status else "0"


def summary(report, spec, traced):
    """The last-line summary: every metric BENCHMARK.json lists for the mode."""
    section = "per_layer" if traced else "end_to_end"
    measured = report.get(section, {})
    for name in sorted(measured.keys() - {m["name"] for m in spec[section]}):
        log(f"warning: metric {name} is not listed in BENCHMARK.json")
    correct = bool(report.get("correct"))
    metrics = {}
    for m in spec[section]:
        got = measured.get(m["name"])
        if got is None:
            if not traced:
                log(f"missing end-to-end metric {m['name']}")
                correct = False
            value = 0.0
        else:
            value = got["value"]
            if got["unit"] != m["unit"]:
                log(f"unit of {m['name']} is {got['unit']}, BENCHMARK.json says {m['unit']}")
                correct = False
        if value is None or not math.isfinite(value):
            log(f"metric {m['name']} has no finite value")
            correct = False
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": int(report.get("attempted", 0)),
            "failed": int(report.get("failed", 0)), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd.append("--trace=" + os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    rev, dirty = git_provenance()
    env = dict(os.environ, MMSOC_BENCH_GIT_REV=rev, MMSOC_BENCH_GIT_DIRTY=dirty)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines or proc.returncode not in (0, 1):
        log(f"mmsoc_bench exited with {proc.returncode}")
        return proc.returncode or 1
    report = json.loads(lines[-1])
    result = summary(report, spec, bool(args.trace))
    print(lines[-1])
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
