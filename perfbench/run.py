#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fib_fine --seed 1 --seconds 30 --trace 0

`--seeds 1,2,3` runs one process per seed, prints each seed's result line,
and ends with a line holding the per-metric medians over the seeds (the
claim check on seeds a change was not tuned on). The last line of stdout
is always one JSON object: correct, attempted, failed, metrics.

The benchmark is built with dune from the checkout's sources into
`_build/`; the traced run also writes its spans there. Exits non-zero,
printing no result, when the build or any run fails.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT = os.path.join("_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    if found:
        return found[0]
    fail("dune not found on PATH")


def run_checked(cmd, timeout, capture):
    """Run cmd to completion, killing and reaping it on timeout."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE if capture else sys.stderr, text=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, out


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a checkout (missing %s)" % need)
    code, _ = run_checked(
        [find_dune(), "build", "--root", ".", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S,
        capture=False,
    )
    if code != 0:
        fail("build failed")


def run_one(args, seed):
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT,
    ]
    code, out = run_checked(cmd, RUN_TIMEOUT_S, capture=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("run failed (exit %d) for seed %d" % (code, seed))
    result = json.loads(lines[-1])
    return lines[-1], result


def merge(results):
    """Per-metric medians over seeds; counts are summed."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["fib_fine", "ropes_mix", "serve_open"])
    seeds = p.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seed", type=int)
    seeds.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seeds is not None:
        try:
            seed_list = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            fail("bad --seeds list: " + args.seeds)
    else:
        seed_list = [args.seed]

    build()
    results = []
    for seed in seed_list:
        line, result = run_one(args, seed)
        results.append(result)
        if len(seed_list) > 1:
            print(line, flush=True)
    print(json.dumps(merge(results)) if len(results) > 1 else line)


if __name__ == "__main__":
    main()
