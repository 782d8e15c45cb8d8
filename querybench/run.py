#!/usr/bin/env python3
"""Build and run the query benchmark for one workload.

    python3 querybench/run.py --workload batch-indep-d6 --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout. The benchmark is built from the
checkout's sources into .bench_build/querybench (configured once, rebuilt
incrementally) and the workload's inputs are generated from --seed into
.bench_build/querybench/data. --trace 0 measures the end-to-end metrics in
ROUNDS fresh processes and pools them; --trace 1 is the per-layer run. Full
reports land in .bench_build/querybench/results. The last line of standard
output is the run's JSON result; any failure exits non-zero without
printing one.
"""

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("batch-indep-d6", "batch-anti-d6", "serve-boxes")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"
# Processes one end-to-end run is split into (see `querybench aggregate`).
ROUNDS = 6


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    if not (build_dir / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "querybench",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "querybench"


def ensure_inputs(binary, data_root, workload, seed, deadline):
    """Generates the seed's inputs once; keeps one seed per workload."""
    data_dir = data_root / f"{workload}-seed{seed}"
    marker = data_dir / "complete"
    if marker.exists():
        return data_dir
    if data_root.exists():
        for stale in data_root.glob(f"{workload}-seed*"):
            shutil.rmtree(stale)
    data_dir.mkdir(parents=True)
    subprocess.run(
        [str(binary), "gen", f"--workload={workload}", f"--seed={seed}",
         f"--out={data_dir}"],
        check=True, stdout=sys.stderr, timeout=deadline - time.monotonic())
    marker.write_text("ok\n")
    return data_dir


def measure(binary, args, data_dir, results, deadline):
    """Runs the benchmark binary; returns its stdout lines."""
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--seconds={args.seconds}", f"--data={data_dir}"]
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 1:
        commands = [[str(binary), "trace", *common, f"--report={stem}.json"]]
    else:
        rounds = [f"{stem}-round{k}.txt" for k in range(ROUNDS)]
        commands = [[str(binary), "round", *common, f"--rounds={ROUNDS}",
                     f"--out={path}"] for path in rounds]
        commands.append([str(binary), "aggregate", *common,
                         f"--rounds={','.join(rounds)}",
                         f"--report={stem}.json"])
    for command in commands:
        run = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                             text=True, timeout=deadline - time.monotonic())
        if command is not commands[-1]:
            sys.stderr.write(run.stdout)
    return run.stdout.rstrip("\n").split("\n")


def parse_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys: {sorted(result)}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    out_root = bench_dir.parent / ".bench_build" / "querybench"
    try:
        binary = build(bench_dir, out_root / "build")
        deadline = time.monotonic() + RUN_TIMEOUT_S
        data_dir = ensure_inputs(binary, out_root / "data", args.workload,
                                 args.seed, deadline)
        results = out_root / "results"
        results.mkdir(parents=True, exist_ok=True)
        lines = measure(binary, args, data_dir, results, deadline)
        result = parse_result(lines[-1])
    except (subprocess.SubprocessError, OSError, ValueError) as error:
        log(f"querybench: {error}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
