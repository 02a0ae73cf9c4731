#!/usr/bin/env python3
"""Builds the kwsdbg benchmark and runs one workload.

    python3 perfbench/run.py --workload paper_cold|paper_spilled|serve_mixed \
        --seed N --seconds S --trace 0|1 [--save DIR]

Run from the root of a source tree. The first run configures and builds the
library optimised (Release, NDEBUG) under .bench_build/perfbench; later runs
only rebuild what changed. The last line of stdout is the run's JSON result.
Spill and WAL files go to a per-run directory under .bench_run/, removed at
exit; traced runs leave their span file under .bench_out/. With --save, the
result is also written to DIR for perfbench/compare.py.

The binary prints bare metric values. The metrics a run reports, and their
units, are the ones BENCHMARK.json lists: every end_to_end metric must be
measured, a per_layer metric the workload does not exercise reads 0, and a
name BENCHMARK.json does not list fails the run.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "kwsdbg_perfbench"
WORKLOADS = ("paper_cold", "paper_spilled", "serve_mixed")
SPEC = ROOT / "BENCHMARK.json"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env(spill_dir=None):
    """The environment without the library's KWSDBG_* knobs (memory budget,
    page size, faults, planner exploration...), so an ambient value cannot
    change what is measured; KWSDBG_SPILL_DIR, which recovery also sweeps for
    orphaned files, is pinned to the run's own directory when given."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KWSDBG_")}
    if spill_dir is not None:
        env["KWSDBG_SPILL_DIR"] = str(spill_dir)
    return env


def with_units(measured, traced):
    """The run's metrics as BENCHMARK.json lists them, with their units, or
    None (after saying why) when a name is missing or unknown."""
    spec = json.loads(SPEC.read_text())["per_layer" if traced else "end_to_end"]
    unknown = sorted(set(measured) - {m["name"] for m in spec})
    missing = [m["name"] for m in spec
               if not traced and m["name"] not in measured]
    if unknown or missing:
        log(f"perfbench: metrics not in BENCHMARK.json: {unknown}; "
            f"not measured: {missing}")
        return None
    return {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec}


def build():
    """Configures once and builds; returns False when the build fails."""
    BUILD.mkdir(parents=True, exist_ok=True)
    env = clean_env()
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        if not (BUILD / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release", *gen]
            if subprocess.run(cmd, stdout=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        cmd = ["cmake", "--build", str(BUILD), "--target", "kwsdbg_perfbench",
               "-j", "3"]
        left = max(1.0, deadline - time.monotonic())
        return subprocess.run(cmd, stdout=sys.stderr, env=env,
                              timeout=left).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--save", help="directory to store the result record in")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        built = build()
    except subprocess.TimeoutExpired:
        built = False
    if not built or not BINARY.exists():
        log("perfbench: build failed")
        return 1

    run_dir = ROOT / ".bench_run" / f"{os.getpid()}-{time.time_ns()}"
    out_dir = ROOT / ".bench_out"
    run_dir.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--run-dir", str(run_dir), "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(run_dir), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: benchmark exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    result["metrics"] = with_units(result["metrics"], args.trace == "1")
    if result["metrics"] is None:
        return 1
    line = json.dumps(result)
    if args.save:
        save = Path(args.save)
        save.mkdir(parents=True, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": int(args.trace), "result": result}
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (save / name).write_text(json.dumps(record) + "\n")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
