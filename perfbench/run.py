#!/usr/bin/env python3
"""Benchmark of the evolve-and-certify pipeline.

Runs one workload (or all three) against the penwave sources of the checkout
this file sits in, and prints every metric by name with its unit, the
operations attempted and failed, and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run:

1. measures set-up SETUP_SAMPLES times: SETUP_SAMPLES - 1 probe processes
   plus the measured process itself, each timed from its start until it has
   imported penwave and built the workload's inputs; setup_s is the median;
2. for certify-sweep, computes the sympy and mpmath references in a separate
   process, so no oracle work is timed or counted in memory;
3. runs the workload in its own process for --seconds and collects its
   figures (end-to-end with --trace 0, per-layer with --trace 1).

Thread pools of numpy's BLAS are capped at the number of usable cores, and
glibc's mmap and trim thresholds are pinned so that peak RSS counts live
arrays.
Scratch files go under .perfbench-scratch/ and are removed at the end of the
run; results and traces go under .perfbench-out/.

Usage:
    python3 perfbench/run.py --workload null-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("null-pipeline", "store-certify", "certify-sweep")
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # glibc's dynamic mmap threshold let a 30 MB frame array land in the heap
    # on some runs and not others, moving store-certify's peak RSS by 30 MB
    # between identical runs.  Pinned: arrays of 4 MiB and more are mapped and
    # returned on free, and the heap keeps up to 64 MiB free at its top, so
    # the solver's per-step temporaries do not fault in fresh pages each step.
    env["MALLOC_MMAP_THRESHOLD_"] = str(4 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 << 20)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = cores
    return env


def start_workload(args, scratch: Path, extra: list[str], env) -> tuple[subprocess.Popen, float]:
    """Start a workload process and wait for READY; returns it with its set-up time."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{args.workload} did not finish set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def run_workload(args) -> dict:
    started = time.perf_counter()
    env = child_env()
    scratch = ROOT / ".perfbench-scratch" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            proc, setup = start_workload(args, scratch / f"probe{i}", ["--setup-only"], env)
            finish(proc, 60.0)
            setups.append(setup)
        if args.workload == "certify-sweep":
            scratch.mkdir(parents=True, exist_ok=True)
            subprocess.run([sys.executable, str(HERE / "oracle.py"), "--seed", str(args.seed),
                            "--out", str(scratch / "oracle.npz")],
                           env=env, cwd=ROOT, check=True, timeout=120)
        extra = ["--trace-out", str(out_dir / f"trace-{tag}.json")] if args.trace else []
        proc, setup = start_workload(args, scratch, extra, env)
        setups.append(setup)
        out = finish(proc, RUN_DEADLINE_S - (time.perf_counter() - started))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run is using it
            pass
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    with open(out_dir / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['rounds']} round(s)")
    for name, metric in sorted(result["metrics"].items()):
        print(f"  {name:38s} {metric['value']:.6g} {metric['unit']}")
    faults = ", ".join(f"{k} {v}" for k, v in sorted(result["faults"].items())) or "none"
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}"
          f" (known faults: {faults}); correct = {result['correct']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "penwave" / "__init__.py").is_file():
        print(f"error: no penwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = {}
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        try:
            results[workload] = run_workload(argparse.Namespace(**{**vars(args),
                                                                   "workload": workload}))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        report(workload, results[workload])
    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        final = {k: results[args.workload][k] for k in keys}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": m for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
