"""One benchmark process: set up a workload, run its ops, print one JSON line.

``run.py`` starts this file once per measurement so that set-up is timed
from process start.  Modes:

- ``setup``: import the engine, generate the inputs, report when the first
  op would start and the calibration kernel's time, and exit.
- ``measure``: closed loop, one op at a time, in whole cycles over the
  generated inputs until ``--seconds`` have passed and at least the
  workload's ``workloads.MIN_CYCLES`` have run; every result is checked
  against its reference outside the timed region.
- ``trace``: alternate untraced and traced cycles over the same inputs and
  report the per-layer metrics of ``tracer.analyse``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# Iterations of the calibration kernel: 1.1-2.5 ms on the 2-core box the
# baseline was taken on, depending on which of its two speeds it runs at.
CALIBRATION_ITERATIONS = 4000


def calibration_kernel() -> float:
    """Seconds taken by a fixed piece of interpreter work (dict updates and
    complex arithmetic) that shares no code with the engine.

    The 2-core box the baseline was taken on switches between two speeds,
    about 1.8x apart, in spells of 0.5-2 s, and the share of time spent in
    the slow one drifts over minutes.  The measuring loop runs this kernel
    between consecutive ops, and ``run.py`` scales each op's latency by the
    mean of the kernel times just before and just after it; each set-up
    time is scaled by the mean of the kernel timed at the start of its
    process and right after set-up.  Scaled this way, the median latency of
    ``fixed_point_distribution(9)`` varied by 3 % across four 15-second
    runs whose raw medians varied by 30 %.
    """
    start = time.perf_counter()
    table: dict = {}
    acc = 0j
    step = complex(0.999, 0.001)
    for i in range(CALIBRATION_ITERATIONS):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + 1
        acc = acc * step + i
    return time.perf_counter() - start


def _run_op(op, expected, call=lambda fn: fn()):
    """Time one op; returns (seconds, error, note).  The comparison with
    the reference runs after the clock stops."""
    start = time.perf_counter()
    try:
        result = call(op.run)
    except Exception as err:  # every engine failure counts against the run
        return time.perf_counter() - start, math.inf, f"{type(err).__name__}: {err}"
    seconds = time.perf_counter() - start
    try:
        return seconds, op.compare(result, expected), ""
    except Exception as err:
        return seconds, math.inf, f"compare raised {type(err).__name__}: {err}"


class Tally:
    """Attempts, failures and the worst reference error of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.failures: list[str] = []

    def add(self, label: str, err: float, tol: float, note: str = "") -> bool:
        self.attempted += 1
        ok = err <= tol
        if ok:
            self.max_err = max(self.max_err, err)
        else:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(f"{label}: error {err:g} > {tol:g} {note}".strip())
        return ok


def measure(ops, expected, seconds: float, min_cycles: int, tally: Tally,
            rss) -> dict:
    """Closed loop in whole cycles, at least min_cycles of them, with the
    calibration kernel between consecutive ops.  Peak RSS is read after
    the first cycle, so it covers a fixed amount of work; the end-of-run
    peak is reported beside it and shows any growth over the run."""
    latencies = []
    kernels = []  # per op: mean kernel time just before and just after it
    per_label: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    before = calibration_kernel()
    cycles = 0
    while cycles < min_cycles or time.perf_counter() < deadline:
        for op, want in zip(ops, expected):
            dt, err, note = _run_op(op, want)
            after = calibration_kernel()
            kernels.append((before + after) / 2)
            before = after
            ok = tally.add(op.label, err, op.tol, note)
            # A failed op misses every latency limit.
            latencies.append(dt if ok else math.inf)
            per_label.setdefault(op.label, []).append(dt)
        if cycles == 0:
            first_cycle_rss = rss()
        cycles += 1
    return {"latencies": latencies, "cycles": cycles, "kernels": kernels,
            "peak_rss_mb": first_cycle_rss, "end_rss_mb": rss(),
            "per_op_median_s": {k: statistics.median(v)
                                for k, v in per_label.items()}}


def trace(ops, expected, seconds: float, tally: Tally, workload: str,
          seed: int) -> dict:
    import tracer as tracing

    tr = tracing.Tracer()
    untraced = 0.0
    cycles = 0
    deadline = time.perf_counter() + seconds
    op_id = 0
    while cycles == 0 or time.perf_counter() < deadline:
        for op, want in zip(ops, expected):
            dt, err, note = _run_op(op, want)
            untraced += dt
            tally.add(op.label, err, op.tol, note)
        tr.install()
        try:
            for op, want in zip(ops, expected):
                _, err, note = _run_op(op, want,
                                       lambda fn: tr.run_op(op_id, fn))
                tally.add(op.label, err, op.tol, note)
                op_id += 1
        finally:
            tr.uninstall()
        cycles += 1
    metrics = tracing.analyse(tr.spans, cycles, len(ops))
    metrics["trace.overhead_ratio"] = (metrics["trace.op_wall_s"] * cycles
                                       / untraced if untraced else 0.0)
    shapes = _op_shapes(tr.spans, ops)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tr.write(os.path.join(ROOT, ".bench_out", f"trace-{workload}-{seed}.json"))
    return {"metrics": metrics, "cycles": cycles, "shapes": shapes}


def probe(probes) -> dict:
    """Run the numeric probes once, untimed; their failures are reported
    as metrics and listed, apart from the workload's attempted and failed
    ops."""
    probe_tally = Tally()
    for op in probes:
        _, err, note = _run_op(op, op.reference())
        probe_tally.add(op.label, err, op.tol, note)
    return {"probe_failures": probe_tally.failures,
            "probe_metrics": {"numeric.probes": probe_tally.attempted,
                              "numeric.probe_failures": probe_tally.failed}}


def _op_shapes(spans, ops) -> list[dict]:
    """Compiled size of each input, from the first traced cycle."""
    shapes = [{"op": op.label, "compile_calls": 0, "cells": 0, "branches": 0,
               "compositions": 0, "frequencies": 0} for op in ops]
    for span in spans:
        op = span["op"]
        if op is None or op >= len(ops):
            continue
        shape = shapes[op]
        counts = span["counts"]
        if span["name"] == "compile":
            shape["compile_calls"] += 1
            shape["cells"] = max(shape["cells"], counts.get("cells", 0))
            shape["branches"] = max(shape["branches"], counts.get("branches", 0))
        elif span["name"] == "wfomc":
            shape["compositions"] += counts.get("compositions", 0)
        elif span["name"] == "spectrum":
            shape["frequencies"] += counts.get("frequencies", 0)
    return shapes


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of a process that only imports mlncount."""
    from workloads import src_env

    env = src_env(ROOT)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mlncount"], env=env,
                       cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def src_lines() -> int:
    """Non-blank lines under src/mlncount/."""
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src", "mlncount")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as handle:
                    total += sum(1 for line in handle if line.strip())
    return total


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(blas),
    }


def _blas_threads(blas: dict) -> str:
    """Threads the BLAS under numpy runs with, as its own API reports."""
    import ctypes
    import glob

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    import numpy as np

    libdirs = [blas.get("lib directory", ""),
               os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")]
    for path in sorted(p for d in libdirs
                       for p in glob.glob(os.path.join(d, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    args = parser.parse_args(argv)
    # Timed before the engine is imported; run.py subtracts it from set-up.
    start_kernel = calibration_kernel()

    if args.workload != "cli":
        # Library ops run single-threaded, BLAS included, so that an op
        # runs on one core like the calibration kernel it is scaled by.
        # The environment record shows the setting.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401  (set-up covers the numpy import)
    import mlncount  # noqa: F401
    import workloads

    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    ctx = workloads.Context(ROOT, out_dir, len(os.sched_getaffinity(0)),
                            in_process_cli=args.mode == "trace")
    try:
        ops, oracle_checks = workloads.build(args.workload, args.seed, ctx)
        first_op = time.perf_counter()
        report = {"first_op": first_op, "start_kernel_s": start_kernel,
                  "setup_kernel_s": (start_kernel + calibration_kernel()) / 2,
                  "inputs": [{"op": op.label, **op.shape} for op in ops]}
        if args.mode == "setup":
            print(json.dumps(report))
            return 0
        expected = [op.reference() for op in ops]
        tally = Tally()
        if args.mode == "measure":
            who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
                   else resource.RUSAGE_SELF)
            report.update(measure(ops, expected, args.seconds,
                                  workloads.MIN_CYCLES[args.workload], tally,
                                  lambda: resource.getrusage(who).ru_maxrss / 1024))
            report["environment"] = environment()
            report["src_lines"] = src_lines()
        else:
            report.update(trace(ops, expected, args.seconds, tally,
                                args.workload, args.seed))
            report.update(probe(workloads.numeric_probes(args.workload,
                                                         args.seed)))
            report["metrics"]["cli.import_s"] = import_seconds()
            report["metrics"]["code.src_lines"] = src_lines()
            report["environment"] = environment()
        for check in oracle_checks:
            for label, err, tol in check():
                tally.add(label, err, tol)
        report.update(attempted=tally.attempted, failed=tally.failed,
                      max_rel_err=tally.max_err, failures=tally.failures)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
