"""Benchmark of the mlncount engine: four workloads, checked against
independent references.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``):

- ``countdist``: count distributions and fixed-point laws; the per-frequency
  sweep and the naive inverse transform do the work.
- ``wfomc-cells``: partition functions and marginals of random soft
  two-variable models with 8-32 cells; compile and the composition sum do
  the work, in complex floating point.
- ``wfomc-exact``: hard-only models with closed-form counts at n up to 120;
  the exact big-integer path.
- ``cli``: one ``mlncount`` process per op (``python -m mlncount.cli``,
  ``--threads`` = cores): parsing, the constraint layer, the process pool,
  serialization and the ``check`` oracle.

Load is closed-loop with one client: the next op starts when the last one
has finished.  The library workloads run in one process with ``threads=1``.

``--trace 0`` prints the end-to-end metrics: the median op latency with its
sample count, the tail latency (the highest percentile with at least ten
samples beyond it), ops per second, set-up time (process start to first
op: interpreter, ``import mlncount`` and numpy, input generation; the median
of several processes), and peak RSS over the first cycle (for ``cli``, of
the largest child).  Times are scaled to a nominal machine speed measured
by a calibration kernel timed between ops and in each set-up process; see
``CALIBRATION_NOMINAL_S`` and ``worker.calibration_kernel``.
``--trace 1`` runs a separate in-process traced run and prints the
per-layer metrics of ``tracer.py``.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in this many processes per run, the measuring one
# included, and reported as their median.  Half of the others run before
# the measuring process and half after it.
SETUP_PROCESSES = 7
# End-to-end times are reported at the speed at which
# ``worker.calibration_kernel`` takes this long, about its mean speed on the
# 2-core box the baseline was taken on: each op's latency is scaled by this
# over the mean of the kernel times just before and just after the op, each
# set-up time by this over the kernel timed in its own process.  Raw times
# are printed beside the scaled ones.
CALIBRATION_NOMINAL_S = 0.0015
WORKER_TIMEOUT_S = 170


def _worker(args: list[str]) -> tuple[float, dict]:
    """Run worker.py in its own process group; returns (spawn time, report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}: "
                         f"{' '.join(args)}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (seconds, percentile); the largest sample when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _finite(x: float) -> float:
    # A failed op counts as infinitely slow; JSON has no infinity, so such
    # a percentile is written as 1e12 s (the run is marked incorrect anyway).
    return x if math.isfinite(x) else 1e12


def untraced(workload: str, seed: int, seconds: float):
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []  # (raw seconds, scaled seconds)

    def add_setup(spawned, report):
        raw = report["first_op"] - spawned - report["start_kernel_s"]
        setups.append((raw, raw * CALIBRATION_NOMINAL_S
                       / report["setup_kernel_s"]))

    before = (SETUP_PROCESSES - 1) // 2
    for _ in range(before):
        add_setup(*_worker(base + ["--seconds", "0", "--mode", "setup"]))
    spawned, report = _worker(base + ["--seconds", str(seconds),
                                      "--mode", "measure"])
    add_setup(spawned, report)
    for _ in range(SETUP_PROCESSES - 1 - before):
        add_setup(*_worker(base + ["--seconds", "0", "--mode", "setup"]))

    raw = report["latencies"]
    lat = [dt * CALIBRATION_NOMINAL_S / k
           for dt, k in zip(raw, report["kernels"])]
    p50, raw_p50 = statistics.median(lat), statistics.median(raw)
    (tail_s, tail_pct), (raw_tail, _) = tail(lat), tail(raw)
    finite = [x for x in lat if math.isfinite(x)]
    ops_per_s = len(finite) / sum(finite) if finite else 0.0
    raw_finite = [x for x in raw if math.isfinite(x)]
    raw_ops_per_s = len(raw_finite) / sum(raw_finite) if raw_finite else 0.0
    setup_raw = statistics.median(t for t, _ in setups)
    setup_s = statistics.median(t for _, t in setups)
    kernels = report["kernels"]
    metrics = {
        "op_p50_s": (_finite(p50), "s"),
        "op_tail_s": (_finite(tail_s), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    print(f"# {workload} seed={seed}: {len(lat)} ops in {report['cycles']} "
          f"cycles of {len(report['inputs'])} inputs, closed loop, 1 client")
    for op in report["inputs"]:
        median = report["per_op_median_s"].get(op["op"], math.nan)
        print(f"#   input {json.dumps(op)} raw median {median:.4f} s")
    print(f"# calibration kernel around each op: median "
          f"{statistics.median(kernels) * 1e3:.3f} ms, range "
          f"{min(kernels) * 1e3:.3f}-{max(kernels) * 1e3:.3f} ms; each time "
          f"below is scaled to a {CALIBRATION_NOMINAL_S * 1e3:g} ms kernel "
          f"(raw in brackets)")
    print(f"# op_p50_s = {p50:.6f} s [{raw_p50:.6f}] over {len(lat)} ops")
    beyond = "10 ops beyond it" if len(lat) > 10 else "the slowest op"
    print(f"# op_tail_s = {tail_s:.6f} s [{raw_tail:.6f}] at "
          f"p{tail_pct:.1f} ({beyond})")
    print(f"# ops_per_s = {ops_per_s:.4f} [{raw_ops_per_s:.4f}]")
    print(f"# setup_s = {setup_s:.4f} s [{setup_raw:.4f}], median of "
          f"{len(setups)} processes, raw samples "
          f"{[round(t, 4) for t, _ in setups]}")
    print(f"# peak_rss_mb = {report['peak_rss_mb']:.1f} MB over the first "
          f"cycle, {report['end_rss_mb']:.1f} MB at the end of the run"
          + (" (largest child)" if workload == "cli" else ""))
    print(f"# environment {json.dumps(report['environment'])}; "
          f"code.src_lines = {report['src_lines']}")
    print(f"# fail_ratio = {report['failed']}/{report['attempted']}; "
          f"check.max_rel_err = {report['max_rel_err']:.3g}")
    return report, metrics


def traced(workload: str, seed: int, seconds: float):
    _, report = _worker(["--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--mode", "trace"])
    print(f"# {workload} seed={seed}: traced run, {report['cycles']} traced "
          f"and {report['cycles']} untraced cycles, in one process")
    print(f"# environment {json.dumps(report['environment'])}")
    for shape in report["shapes"]:
        print(f"#   {json.dumps(shape)}")
    m = report["metrics"]
    print(f"# layer self-times cover {100 * m['trace.covered_share']:.1f} % "
          f"of op wall time; the remainder, {m['trace.uncovered_s']:.4f} s "
          f"per cycle, is harness and unwrapped glue")
    if workload == "cli":
        print("# cli ops run in-process through mlncount.cli.main; work in "
              "the spectrum's process pool counts as spectrum.self_s")
    m["check.max_rel_err"] = report["max_rel_err"]
    m.update(report["probe_metrics"])
    print(f"# numeric probes in ROADMAP item 2's defect regime, untimed and "
          f"apart from the ops: {m['numeric.probe_failures']} of "
          f"{m['numeric.probes']} failed")
    for failure in report["probe_failures"]:
        print(f"#   probe {failure}")
    metrics = {name: (value, _unit(name)) for name, value in m.items()}
    return report, metrics


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s_per_frequency"):
        return "s"
    if name.endswith("us_per_composition"):
        return "us"
    if name.endswith("src_lines"):
        return "lines"
    if name.endswith(("_ratio", "_share", "_err", "max_imag", "min_mass",
                      "_per_op")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "mlncount")):
        print("error: src/mlncount not found next to bench/", file=sys.stderr)
        return 2
    run = traced if args.trace else untraced
    report, metrics = run(args.workload, args.seed, args.seconds)
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
