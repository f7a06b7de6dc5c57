"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

- Two traced runs with the same seed report identical work counts, on
  every workload; on ``wfomc-cells`` another seed changes them.
- A deliberately perturbed reference is reported as a failure: with every
  reference shifted, one cycle of ``countdist`` and ``wfomc-exact`` fails
  every op, and one cycle of ``cli`` every op except ``check``, which
  compares against the oracle inside the CLI.  This runs in this process,
  through the same op runner and tally as the measuring loop.

Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

WORK_COUNTS = ("wfomc.compositions", "spectrum.frequencies", "compile.cells",
               "compile.pair_rows", "idft.points", "oracle.worlds")


def work_counts(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=600).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: result["metrics"][name]["value"] for name in WORK_COUNTS}


def _shift(value):
    """A reference value moved just outside every tolerance."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float) or hasattr(value, "denominator"):
        return value * (1 + 1e-6) + 1e-6
    if isinstance(value, list):
        return [_shift(v) for v in value]
    return value


def perturbed_cycle(workload: str) -> tuple[int, int, int]:
    """One cycle of a workload against shifted references; returns
    (attempted, failed, ops without a reference)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import reference
    import worker
    import workloads

    originals = {name: fn for name, fn in vars(reference).items()
                 if callable(fn) and not name.startswith("_")
                 and getattr(fn, "__module__", "") == "reference"
                 and name not in ("rel_err", "grid_err", "exact_rel_err")}
    for name, fn in originals.items():
        setattr(reference, name, lambda *a, _fn=fn, **k: _shift(_fn(*a, **k)))
    out_dir = os.path.join(ROOT, ".bench_out", f"selftest-{os.getpid()}")
    ctx = workloads.Context(ROOT, out_dir, len(os.sched_getaffinity(0)),
                            in_process_cli=True)
    try:
        ops, _ = workloads.build(workload, 7, ctx)
        tally = worker.Tally()
        for op in ops:
            _, err, note = worker._run_op(op, op.reference())
            tally.add(op.label, err, op.tol, note)
    finally:
        for name, fn in originals.items():
            setattr(reference, name, fn)
        shutil.rmtree(out_dir, ignore_errors=True)
    unreferenced = sum(1 for op in ops if op.label.startswith("check "))
    return tally.attempted, tally.failed, unreferenced


def main() -> int:
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {what}")

    for workload in WORKLOADS:
        first = work_counts(workload, 7)
        second = work_counts(workload, 7)
        report(first == second,
               f"{workload}: same seed, same work counts {first}")
        if workload == "wfomc-cells":
            other = work_counts(workload, 8)
            report(other != first,
                   f"{workload}: another seed changes the work counts {other}")

    for workload in ("countdist", "wfomc-exact", "cli"):
        attempted, failed, unreferenced = perturbed_cycle(workload)
        report(failed > 0 and failed == attempted - unreferenced,
               f"{workload}: perturbed references fail every op that has "
               f"one ({failed}/{attempted}, {unreferenced} without)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
