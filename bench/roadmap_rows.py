"""Re-measure the baseline rows listed under the ROADMAP's first open item.

    python3 bench/roadmap_rows.py

Each row runs three times in fresh state and reports the median wall time;
the CLI row runs one ``mlncount`` process per repeat with ``--threads`` =
cores.  Prints one JSON object.  The results are recorded in
``bench/BENCH_seed.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

REPEATS = 3


def timed(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    import math

    import mlncount
    from mlncount import constraints

    rows = {}
    for n in (10, 12):
        rows[f"fixedpoints n={n}"] = timed(
            lambda n=n: constraints.fixed_point_distribution(n, threads=1))

    f = mlncount.Predicate("f", 2)
    x, y = mlncount.Var("x"), mlncount.Var("y")
    total = mlncount.Mln.of(
        [(mlncount.ForAll(x, mlncount.Exists(y, mlncount.Atom(f, (x, y)))),
          math.inf)], [f])
    rows["totality Z n=100"] = timed(
        lambda: mlncount.partition_function(total, mlncount.Domain(100)))

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    model = os.path.join(ROOT, ".bench_out", "functions10.mln")
    with open(os.path.join(ROOT, "models", "functions3.mln"), encoding="utf-8") as src, \
            open(model, "w", encoding="utf-8") as dst:
        dst.write(src.read().replace("domain 3", "domain 10"))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, "-m", "mlncount.cli", "marginal", model,
            "--threads", str(len(os.sched_getaffinity(0)))]
    rows["cli marginal function model n=10"] = timed(
        lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True,
                               capture_output=True, timeout=300))
    os.remove(model)
    print(json.dumps({k: round(v, 4) for k, v in rows.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
