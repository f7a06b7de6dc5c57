"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import csv
import math
import random
import time

import numpy as np
import pytest

from mlncount import (
    And, Atom, CardinalityConstraint, Domain, Eq, Equals, Exists, ForAll,
    Implies, Mln, Predicate, Var, analytic_fixed_points, brute_wfomc,
    brute_count_distribution, compile_theory, constrained_partition,
    count_distribution, full_spectrum, inverse_dft_raw, partition_function,
)
from mlncount.brute import brute_constrained_partition
from mlncount.cli import main
from mlncount.spectrum import CountSpec

from helpers import (
    count_true_groundings, enumerate_worlds, evaluate, random_feasible_mln,
    random_theory, world_mass,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
F = Predicate("f", 2)
TOTALITY = ForAll(X, Exists(Y, Atom(F, (X, Y))))
EXAMPLE_MLN = Mln.of([(TOTALITY, math.inf)], [F])


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} [{name}] {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_fixed_point_experiment(tmp_path):
    out = tmp_path / "fp.csv"
    start = time.perf_counter()
    code = main(["fixedpoints", "--n", "10", "--out", str(out),
                 "--threads", "1"])
    elapsed = time.perf_counter() - start
    rows = list(csv.reader(out.open()))[1:]
    engine = {int(k): float(pe) for k, pe, _ in rows}
    worst = max(abs(engine[k] - analytic_fixed_points(10, k))
                for k in range(11))
    ok = code == 0 and worst <= 1e-6 and elapsed <= 60 and len(engine) == 11
    report(1, "fixed-point experiment",
           ok, f"max abs err {worst:.3e} (tol 1e-6), {elapsed:.2f}s (cap 60s)")


def test_criterion_2_oracle_equivalence():
    rng = random.Random(20260809)
    start = time.perf_counter()
    worst = 0.0
    instances = 0
    for _ in range(200):
        theory, w, wbar = random_theory(rng)
        for n in (1, 2, 3, 4):
            d = Domain(n)
            brute = brute_wfomc(list(theory.sentences), w, wbar, d,
                                vocab=theory.vocabulary)
            lifted = compile_theory(theory).wfomc(w, wbar, d)[0]
            err = abs(complex(lifted) - complex(brute)) / \
                (1 + abs(complex(brute)))
            worst = max(worst, err)
            instances += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 300
    report(2, "oracle equivalence",
           ok, f"{instances} instances, worst rel err {worst:.3e} "
               f"(tol 1e-9), {elapsed:.1f}s (cap 300s)")


def test_criterion_3_count_distribution_correctness():
    rng = random.Random(31337)
    worst = 0.0
    for _ in range(50):
        mln, psi, d = random_feasible_mln(rng, max_atoms=12)
        spec = CountSpec.of(psi)
        dist = count_distribution(mln, spec, d)
        reference = brute_count_distribution(mln, spec, d)
        for idx in np.ndindex(*dist.shape):
            err = abs(float(dist.probabilities[idx]) - reference.get(idx, 0.0))
            worst = max(worst, err)
    ok = worst <= 1e-6
    report(3, "count-distribution correctness",
           ok, f"50 models, worst per-point err {worst:.3e} (tol 1e-6)")


def test_criterion_4_function_counting_identity():
    worst = 0.0
    for n in range(1, 7):
        cc = CardinalityConstraint(CountSpec.of([Atom(F, (X, Y))]),
                                   Equals(0, n))
        got = constrained_partition(EXAMPLE_MLN, cc, Domain(n))
        rel = abs(got - n ** n) / n ** n
        worst = max(worst, rel)
    ok = worst <= 1e-6
    report(4, "function-counting identity",
           ok, f"sizes 1..6, worst rel err {worst:.3e} (tol 1e-6)")


def test_criterion_5_function_equivalence_exhaustive():
    uniqueness = ForAll(X, ForAll(Y, ForAll(Z, Implies(
        And(Atom(F, (X, Y)), Atom(F, (X, Z))), Eq(Y, Z)))))
    literal = And(TOTALITY, uniqueness)
    count_formula = Atom(F, (X, Y))
    discrepancies = 0
    worlds_checked = 0
    for n in (1, 2, 3):
        d = Domain(n)
        for w in enumerate_worlds([F], d):
            lhs = evaluate(literal, w, d)
            rhs = (evaluate(TOTALITY, w, d)
                   and count_true_groundings(count_formula, w, d) == n)
            discrepancies += lhs != rhs
            worlds_checked += 1
    ok = discrepancies == 0
    report(5, "function-constraint equivalence",
           ok, f"{worlds_checked} worlds over sizes 1..3, "
               f"{discrepancies} discrepancies")


def test_criterion_6_cardinality_ratio_preservation():
    rng = random.Random(606)
    worst = 0.0
    models = 0
    while models < 10:
        mln, psi, d = random_feasible_mln(rng, max_atoms=10)
        g = Equals(0, rng.randint(0, d.size))
        mass = {w: world_mass(mln, w, d)
                for w in enumerate_worlds(mln.vocabulary, d)}
        kept = [w for w in mass
                if g(tuple(count_true_groundings(b, w, d) for b in psi))
                and mass[w] > 0]
        if len(kept) < 2:
            continue
        z = math.fsum(mass.values())
        cc = CardinalityConstraint(CountSpec.of(psi), g)
        try:
            z_prime = constrained_partition(mln, cc, d)
        except Exception:
            continue
        z_prime_brute = brute_constrained_partition(mln, cc, d)
        worst = max(worst, abs(z_prime - z_prime_brute) / (1 + z_prime_brute))
        for w1 in kept[:5]:
            for w2 in kept[:5]:
                plain = (mass[w1] / z) / (mass[w2] / z)
                constrained = (mass[w1] / z_prime) / (mass[w2] / z_prime)
                worst = max(worst, abs(constrained - plain) / (1 + plain))
        models += 1
    ok = worst <= 1e-9
    report(6, "cardinality ratio preservation",
           ok, f"{models} models, worst deviation {worst:.3e} (tol 1e-9)")


def test_criterion_7_polynomial_scaling():
    times = {}
    for n in (10, 20, 30, 40, 50):
        best = math.inf
        for _ in range(3 if n <= 30 else 1):
            start = time.perf_counter()
            value = partition_function(EXAMPLE_MLN, Domain(n))
            best = min(best, time.perf_counter() - start)
        times[n] = max(best, 1e-4)
        assert value == (2 ** n - 1) ** n  # exact bignum count
    # Least-squares slope in log-log space bounds the growth degree.
    xs = [math.log(n) for n in times]
    ys = [math.log(t) for t in times.values()]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys)) / \
        sum((a - mean_x) ** 2 for a in xs)
    ok = times[50] <= 10.0 and slope <= 5.0
    report(7, "polynomial scaling",
           ok, f"t(50)={times[50] * 1000:.1f}ms (cap 10s), "
               f"fitted degree {slope:.2f} (cap 5)")


def test_criterion_8_dft_infrastructure():
    rng = np.random.default_rng(88)
    shapes = [(4,), (7,), (11,), (2, 3), (3, 4), (5, 5), (2, 3, 4), (3, 2, 2)]
    worst_roundtrip = 0.0
    for i in range(100):
        shape = shapes[i % len(shapes)]
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        back = inverse_dft_raw(np.fft.fftn(grid))
        worst_roundtrip = max(worst_roundtrip,
                              float(np.max(np.abs(back - grid))))
    rng2 = random.Random(808)
    worst_dc = 0.0
    for _ in range(10):
        mln, psi, d = random_feasible_mln(rng2)
        spec = full_spectrum(mln, CountSpec.of(psi), d)
        worst_dc = max(worst_dc,
                       abs(spec.values[(0,) * len(psi)] - 1.0))
    ok = worst_roundtrip <= 1e-9 and worst_dc <= 1e-9
    report(8, "transform infrastructure",
           ok, f"100 grids, worst roundtrip err {worst_roundtrip:.3e} "
               f"(tol 1e-9); zero-frequency dev {worst_dc:.3e} (tol 1e-9)")
