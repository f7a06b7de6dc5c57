"""The benchmark tracer wraps engine callables by name and reads the
compiled tables; these tests fail when either moves."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mlncount import (
    Atom, CountSpec, Domain, Exists, ForAll, Mln, Or, Predicate, Var,
    WeightFunction, compile_theory, constraints, lifted, mln, spectrum,
)
from mlncount.lifted import Fo2Theory

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracer  # noqa: E402

X, Y = Var("x"), Var("y")
F = Predicate("f", 2)
TOTALITY = ForAll(X, Exists(Y, Atom(F, (X, Y))))
ONTO = ForAll(Y, Exists(X, Atom(F, (X, Y))))


def test_install_wraps_and_uninstall_restores():
    originals = {(owner, attr): getattr(owner, attr)
                 for owner, attr in ((constraints, "partition_function"),
                                     (spectrum, "compile_theory"),
                                     (lifted.CompiledTheory, "wfomc"))}
    t = tracer.Tracer()
    t.install()
    try:
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original
    finally:
        t.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original


def test_every_count_and_indicator_is_traced():
    # Counts: one for Z, two for the marginal (Z and the query), one for the
    # count law.  Indicators: one per translation for the soft `p | q`, and
    # one more for the count formula `p | q`.
    p, q = Predicate("p", 1), Predicate("q", 1)
    px, qx = Atom(p, (X,)), Atom(q, (X,))
    model, d = Mln.of([(px, 0.4), (Or(px, qx), -0.3)], [p, q]), Domain(3)
    t = tracer.Tracer()
    t.install()
    try:
        t.run_op(0, lambda: mln.partition_function(model, d))
        t.run_op(1, lambda: mln.marginal(model, Exists(X, qx), d))
        t.run_op(2, lambda: spectrum.count_distribution(
            model, CountSpec.of([Or(px, qx)]), d))
    finally:
        t.uninstall()
    metrics = tracer.analyse(t.spans, 1, 3)
    assert metrics["wfomc.calls"] == 4
    assert metrics["translate.indicators"] == 4


def test_idft_diagnostics():
    record = {}
    tracer._idft_diagnostics(
        record, (spectrum.Spectrum(np.array([1.0, 0.5j, -0.5j])),), {})
    assert record["points"] == 3 and record["max_imag"] < 1e-15
    # f(n) = (1 - sin(2 pi n / 3)) / 3, least at n = 1.
    assert record["min_mass"] == pytest.approx((1 - 3 ** 0.5 / 2) / 3)


def _counts(sentences):
    compiled = compile_theory(Fo2Theory.of(sentences, [F]))
    record = {}
    tracer._compile_counts(record, compiled, (), {})
    tracer._wfomc_counts(record, None,
                         (compiled, WeightFunction(), WeightFunction(),
                          Domain(5)), {})
    return compiled, record


def test_compile_counts_of_a_grouped_theory():
    compiled, record = _counts([TOTALITY])
    (branch,) = compiled.branches
    assert branch.labels == ((0, 1),)
    # Two classes (sk true, with or without f(x,x)), one binary predicate.
    assert record == {"branches": 1, "cells": 2, "pair_rows": 7,
                      "pair_evals": math.comb(3, 2) * 4, "compositions": 1}


def test_compile_counts_of_a_two_label_theory():
    compiled, record = _counts([TOTALITY, ONTO])
    (branch,) = compiled.branches
    assert len(branch.labels) == 2
    # Compositions of the 5 elements into the two outer labels.
    assert record == {"branches": 1, "cells": 4, "pair_rows": 16,
                      "pair_evals": math.comb(5, 2) * 4, "compositions": 6}
