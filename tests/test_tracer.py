"""The benchmark tracer wraps engine callables by name and reads the
compiled tables; these tests fail when either moves."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mlncount import (
    Atom, Domain, Exists, ForAll, Predicate, Var, WeightFunction,
    compile_theory, constraints, lifted, spectrum,
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
    assert branch.collapse.groups
    # Two classes (sk true, with or without f(x,x)), one binary predicate.
    assert record == {"branches": 1, "cells": 2, "pair_rows": 7,
                      "pair_evals": math.comb(3, 2) * 4, "compositions": 1}


def test_compile_counts_of_an_ungrouped_theory():
    compiled, record = _counts([TOTALITY, ONTO])
    (branch,) = compiled.branches
    assert not branch.collapse.groups
    assert record == {"branches": 1, "cells": 4, "pair_rows": 16,
                      "pair_evals": math.comb(5, 2) * 4,
                      "compositions": math.comb(5 + 3, 3)}
