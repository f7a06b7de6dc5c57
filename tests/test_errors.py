"""The numeric limits: one table in ``errors``, and errors that name the
limit they crossed."""

import ast
import math
import pathlib
import warnings

import numpy as np
import pytest

import mlncount
from mlncount import errors, spectrum
from mlncount.errors import NumericOverflowError, NumericResidueError
from mlncount.logic import Atom, Domain, Predicate, Var
from mlncount.mln import Mln, as_normalizer, as_real
from mlncount.spectrum import CountDistribution, CountSpec, Spectrum

P = Predicate("p", 1)


def _bound_names(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        targets = []
    for target in targets:
        for name in ast.walk(target):
            if isinstance(name, ast.Name):
                yield name.id


def test_only_errors_binds_a_tolerance_or_limit():
    # A tolerance defined next to its check drifts from the others: every
    # module reads them from the one table instead.
    package = pathlib.Path(mlncount.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _bound_names(node):
                assert not name.endswith(("_TOL", "_LIMIT")), (path.name, name)


def test_table_values():
    table = {name: value for name, value in vars(errors).items()
             if name.endswith(("_TOL", "_LIMIT"))}
    assert table == {
        "MAGNITUDE_LIMIT": 1e300, "CANCEL_LIMIT": 1e12,
        "COUNT_IMAG_TOL": 1e-9, "PROB_TOL": 1e-9, "GRID_IMAG_TOL": 1e-6,
        "GRID_NEG_TOL": 1e-9, "GRID_SUM_TOL": 1e-6, "RESOLVE_LIMIT": 1e4,
        "CHECK_TOL": 1e-9}


def test_count_imaginary_residue_names_its_limit():
    with pytest.raises(NumericResidueError, match="COUNT_IMAG_TOL=1e-09"):
        as_real(complex(2.0, 1e-6), "query count")
    assert as_real(complex(2.0, 1e-12), "query count") == 2.0


@pytest.mark.parametrize("bin_value,limit", [
    (0.5 + 1e-3j, "GRID_IMAG_TOL=1e-06"), (-1e-6, "GRID_NEG_TOL=1e-09")])
def test_grid_residue_names_its_limit(bin_value, limit):
    grid = np.array([1.0, 0.0, 0.0], dtype=complex)
    grid[1] = bin_value
    with pytest.raises(NumericResidueError, match=limit):
        spectrum.inverse_dft(Spectrum(np.fft.fftn(grid)))


def test_grid_sum_names_its_limit(monkeypatch):
    monkeypatch.setattr(spectrum, "inverse_dft", lambda g: CountDistribution(
        np.array([0.25, 0.25]), g.normalizer))
    mln = Mln.of([], [P])
    with pytest.raises(NumericResidueError, match="GRID_SUM_TOL=1e-06"):
        spectrum.count_distribution(mln, CountSpec.of([Atom(P, (Var("x"),))]),
                                    Domain(1))


# NaN compares false with every limit, so each check is written to fail
# unless its value is within the limit.

def test_nan_spectrum_is_a_residue_error():
    with pytest.raises(NumericResidueError, match="GRID_IMAG_TOL"):
        spectrum.inverse_dft(Spectrum(np.array([1.0, np.nan, 0.5])))


def test_nan_grid_total_is_a_residue_error(monkeypatch):
    monkeypatch.setattr(spectrum, "inverse_dft", lambda g: CountDistribution(
        np.array([np.nan, 0.5]), g.normalizer))
    with pytest.raises(NumericResidueError, match="GRID_SUM_TOL"):
        spectrum.count_distribution(Mln.of([], [P]), CountSpec.of(
            [Atom(P, (Var("x"),))]), Domain(1))


@pytest.mark.parametrize("z", [complex(math.nan, 0), math.nan,
                               complex(1.0, math.nan)])
def test_nan_normalizer_is_a_residue_error(z):
    # A NaN count is reported as NaN, not as an imaginary residue of 0.
    with pytest.raises(NumericResidueError, match="NaN") as raised:
        as_normalizer(z)
    assert "imaginary residue" not in str(raised.value)


def test_weight_overflow_raises_without_a_warning():
    # The finiteness check after the multiply is what reports it.
    mln = Mln.of([(Atom(P, (Var("x"),)), 400.0)], [P])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError, match="weight 400 of p"):
            spectrum.count_distribution(mln, CountSpec.of(
                [Atom(P, (Var("x"),))]), Domain(3), tilts=[400.0])
