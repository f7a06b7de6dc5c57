"""Count distributions and their discrete Fourier transforms.

For a model and a list of formulas, the count distribution is the law of the
vector of true-grounding counts under the model's distribution.  Its DFT
value at frequency k is a weighted model count in which each count formula's
indicator predicate carries the root of unity ``exp(-2*pi*i*k_j/M_j)``.  All
frequencies are evaluated in one weighted count whose indicator weights are
arrays over the grid, so the composition sum is walked once.  Inverting the
transform on the full grid (by FFT) recovers the distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericResidueError
from .lifted import Fo2Theory, compile_theory
from .logic import (
    Atom, Domain, Formula, Iff, Predicate, count_true_groundings,
    fresh_name, free_variables, universal_closure,
)
from .mln import Mln, as_normalizer, translate_mln

SUM_TOL = 1e-6
IMAG_TOL = 1e-6
NEG_TOL = 1e-9


@dataclass(frozen=True)
class CountSpec:
    """The formulas whose true-grounding counts are tracked."""

    formulas: tuple[Formula, ...]

    def __post_init__(self):
        if not self.formulas:
            raise ValueError("count spec must contain at least one formula")

    @staticmethod
    def of(formulas) -> "CountSpec":
        return CountSpec(tuple(formulas))

    def __len__(self):
        return len(self.formulas)


def shape_vector(psi: CountSpec, d: Domain) -> tuple[int, ...]:
    """Grid side lengths: |domain|^(free vars) + 1 per formula."""
    return tuple(d.size ** len(free_variables(b)) + 1 for b in psi.formulas)


def count_statistics(psi: CountSpec, world, d: Domain) -> tuple[int, ...]:
    """Componentwise true-grounding counts of the spec's formulas."""
    return tuple(count_true_groundings(b, world, d) for b in psi.formulas)


@dataclass(frozen=True)
class Spectrum:
    """Complex transform values on the full frequency grid."""

    values: np.ndarray  # complex128, shape = shape_vector(psi, d)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


@dataclass(frozen=True)
class CountDistribution:
    """Probabilities on the count grid; indices are count vectors."""

    probabilities: np.ndarray  # float64, shape = shape_vector(psi, d)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probabilities.shape

    def __getitem__(self, index):
        return self.probabilities[index]


def _spectrum_values(phi: Mln, psi: CountSpec, d: Domain,
                     ks: np.ndarray) -> np.ndarray:
    """Normalized transform values at the frequency vectors in the columns
    of ``ks`` (one row per count formula), from one weighted count whose
    indicator weights are arrays over the columns."""
    theory, w, wbar = translate_mln(phi)
    used = {p.name for p in theory.vocabulary}
    sentences = list(theory.sentences)
    vocab = list(theory.vocabulary)
    roots = {}
    for beta, kj, mj in zip(psi.formulas, ks, shape_vector(psi, d)):
        fv = tuple(sorted(free_variables(beta), key=lambda v: v.name))
        xi = Predicate(fresh_name("xb", used), len(fv))
        vocab.append(xi)
        sentences.append(universal_closure(Iff(Atom(xi, fv), beta)))
        roots[xi.name] = np.exp(-2j * np.pi * kj / mj)
    compiled = compile_theory(Fo2Theory.of(sentences, vocab))
    # With the indicators at their default weight 1 the count is the
    # partition normalizer itself, exact for integer weights.
    z = as_normalizer(compiled.wfomc(w, wbar, d))
    raw = compiled.wfomc(w.updated(roots), wbar, d)
    return np.full(ks.shape[1], raw / z, dtype=np.complex128)


def spectrum_point(phi: Mln, psi: CountSpec, k, d: Domain) -> complex:
    """Transform value at one frequency vector: the normalized weighted
    count with root-of-unity indicator weights."""
    k = tuple(k)
    shape = shape_vector(psi, d)
    if len(k) != len(shape) or not all(
            0 <= kj < mj for kj, mj in zip(k, shape)):
        raise ValueError(f"frequency {k} outside grid {shape}")
    ks = np.array(k).reshape(-1, 1)
    return complex(_spectrum_values(phi, psi, d, ks)[0])


def full_spectrum(phi: Mln, psi: CountSpec, d: Domain,
                  threads: int = 1) -> Spectrum:
    """Transform values at every grid frequency, in C index order.

    ``threads`` is accepted for compatibility and selects nothing: the grid
    is evaluated in one vectorized pass.
    """
    shape = shape_vector(psi, d)
    ks = np.indices(shape).reshape(len(shape), -1)
    return Spectrum(_spectrum_values(phi, psi, d, ks).reshape(shape))


def forward_dft(values: np.ndarray) -> np.ndarray:
    """Multidimensional transform: g(k) = sum_n f(n) e^{-2 pi i <k, n/M>}."""
    return np.fft.fftn(np.asarray(values, dtype=np.complex128))


def inverse_dft_raw(values: np.ndarray) -> np.ndarray:
    """Inverse: f(n) = (1/prod M) sum_k g(k) e^{+2 pi i <n, k/M>}."""
    return np.fft.ifftn(np.asarray(values, dtype=np.complex128))


def inverse_dft(g: Spectrum) -> CountDistribution:
    """Invert a spectrum into a probability grid, checking residues.

    Imaginary parts above tolerance or negatives below ``-1e-9`` signal an
    upstream numeric fault; small negatives are clamped to zero.
    """
    raw = inverse_dft_raw(g.values)
    worst_imag = float(np.max(np.abs(raw.imag))) if raw.size else 0.0
    if worst_imag > IMAG_TOL:
        raise NumericResidueError(
            f"inverse transform has imaginary residue {worst_imag:g}")
    q = raw.real.copy()
    if q.size and float(q.min()) < -NEG_TOL:
        raise NumericResidueError(
            f"inverse transform has negative mass {float(q.min()):g}")
    np.clip(q, 0.0, None, out=q)
    return CountDistribution(q)


def count_distribution(phi: Mln, psi: CountSpec, d: Domain,
                       threads: int = 1) -> CountDistribution:
    """Distribution of the count vector under the model, via the spectrum
    on the full grid and an inverse FFT.  ``threads`` selects nothing."""
    dist = inverse_dft(full_spectrum(phi, psi, d))
    total = float(dist.probabilities.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise NumericResidueError(
            f"count distribution sums to {total!r}, expected 1")
    return dist
