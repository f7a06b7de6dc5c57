"""Count distributions and their discrete Fourier transforms.

For a model and a list of formulas, the count distribution is the law of the
vector of true-grounding counts under the model's distribution.  Its DFT
value at frequency k is a weighted model count in which the weight of each
true grounding of count formula j, placed by ``mln.translate_mln`` as a
soft formula's is, carries the root of unity ``exp(-2*pi*i*k_j/M_j)``.
All frequencies are evaluated in one weighted count whose weights are
arrays over the grid, so the composition sum is walked once.  At frequency
zero every root is 1 and the count is the normalizer Z itself.  A tilt t_j
multiplies that weight by exp(t_j), and so the mass of count vector n by
exp(<t, n>).  Inverting the transform on the full grid (by FFT) recovers
the distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GRID_IMAG_TOL, GRID_NEG_TOL, GRID_SUM_TOL, NumericResidueError,
)
from .lifted import compile_theory
from .logic import Domain, Formula, free_variables
from .mln import Mln, as_normalizer, translate_mln


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


@dataclass(frozen=True)
class Spectrum:
    """Complex transform values on the full frequency grid."""

    values: np.ndarray  # complex128, shape = shape_vector(psi, d)
    normalizer: float = 1.0  # Z, the count at frequency zero

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


@dataclass(frozen=True)
class CountDistribution:
    """Probabilities on the count grid; indices are count vectors."""

    probabilities: np.ndarray  # float64, shape = shape_vector(psi, d)
    normalizer: float = 1.0  # Z of the spectrum the grid was read from
    residue: float = 0.0  # worst |imaginary part| or negative mass inverted

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probabilities.shape


def full_spectrum(phi: Mln, psi: CountSpec, d: Domain, tilts=None) -> Spectrum:
    """Transform values at every grid frequency, in C index order, under
    the finite log-weights ``tilts``, one per count formula (none by
    default): one weighted count of the model translated with its count
    formulas (``translate_mln``), each true grounding of one weighing
    exp(tilt) times its roots of unity over the grid, normalized by Z, the
    count at frequency zero, which the spectrum carries."""
    tilts = [0.0] * len(psi) if tilts is None else tilts
    if len(tilts) != len(psi) or not all(map(math.isfinite, tilts)):
        raise ValueError(f"tilts {list(tilts)} are not one finite number per "
                         f"count formula, of {len(psi)}")
    shape = shape_vector(psi, d)
    ks = np.indices(shape).reshape(len(shape), -1)
    theory, w, wbar = translate_mln(phi, [
        (beta, tj, np.exp(-2j * np.pi * kj / mj))
        for beta, tj, kj, mj in zip(psi.formulas, tilts, ks, shape)])
    value, _ = compile_theory(theory).wfomc(w, wbar, d)
    raw = np.full(ks.shape[1], value, dtype=np.complex128)
    z = as_normalizer(complex(raw[0]))
    return Spectrum((raw / z).reshape(shape), z)


def inverse_dft_raw(values: np.ndarray) -> np.ndarray:
    """Inverse: f(n) = (1/prod M) sum_k g(k) e^{+2 pi i <n, k/M>}."""
    return np.fft.ifftn(np.asarray(values, dtype=np.complex128))


def inverse_dft(g: Spectrum) -> CountDistribution:
    """Invert a spectrum into a probability grid, checking residues.

    Imaginary parts above ``GRID_IMAG_TOL`` or negatives below
    ``-GRID_NEG_TOL`` signal an upstream numeric fault; smaller negatives
    are clamped to zero.  The worst of both is kept as the grid's
    ``residue``, a floor under which a bin's mass is round-off.
    """
    raw = inverse_dft_raw(g.values)
    worst_imag = float(np.max(np.abs(raw.imag))) if raw.size else 0.0
    if not worst_imag <= GRID_IMAG_TOL:  # NaN too
        raise NumericResidueError(f"inverse transform has imaginary residue "
                                  f"{worst_imag:g}, above {GRID_IMAG_TOL=:g}")
    q = raw.real.copy()
    worst_negative = -float(q.min()) if q.size else 0.0
    if not worst_negative <= GRID_NEG_TOL:
        raise NumericResidueError(f"inverse transform has negative mass "
                                  f"{-worst_negative:g} < -{GRID_NEG_TOL=:g}")
    np.clip(q, 0.0, None, out=q)
    return CountDistribution(q, g.normalizer, max(worst_imag, worst_negative))


def count_distribution(phi: Mln, psi: CountSpec, d: Domain,
                       threads: int = 1, tilts=None) -> CountDistribution:
    """Distribution of the count vector under the model tilted by
    ``tilts``, via the spectrum on the full grid and an inverse FFT.
    ``threads`` selects nothing."""
    dist = inverse_dft(full_spectrum(phi, psi, d, tilts=tilts))
    total = float(dist.probabilities.sum())
    if not abs(total - 1.0) <= GRID_SUM_TOL:
        raise NumericResidueError(f"count distribution sums to {total!r}, "
                                  f"more than {GRID_SUM_TOL=:g} away from 1")
    return dist
