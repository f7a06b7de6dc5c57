"""Hard constraints on grounding counts, and function constraints.

A cardinality constraint pairs count formulas with a 0/1 predicate over
their count vectors, any callable; worlds whose counts fail the predicate
get probability zero.  One reader lists the kept count vectors, then takes
their masses off one count grid, tilted toward the middle of the kept
counts on each axis and carrying its normalizer: the constrained
normalizer, every marginal (an extra axis for the query's truth) and the
fixed-point law of a random function (an extra axis for ``f(x, x)``) are
read off it.  The tilt depends on the kept set alone, not on how the
predicate spells it.

A function constraint on a binary relation (every element maps to exactly
one successor) is equivalent to totality plus the relation having exactly
domain-size true atoms, which makes it a cardinality constraint; the
three-variable uniqueness clause never has to be evaluated.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Sequence

import numpy as np

from .errors import (
    RESOLVE_LIMIT, InfeasibleConstraintError, NumericResidueError,
)
from .lifted import _check_fragment, times_exp
from .logic import (
    Atom, Domain, Exists, ForAll, Formula, Predicate, Var, _Value,
)
from .mln import Mln, as_probability
# Unused here; kept so that ``constraints.partition_function`` resolves.
from .mln import partition_function  # noqa: F401
from .spectrum import CountSpec, count_distribution, shape_vector


class Equals(_Value, namedtuple("Equals", "dim value")):
    __slots__ = ()

    def __call__(self, vector):
        return vector[self.dim] == self.value

    def dims(self):
        return (self.dim,)


class Between(_Value, namedtuple("Between", "dim lo hi")):
    __slots__ = ()

    def __call__(self, vector):
        return self.lo <= vector[self.dim] <= self.hi

    def dims(self):
        return (self.dim,)


class Conjunction(_Value, namedtuple("Conjunction", "parts")):
    __slots__ = ()

    def __call__(self, vector):
        return all(p(vector) for p in self.parts)

    def dims(self):
        return tuple(i for p in self.parts for i in _dims(p))


def _dims(predicate) -> tuple:
    """The count axes that ``predicate`` names: its ``dims()``, or none for
    a bare callable."""
    return predicate.dims() if hasattr(predicate, "dims") else ()


class CardinalityConstraint(_Value, namedtuple("CardinalityConstraint",
                                               "psi predicate")):
    """Count formulas ``psi`` and a predicate, ``vector -> bool``, on their
    count vectors; each axis it names (``dims()``) must be one of psi's."""

    __slots__ = ()

    def __new__(cls, psi: CountSpec, predicate):
        for dim in _dims(predicate):
            if not 0 <= dim < len(psi):
                raise ValueError(
                    f"predicate inspects dimension {dim} but the count spec"
                    f" has {len(psi)} formula(s)")
        return tuple.__new__(cls, (psi, predicate))


class FunctionConstraint(_Value, namedtuple("FunctionConstraint",
                                            "relation")):
    __slots__ = ()

    def __new__(cls, relation: Predicate):
        if relation.arity != 2:
            raise ValueError(
                f"function constraint needs a binary relation, got "
                f"{relation}")
        return tuple.__new__(cls, (relation,))


def _kept_masses(phi: Mln, cc: CardinalityConstraint, d: Domain, extra=()):
    """The tilted normalizer z, a shift s, and, per count vector of
    ``cc.psi`` that the predicate keeps, the masses over the grid of the
    formulas ``extra``: untilted, they are z * exp(s) * masses.

    The kept vectors are listed before anything is counted.  The tilt
    exp(<t, n>) aims each axis at the middle of its kept counts through
    smoothed log-odds, 0 for an axis kept whole, so the grid's masses keep
    full relative precision there and the same kept set gets the same tilt
    however the predicate spells it; undoing it is shifted by its largest
    exponent s, so no factor overflows.  Kept mass within
    ``RESOLVE_LIMIT`` times the grid's residue is round-off and raises."""
    shape = shape_vector(cc.psi, d)
    kept = np.array([idx for idx in np.ndindex(*shape) if cc.predicate(idx)])
    if not kept.size:
        raise InfeasibleConstraintError(
            "cardinality constraint excludes every world")
    middles = (kept.min(axis=0) + kept.max(axis=0)) / 2.0
    tilts = [math.log((t + 0.5) / (m - 1 - t + 0.5))
             for t, m in zip(middles, shape)]
    psi = CountSpec.of(cc.psi.formulas + tuple(extra))
    q = count_distribution(phi, psi, d, tilts=tilts + [0.0] * len(extra))
    exponents = -kept @ tilts
    shift = float(exponents.max())
    factors = np.exp(exponents - shift).reshape((-1,) + (1,) * len(extra))
    masses = q.probabilities[tuple(kept.T)] * factors
    total = float(masses.sum())
    noise = q.residue * float(factors.sum()) * masses[0].size
    if total <= RESOLVE_LIMIT * noise:
        raise NumericResidueError(
            f"kept mass {total:.3g} is not above {RESOLVE_LIMIT=:g} times the "
            f"transform residue {noise:.3g}: it is not told from round-off")
    return q.normalizer, shift, masses


def constrained_partition(phi: Mln, cc: CardinalityConstraint,
                          d: Domain) -> float:
    """Normalizer of the constrained distribution: the total unnormalized
    count mass on the grid points the predicate keeps."""
    z, shift, masses = _kept_masses(phi, cc, d)
    # Bit for bit (z * exp(shift)) * sum.
    return times_exp(float(masses.sum()), shift, z,
                     "constrained partition function")


def constrained_marginal(phi: Mln, cc: CardinalityConstraint,
                         gamma: Formula, d: Domain) -> float:
    """Probability of the sentence ``gamma`` under the constrained
    distribution, read off an extended count grid whose last axis tracks
    the query's truth.  The normalizer cancels from the ratio."""
    _check_fragment(gamma, phi.vocabulary)
    _, _, masses = _kept_masses(phi, cc, d, [gamma])
    return as_probability(float(masses[:, 1].sum() / masses.sum()),
                          "constrained marginal")


def rewrite_function_constraints(fcs: Sequence[FunctionConstraint],
                                 d: Domain):
    """Turn function constraints into hard totality sentences plus exact
    cardinality clauses on the relations' count axes.

    Returns (hard sentences, CardinalityConstraint); the constraint's count
    spec lists one ``r(x, y)`` formula per relation, in input order.
    """
    if not fcs:
        return [], None
    x, y = Var("x"), Var("y")
    atoms = [Atom(fc.relation, (x, y)) for fc in fcs]
    clauses = tuple(Equals(i, d.size) for i in range(len(fcs)))
    predicate = clauses[0] if len(clauses) == 1 else Conjunction(clauses)
    return ([ForAll(x, Exists(y, a)) for a in atoms],
            CardinalityConstraint(CountSpec.of(atoms), predicate))


def analytic_fixed_points(n: int, k: int) -> float:
    """Share of functions on n elements with exactly k fixed points:
    C(n, k) * (n-1)^(n-k) / n^n, evaluated in exact integer arithmetic."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    return math.comb(n, k) * (n - 1) ** (n - k) / n ** n


def fixed_point_distribution(n: int, threads: int = 1) -> np.ndarray:
    """Distribution of the number of fixed points of a uniform random
    function on n elements: the law of the diagonal count ``f(x, x)``
    under the function constraint on f.  ``threads`` selects nothing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f = Predicate("f", 2)
    sentences, cc = rewrite_function_constraints([FunctionConstraint(f)],
                                                 Domain(n))
    phi = Mln.of([(s, math.inf) for s in sentences], [f])
    _, _, masses = _kept_masses(phi, cc, Domain(n), [Atom(f, (Var("x"),) * 2)])
    row = masses.sum(axis=0)
    return row / row.sum()
