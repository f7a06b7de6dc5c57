"""Hard constraints on grounding counts, and function constraints.

A cardinality constraint pairs count formulas with a 0/1 predicate over
their count vectors; worlds whose counts fail the predicate get probability
zero.  One reader takes the kept masses off one count grid, tilted toward
the kept region and carrying its normalizer: the constrained normalizer,
every marginal (an extra axis for the query's truth) and the fixed-point
law of a random function (an extra axis for ``f(x, x)``) are read off it.

A function constraint on a binary relation (every element maps to exactly
one successor) is equivalent to totality plus the relation having exactly
domain-size true atoms, which makes it a cardinality constraint; the
three-variable uniqueness clause never has to be evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InfeasibleConstraintError, NumericOverflowError, NumericResidueError,
)
from .logic import Atom, Domain, Exists, ForAll, Formula, Predicate, Var
from .mln import Mln, as_probability
# Unused here; kept so that ``constraints.partition_function`` resolves.
from .mln import partition_function  # noqa: F401
from .spectrum import CountSpec, count_distribution, shape_vector

# Kept mass within this factor of the transform residue summed over its
# bins has under 4 right digits left.
RESOLVE_LIMIT = 1e4


class CardinalityPredicate:
    """Total 0/1 predicate over integer count vectors."""

    def __call__(self, vector: Sequence[int]) -> bool:
        raise NotImplementedError

    def max_dimension(self) -> int:
        """Largest vector index the predicate inspects, or -1."""
        return -1


@dataclass(frozen=True)
class TautologyTrue(CardinalityPredicate):
    def __call__(self, vector):
        return True


@dataclass(frozen=True)
class Equals(CardinalityPredicate):
    dim: int
    value: int

    def __call__(self, vector):
        return vector[self.dim] == self.value

    def max_dimension(self):
        return self.dim


@dataclass(frozen=True)
class Between(CardinalityPredicate):
    dim: int
    lo: int
    hi: int

    def __call__(self, vector):
        return self.lo <= vector[self.dim] <= self.hi

    def max_dimension(self):
        return self.dim


@dataclass(frozen=True)
class Conjunction(CardinalityPredicate):
    parts: tuple[CardinalityPredicate, ...]

    def __call__(self, vector):
        return all(p(vector) for p in self.parts)

    def max_dimension(self):
        return max((p.max_dimension() for p in self.parts), default=-1)


@dataclass(frozen=True)
class CustomPredicate(CardinalityPredicate):
    """Escape hatch wrapping an arbitrary total predicate on count vectors."""

    fn: Callable[[Sequence[int]], bool]

    def __call__(self, vector):
        return bool(self.fn(vector))


@dataclass(frozen=True)
class CardinalityConstraint:
    psi: CountSpec
    predicate: CardinalityPredicate

    def __post_init__(self):
        if self.predicate.max_dimension() >= len(self.psi):
            raise ValueError(
                f"predicate inspects dimension {self.predicate.max_dimension()}"
                f" but the count spec has {len(self.psi)} formula(s)")


@dataclass(frozen=True)
class FunctionConstraint:
    relation: Predicate

    def __post_init__(self):
        if self.relation.arity != 2:
            raise ValueError(
                f"function constraint needs a binary relation, got "
                f"{self.relation}")


def _targets(predicate: CardinalityPredicate) -> dict[int, float]:
    """Per-dimension target counts of the structured predicates; none for
    predicates whose shape gives no center (tautologies, escape-hatch
    functions), which leaves their dimensions untilted."""
    if isinstance(predicate, Equals):
        return {predicate.dim: float(predicate.value)}
    if isinstance(predicate, Between):
        return {predicate.dim: (predicate.lo + predicate.hi) / 2.0}
    if isinstance(predicate, Conjunction):
        merged: dict[int, float] = {}
        for part in predicate.parts:
            merged.update(_targets(part))
        return merged
    return {}


def _tilt_vector(psi: CountSpec, d: Domain,
                 targets: dict[int, float]) -> list[float]:
    """Log-weights that pull the count mass toward the targets; the
    smoothed odds keep zero and full targets finite."""
    tilts = [0.0] * len(psi)
    for dim, target in targets.items():
        total = shape_vector(psi, d)[dim] - 1
        target = min(max(target, 0.0), float(total))
        tilts[dim] = math.log((target + 0.5) / (total - target + 0.5))
    return tilts


def _kept_masses(phi: Mln, cc: CardinalityConstraint, d: Domain, extra=()):
    """The tilted normalizer z, a shift s, and, per count vector of
    ``cc.psi`` that the predicate keeps, the masses over the grid of the
    formulas ``extra``: untilted, they are z * exp(s) * masses.

    The tilt exp(<t, n>) centers the grid on the kept region, so its masses
    keep full relative precision there; undoing it is shifted by its
    largest exponent s, so no factor overflows.  Kept mass within
    ``RESOLVE_LIMIT`` times the grid's residue is round-off and raises."""
    psi = CountSpec.of(cc.psi.formulas + tuple(extra))
    tilts = _tilt_vector(psi, d, _targets(cc.predicate))
    q = count_distribution(phi, psi, d, tilts=tilts)
    kept = np.array([idx for idx in np.ndindex(*q.shape[:len(cc.psi)])
                     if cc.predicate(idx)])
    if not kept.size:
        raise InfeasibleConstraintError(
            "cardinality constraint excludes every world")
    exponents = -kept @ tilts[:len(cc.psi)]
    shift = float(exponents.max())
    factors = np.exp(exponents - shift).reshape((-1,) + (1,) * len(extra))
    masses = q.probabilities[tuple(kept.T)] * factors
    total = float(masses.sum())
    noise = q.residue * float(factors.sum()) * masses[0].size
    if total <= RESOLVE_LIMIT * noise:
        raise NumericResidueError(
            f"kept mass {total:.3g} is not above {RESOLVE_LIMIT:g} times the "
            f"transform residue {noise:.3g}: it is not told from round-off")
    return q.normalizer, shift, masses


def constrained_partition(phi: Mln, cc: CardinalityConstraint,
                          d: Domain) -> float:
    """Normalizer of the constrained distribution: the total unnormalized
    count mass on the grid points the predicate keeps."""
    z, shift, masses = _kept_masses(phi, cc, d)
    try:
        value = z * math.exp(shift) * float(masses.sum())
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise NumericOverflowError(
            "constrained partition function exceeds the float range")
    return value


def constrained_marginal(phi: Mln, cc: CardinalityConstraint,
                         gamma: Formula, d: Domain) -> float:
    """Probability of the sentence ``gamma`` under the constrained
    distribution, read off an extended count grid whose last axis tracks
    the query's truth.  The normalizer cancels from the ratio."""
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
