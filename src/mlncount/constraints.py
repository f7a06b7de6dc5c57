"""Hard constraints on grounding counts, and function constraints.

A cardinality constraint pairs count formulas with a 0/1 predicate over
their count vectors; worlds whose counts fail the predicate get probability
zero.  Inference routes through the full count distribution, so one grid
computation, tilted toward the kept region and carrying its normalizer,
serves both the constrained normalizer and every marginal.

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

from .errors import InfeasibleConstraintError, NumericOverflowError
from .logic import Atom, Domain, Exists, ForAll, Formula, Predicate, Var
from .mln import Mln, as_probability
# Unused here; kept so that ``constraints.partition_function`` resolves.
from .mln import partition_function  # noqa: F401
from .spectrum import CountSpec, count_distribution, shape_vector


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
    """The tilted normalizer, the total kept mass, and the mass of each
    nonzero grid point whose first ``len(cc.psi)`` counts the predicate
    keeps, on the grid of ``cc.psi`` and then the formulas ``extra``.

    The masses are shares of the normalizer, evaluated through a tilt
    exp(<t, n>) centered on the kept region and undone per grid point, so
    they keep full relative precision where a far-off-center region's mass
    would otherwise be lost to transform round-off."""
    psi = CountSpec.of(cc.psi.formulas + tuple(extra))
    tilts = _tilt_vector(psi, d, _targets(cc.predicate))
    q = count_distribution(phi, psi, d, tilts=tilts)
    try:
        masses = {idx: float(q.probabilities[idx])
                  * math.exp(-sum(t * i for t, i in zip(tilts, idx)))
                  for idx in np.ndindex(*q.shape)
                  if cc.predicate(idx[:len(cc.psi)])
                  and q.probabilities[idx] != 0}
    except OverflowError as err:
        raise NumericOverflowError(
            f"undoing the constraint tilt overflowed: {err}") from err
    total = math.fsum(masses.values())
    if total <= 0.0:
        raise InfeasibleConstraintError(
            "cardinality constraint excludes every world")
    return q.normalizer, total, masses


def constrained_partition(phi: Mln, cc: CardinalityConstraint, d: Domain,
                          threads: int = 1) -> float:
    """Normalizer of the constrained distribution: the total unnormalized
    count mass on the grid points the predicate keeps.  ``threads`` selects
    nothing."""
    z, _, masses = _kept_masses(phi, cc, d)
    return math.fsum(mass * z for mass in masses.values())


def constrained_marginal(phi: Mln, cc: CardinalityConstraint,
                         gamma: Formula, d: Domain,
                         threads: int = 1) -> float:
    """Probability of the sentence ``gamma`` under the constrained
    distribution, read off an extended count grid whose last axis tracks
    the query's truth.  The normalizer cancels from the ratio.  ``threads``
    selects nothing."""
    _, total, masses = _kept_masses(phi, cc, d, [gamma])
    num = math.fsum(mass for idx, mass in masses.items() if idx[-1] == 1)
    return as_probability(num / total, "constrained marginal")


def rewrite_function_constraints(fcs: Sequence[FunctionConstraint],
                                 d: Domain):
    """Turn function constraints into hard totality sentences plus exact
    cardinality clauses on the relations' count axes.

    Returns (hard sentences, CardinalityConstraint); the constraint's count
    spec lists one ``r(x, y)`` formula per relation, in input order.
    """
    x, y = Var("x"), Var("y")
    sentences = []
    betas = []
    clauses = []
    for i, fc in enumerate(fcs):
        r = fc.relation
        sentences.append(ForAll(x, Exists(y, Atom(r, (x, y)))))
        betas.append(Atom(r, (x, y)))
        clauses.append(Equals(i, d.size))
    if not fcs:
        return [], None
    predicate = clauses[0] if len(clauses) == 1 else Conjunction(tuple(clauses))
    return sentences, CardinalityConstraint(CountSpec.of(betas), predicate)


def analytic_fixed_points(n: int, k: int) -> float:
    """Share of functions on n elements with exactly k fixed points:
    C(n, k) * (n-1)^(n-k) / n^n, evaluated in exact integer arithmetic."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    return math.comb(n, k) * (n - 1) ** (n - k) / n ** n


def fixed_point_distribution(n: int, threads: int = 1,
                             tilt: float | None = None) -> np.ndarray:
    """Distribution of the number of fixed points of a uniform random
    function on n elements, computed through the count-distribution engine.

    The model is the hard totality sentence on a binary relation; tracking
    the relation's size and its diagonal count, the worlds with size exactly
    n are the functions and the diagonal count is the number of fixed points.

    ``tilt`` is a log-weight on the indicator of the relation's count
    formula, so each true atom weighs exp(tilt).  It scales the whole size-m
    row by exp(tilt*m), so the conditional distribution along the row is
    unchanged; the default ln(1/(n-1)) centers the row mass near
    size n, without which the target row drowns in transform round-off for
    n beyond ~6 (its relative mass decays like n^n / (2^n - 1)^n).
    ``threads`` selects nothing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = Predicate("f", 2)
    x, y = Var("x"), Var("y")
    if tilt is None:
        tilt = -math.log(n - 1) if n > 2 else 0.0
    phi = Mln.of([(ForAll(x, Exists(y, Atom(f, (x, y)))), math.inf)], [f])
    psi = CountSpec.of([Atom(f, (x, y)), Atom(f, (x, x))])
    q = count_distribution(phi, psi, Domain(n), tilts=[tilt, 0.0])
    row = q.probabilities[n, : n + 1].astype(float)
    total = math.fsum(row)
    if total <= 0.0:
        raise InfeasibleConstraintError("no worlds with the exact relation size")
    return row / total
