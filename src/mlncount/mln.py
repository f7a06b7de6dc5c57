"""Weighted-formula models and their inference queries.

A model is a set of weighted two-variable formulas; weight ``+inf`` marks a
hard constraint.  Inference reduces to weighted model counting: each soft
formula gets a fresh indicator predicate tied to it by an equivalence, with
weight ``exp(w)`` on the indicator, and each hard formula becomes the
universal closure itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InfeasibleConstraintError, NumericResidueError, UnsupportedSentenceError,
)
from .lifted import Fo2Theory, lifted_wfomc
from .logic import (
    Atom, Domain, Formula, Iff, Predicate, WeightFunction, all_variables,
    fresh_name, free_variables, universal_closure,
)

IMAG_TOL = 1e-9


@dataclass(frozen=True)
class Mln:
    """Weighted formulas (natural-log scale) over a declared vocabulary."""

    weighted_formulas: tuple[tuple[Formula, float], ...]
    vocabulary: tuple[Predicate, ...]

    @staticmethod
    def of(weighted_formulas, vocabulary) -> "Mln":
        return Mln(tuple((f, float(w)) for f, w in weighted_formulas),
                   tuple(vocabulary))


def translate_mln(phi: Mln):
    """Reduce the model to a weighted counting problem.

    Soft formulas (a, w) add ``forall vars: xi(vars) <-> a`` with
    ``w(xi) = exp(w)``; hard formulas add their universal closure.  Returns
    (theory, w, wbar).
    """
    used = {p.name for p in phi.vocabulary}
    sentences = []
    vocab = list(phi.vocabulary)
    weights = {}
    for formula, weight in phi.weighted_formulas:
        if len({v.name for v in all_variables(formula)}) > 2:
            raise UnsupportedSentenceError(
                f"formula uses more than two variables: {formula}")
        if math.isinf(weight):
            if weight < 0:
                raise ValueError("weight -inf is not meaningful; negate the "
                                 "formula and use +inf")
            sentences.append(universal_closure(formula))
            continue
        fv = tuple(sorted(free_variables(formula), key=lambda v: v.name))
        xi = Predicate(fresh_name("xi", used), len(fv))
        vocab.append(xi)
        sentences.append(universal_closure(Iff(Atom(xi, fv), formula)))
        weights[xi.name] = math.exp(weight)
    return (Fo2Theory.of(sentences, vocab),
            WeightFunction(weights), WeightFunction())


def as_real(value, what: str):
    """Check the imaginary residue of a count that must be real."""
    if isinstance(value, complex):
        if abs(value.imag) > IMAG_TOL * (1 + abs(value)):
            raise NumericResidueError(
                f"{what} has imaginary residue {value.imag:g} "
                f"(value {value!r})")
        return value.real
    return value


def as_normalizer(value):
    """Check a weighted count that a probability divides by: real, and
    positive unless numerically negative (a fault) or zero (no world)."""
    z = as_real(value, "partition function")
    if z <= 0:
        if isinstance(z, float) and z < -IMAG_TOL:
            raise NumericResidueError(f"partition function is negative: {z!r}")
        raise InfeasibleConstraintError(
            "partition function is zero: every world is excluded")
    return z


PROB_TOL = 1e-9


def as_probability(p: float, what: str) -> float:
    """Clamp a round-off excursion of a probability into [0, 1]; one beyond
    ``PROB_TOL`` is a numeric fault, not a probability."""
    if not -PROB_TOL <= p <= 1 + PROB_TOL:
        raise NumericResidueError(f"{what} {p!r} lies outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def partition_function(phi: Mln, d: Domain):
    """Normalization constant of the model's distribution; exact when all
    effective weights are integers."""
    theory, w, wbar = translate_mln(phi)
    return as_normalizer(lifted_wfomc(theory, w, wbar, d))


def marginal(phi: Mln, gamma: Formula, d: Domain) -> float:
    """Probability that a sampled world satisfies the sentence ``gamma``."""
    if free_variables(gamma):
        raise UnsupportedSentenceError(
            f"query must be a sentence (no free variables): {gamma}")
    if len({v.name for v in all_variables(gamma)}) > 2:
        raise UnsupportedSentenceError(
            f"query uses more than two variables: {gamma}")
    theory, w, wbar = translate_mln(phi)
    den = as_normalizer(lifted_wfomc(theory, w, wbar, d))
    extended = Fo2Theory.of(theory.sentences + (gamma,), theory.vocabulary)
    num = as_real(lifted_wfomc(extended, w, wbar, d), "query count")
    if isinstance(num, int) and isinstance(den, int):
        p = float(Fraction(num, den))
    else:
        p = num / den
    return as_probability(p, "marginal")
