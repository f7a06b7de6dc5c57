"""Weighted-formula models and their inference queries.

A model is a set of weighted two-variable formulas; weight ``+inf`` marks a
hard constraint.  Inference reduces to weighted model counting: each hard
formula becomes its universal closure, and each soft formula multiplies
``exp(w)`` into w(p), or wbar(p) if negated, of its own predicate p if it
is a literal, else of a fresh indicator tied to it by an equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InfeasibleConstraintError, NumericOverflowError, NumericResidueError,
)
from . import lifted
from .lifted import Fo2Theory
from .logic import (
    Atom, Domain, Formula, Iff, Not, Predicate, Var, WeightFunction,
    fresh_name, free_variables, universal_closure,
)

IMAG_TOL = 1e-9
CANCEL_LIMIT = 1e12  # beyond it, under 4 of a double's digits are left


@dataclass(frozen=True)
class Mln:
    """Weighted formulas (natural-log scale) over a declared vocabulary."""

    weighted_formulas: tuple[tuple[Formula, float], ...]
    vocabulary: tuple[Predicate, ...]

    @staticmethod
    def of(weighted_formulas, vocabulary) -> "Mln":
        return Mln(tuple((f, float(w)) for f, w in weighted_formulas),
                   tuple(vocabulary))


def _counting_predicate(formula: Formula, declared, vocab, base: str):
    """(p, side, ties): w(p) if ``side`` is True, else wbar(p), weighs each
    true grounding of ``formula``, and the sentences ``ties`` tie p to it.
    A ``declared`` atom over distinct variables, or its negation, needs no
    tie; any other formula gets a p named from ``base``, fresh in ``vocab``,
    over its free variables and ``forall vars: p(vars) <-> formula``."""
    atom = formula.body if isinstance(formula, Not) else formula
    if isinstance(atom, Atom) and atom.pred in declared and len(
            {a for a in atom.args if isinstance(a, Var)}) == atom.pred.arity:
        return atom.pred, atom is formula, ()
    fv = tuple(sorted(free_variables(formula), key=lambda v: v.name))
    xi = Predicate(fresh_name(base, {p.name for p in vocab}), len(fv))
    return xi, True, (universal_closure(Iff(Atom(xi, fv), formula)),)


def translate_mln(phi: Mln):
    """Reduce the model to a weighted counting problem.

    A soft formula (a, w) multiplies ``exp(w)`` into the weight that counts
    a's true groundings (``_counting_predicate``); hard formulas add their
    universal closure.  Returns (theory, w, wbar).
    """
    sentences, vocab = [], list(phi.vocabulary)
    weights = [WeightFunction(), WeightFunction()]  # wbar, w
    for formula, weight in phi.weighted_formulas:
        if math.isinf(weight):
            if weight < 0:
                raise ValueError("weight -inf is not meaningful; negate the "
                                 "formula and use +inf")
            sentences.append(universal_closure(formula))
            continue
        pred, positive, ties = _counting_predicate(formula, phi.vocabulary,
                                                   vocab, "xi")
        if ties:
            vocab.append(pred)
        sentences.extend(ties)
        side = weights[positive]
        try:
            value = side(pred) * math.exp(weight)
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise NumericOverflowError(
                f"weight {weight:g} of {formula} leaves the float range")
        weights[positive] = side.updated({pred.name: value})
    return Fo2Theory.of(sentences, vocab), weights[True], weights[False]


def as_real(value, what: str):
    """Check the imaginary residue of a count that must be real."""
    if isinstance(value, complex):
        if abs(value.imag) > IMAG_TOL * (1 + abs(value)):
            raise NumericResidueError(
                f"{what} has imaginary residue {value.imag:g} "
                f"(value {value!r})")
        return value.real
    return value


def as_normalizer(value, magnitude=0):
    """Check a weighted count that a probability divides by: real, at least
    1/``CANCEL_LIMIT`` of its terms' summed ``magnitude``, and positive
    unless numerically negative (a fault) or zero (no world)."""
    z = as_real(value, "partition function")
    if magnitude and z and magnitude > CANCEL_LIMIT * abs(z):
        raise NumericResidueError(
            f"partition function {z!r} cancels {magnitude / abs(z):.2g}-fold,"
            f" outside what double precision resolves")
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
    return as_normalizer(*lifted.compile_theory(theory)._wfomc(w, wbar, d))


def marginal(phi: Mln, gamma: Formula, d: Domain) -> float:
    """Probability that a sampled world satisfies the sentence ``gamma``.
    A ``forall x m`` or ``exists x m`` gamma costs no second compile."""
    theory, w, wbar = translate_mln(phi)
    lifted._check_fragment(gamma, theory.vocabulary)
    compiled = lifted.compile_theory(theory)
    den = as_normalizer(*compiled._wfomc(w, wbar, d))
    query = compiled._conditioned(gamma) or lifted.compile_theory(
        Fo2Theory.of(theory.sentences + (gamma,), theory.vocabulary))
    num = as_real(query.wfomc(w, wbar, d), "query count")
    if isinstance(num, int) and isinstance(den, int):
        p = float(Fraction(num, den))
    else:
        p = num / den
    return as_probability(p, "marginal")
