"""Weighted-formula models and their inference queries.

A model is a set of weighted two-variable formulas; weight ``+inf`` marks a
hard constraint.  Inference reduces to weighted model counts, each one
``CompiledTheory.wfomc``: each hard formula becomes its universal closure,
and each soft formula, then each count formula of a count law, multiplies
its weight factor into w(p), or wbar(p) if negated, of its own predicate p
if it is a literal, into p's diagonal weight if it is ``p(x,x)`` or its
negation, else into that of a fresh indicator tied to it by an equivalence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    CANCEL_LIMIT, COUNT_IMAG_TOL, PROB_TOL, InfeasibleConstraintError,
    NumericResidueError,
)
from . import lifted
from .lifted import Fo2Theory, times_exp
from .logic import (
    Atom, Domain, Formula, Iff, Not, Predicate, Var, WeightFunction,
    diagonal, fresh_predicate, free_variables, universal_closure,
)


@dataclass(frozen=True)
class Mln:
    """Weighted formulas (natural-log scale) over a declared vocabulary."""

    weighted_formulas: tuple[tuple[Formula, float], ...]
    vocabulary: tuple[Predicate, ...]

    @staticmethod
    def of(weighted_formulas, vocabulary) -> "Mln":
        return Mln(tuple((f, float(w)) for f, w in weighted_formulas),
                   tuple(vocabulary))


def weigh(formula, y, phi, sentences, vocab, weights, base, z=1):
    """Multiply ``z * exp(y)`` into the entry of ``weights``, [wbar, w],
    that counts each true grounding of ``formula``: w(p), or wbar(p) if it
    is negated, of its own p if it is an atom of ``phi`` over distinct
    variables, p's diagonal weight (``logic.diagonal``) if it is ``p(v,v)``,
    else of a fresh p named from ``base`` that joins ``vocab``, with
    ``forall vars: p(vars) <-> formula`` joining ``sentences``."""
    atom = formula.body if isinstance(formula, Not) else formula
    side = atom is formula
    if isinstance(atom, Atom) and atom.pred in phi.vocabulary and all(
            isinstance(a, Var) for a in atom.args):
        key = (atom.pred.name if len(set(atom.args)) == atom.pred.arity
               else diagonal(atom.pred))
    else:
        fv = tuple(sorted(free_variables(formula), key=lambda v: v.name))
        pred = fresh_predicate(base, len(fv), vocab)
        key, side = pred.name, True
        sentences.append(universal_closure(Iff(Atom(pred, fv), formula)))
    weights[side] = weights[side].updated({key: times_exp(
        weights[side](key), y, z, "weight %g of %s", y, formula)})


def translate_mln(phi: Mln, counted=()):
    """Reduce the model to a weighted counting problem (theory, w, wbar):
    hard formulas add their universal closure, a soft formula (a, w)
    multiplies exp(w) into the weight counting a's groundings (``weigh``),
    and then a count formula (b, t, z) of ``counted`` multiplies in
    ``z * exp(t)`` alike, with any indicator it needs named from ``xb``."""
    sentences, vocab = [], list(phi.vocabulary)
    weights = [WeightFunction(), WeightFunction()]  # wbar, w
    for formula, weight in phi.weighted_formulas:
        if weight == math.inf:
            sentences.append(universal_closure(formula))
        elif math.isfinite(weight):
            weigh(formula, weight, phi, sentences, vocab, weights, "xi")
        else:
            raise ValueError(f"weight {weight} of {formula} is not finite or "
                             "+inf, the weight of a hard formula")
    for formula, tilt, z in counted:
        weigh(formula, tilt, phi, sentences, vocab, weights, "xb", z)
    return Fo2Theory.of(sentences, vocab), weights[True], weights[False]


def as_real(value, what: str):
    """Check the imaginary residue of a count that must be real."""
    if isinstance(value, complex):
        if cmath.isnan(value):
            raise NumericResidueError(f"{what} is NaN (value {value!r})")
        if not abs(value.imag) <= COUNT_IMAG_TOL * (1 + abs(value)):
            raise NumericResidueError(
                f"{what} has imaginary residue {value.imag:g} (value "
                f"{value!r}), above {COUNT_IMAG_TOL=:g} of 1 + its size")
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
            f" outside {CANCEL_LIMIT=:g}, what double precision resolves")
    if not z > 0:
        if isinstance(z, float) and not z >= -COUNT_IMAG_TOL:
            raise NumericResidueError(f"partition function {z!r} is negative"
                                      f" or NaN, below -{COUNT_IMAG_TOL=:g}")
        raise InfeasibleConstraintError(
            "partition function is zero: every world is excluded")
    return z


def as_probability(p: float, what: str) -> float:
    """Clamp a round-off excursion of a probability into [0, 1]; one beyond
    ``PROB_TOL`` is a numeric fault, not a probability."""
    if not -PROB_TOL <= p <= 1 + PROB_TOL:
        raise NumericResidueError(
            f"{what} {p!r} lies outside [0, 1] by more than {PROB_TOL=:g}")
    return min(max(p, 0.0), 1.0)


def partition_function(phi: Mln, d: Domain):
    """Normalization constant of the model's distribution; exact when all
    effective weights are integers."""
    theory, w, wbar = translate_mln(phi)
    return as_normalizer(*lifted.compile_theory(theory).wfomc(w, wbar, d))


def marginal(phi: Mln, gamma: Formula, d: Domain) -> float:
    """Probability that a sampled world satisfies the sentence ``gamma``.
    A ``forall x m`` or ``exists x m`` gamma costs no second compile."""
    theory, w, wbar = translate_mln(phi)
    lifted._check_fragment(gamma, theory.vocabulary)
    compiled = lifted.compile_theory(theory)
    den = as_normalizer(*compiled.wfomc(w, wbar, d))
    query = compiled._conditioned(gamma) or lifted.compile_theory(
        Fo2Theory.of(theory.sentences + (gamma,), theory.vocabulary))
    num = as_real(query.wfomc(w, wbar, d)[0], "query count")
    # Two ints divide exactly rounded, however large.
    return as_probability(num / den, "marginal")
