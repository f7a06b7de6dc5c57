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
from collections import namedtuple

from .errors import (
    CANCEL_LIMIT, COUNT_IMAG_TOL, PROB_TOL, InfeasibleConstraintError,
    NumericResidueError,
)
from . import lifted
from .lifted import Fo2Theory, times_exp
from .logic import (
    Atom, Domain, Formula, Iff, Not, Var, WeightFunction, _Value, diagonal,
    fresh_predicate, free_variables, universal_closure,
)


class Mln(_Value, namedtuple("Mln", "weighted_formulas vocabulary")):
    """Weighted formulas (natural-log scale) over a declared vocabulary."""

    __slots__ = ()

    @staticmethod
    def of(weighted_formulas, vocabulary) -> "Mln":
        return Mln(tuple((f, float(w)) for f, w in weighted_formulas),
                   tuple(vocabulary))


def translate_mln(phi: Mln, counted=()):
    """Reduce the model to a weighted counting problem (theory, w, wbar).

    A hard formula adds its universal closure.  A soft formula (a, y), then
    a count formula (a, y, z) of ``counted``, multiplies ``z * exp(y)``
    (z = 1 for a soft one) into the weight that counts each true grounding
    of a: w(p), or wbar(p) if a is negated, of its own p if a is an atom of
    a declared p over distinct variables, p's diagonal weight
    (``logic.diagonal``) if a is ``p(v,v)``, else of a fresh p named from
    ``xi`` (soft) or ``xb`` (counted) that joins the vocabulary, with
    ``forall vars: p(vars) <-> a`` joining the theory.  The walk that finds
    a's variables checks its predicates against the declared vocabulary, so
    an undeclared ``xi0`` is not read as the indicator."""
    sentences, vocab = [], list(phi.vocabulary)
    declared = frozenset(vocab)
    weights = ({}, {})  # wbar, w
    own = [(f, w, 1, "xi") for f, w in phi.weighted_formulas]
    for formula, y, z, base in own + [(f, t, z, "xb") for f, t, z in counted]:
        if base == "xi" and not math.isfinite(y):
            if y != math.inf:
                raise ValueError(f"weight {y} of {formula} is not finite or "
                                 "+inf, the weight of a hard formula")
            sentences.append(universal_closure(
                formula, sorted(free_variables(formula, declared))))
            continue
        atom = formula.body if isinstance(formula, Not) else formula
        side = atom is formula
        if isinstance(atom, Atom) and atom.pred in declared and all(
                isinstance(a, Var) for a in atom.args):
            key = (atom.pred.name if len(set(atom.args)) == atom.pred.arity
                   else diagonal(atom.pred))
        else:
            fv = tuple(sorted(free_variables(formula, declared)))
            pred = fresh_predicate(base, len(fv), vocab)
            key, side = pred.name, True
            sentences.append(
                universal_closure(Iff(Atom(pred, fv), formula), fv))
        weights[side][key] = times_exp(weights[side].get(key, 1), y, z,
                                       "weight %g of %s", y, formula)
    return (Fo2Theory.of(sentences, vocab), WeightFunction(weights[True]),
            WeightFunction(weights[False]))


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
    lifted._check_fragment(gamma, phi.vocabulary)
    compiled = lifted.compile_theory(theory)
    den = as_normalizer(*compiled.wfomc(w, wbar, d))
    query = compiled._conditioned(gamma) or lifted.compile_theory(
        Fo2Theory.of(theory.sentences + (gamma,), theory.vocabulary))
    num = as_real(query.wfomc(w, wbar, d)[0], "query count")
    # Two ints divide exactly rounded, however large.
    return as_probability(num / den, "marginal")
