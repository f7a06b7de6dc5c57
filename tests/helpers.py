"""Shared generators and independent reference implementations.

The references here recombine only the primitive world-enumeration and
formula-evaluation operations, so they stay independent of the vectorized
oracle and of the polynomial-time pipeline they are used to validate.
"""

import math
import random

from mlncount import (
    And, Atom, Domain, Exists, ForAll, Iff, Implies, Mln, Not, Or, Predicate,
    Var, WeightFunction, enumerate_worlds, evaluate, free_variables,
    groundings,
)
from mlncount.brute import world_weight
from mlncount.lifted import Fo2Theory

X, Y = Var("x"), Var("y")


def naive_wfomc(sentences, w, wbar, d, vocab):
    """The weighted count as a plain sum, one world at a time."""
    total = 0
    for world in enumerate_worlds(vocab, d):
        if all(evaluate(s, world, d) for s in sentences):
            total = total + world_weight(world, w, wbar, vocab, d)
    return total


def world_mass(mln, world, d):
    """A world's unnormalized probability by definition: zero if a grounding
    of a hard formula is false, else exp(sum of weight times true groundings)
    over the soft formulas."""
    exponent = 0.0
    for formula, weight in mln.weighted_formulas:
        truths = [evaluate(g, world, d) for g in groundings(formula, d)]
        if math.isinf(weight):
            if not all(truths):
                return 0.0
        else:
            exponent += weight * sum(truths)
    return math.exp(exponent)


def random_matrix(rng, atoms, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        return rng.choice(atoms)
    if roll < 0.5:
        return Not(random_matrix(rng, atoms, depth + 1))
    op = rng.choice([And, Or, Implies, Iff])
    return op(random_matrix(rng, atoms, depth + 1),
              random_matrix(rng, atoms, depth + 1))


def random_weight(rng):
    # Moduli stay well under e: products over ~24 atoms must not dwarf the
    # cancelled totals, or no double-precision engine could hit 1e-9.
    if rng.random() < 0.5:
        return round(rng.uniform(0.3, 1.6), 3)
    return complex(round(rng.uniform(-1.1, 1.1), 3),
                   round(rng.uniform(-1.1, 1.1), 3))


def random_theory(rng):
    """A small theory over <=2 unary + <=1 binary predicates with prefixes
    drawn from forall / forall-forall / forall-exists, plus random complex
    weights of modulus <= e."""
    n_unary = rng.randint(0, 2)
    n_binary = rng.randint(0 if n_unary else 1, 1)
    vocab = [Predicate(f"u{i}", 1) for i in range(n_unary)]
    vocab += [Predicate(f"b{i}", 2) for i in range(n_binary)]
    atoms1 = [Atom(p, (X,)) for p in vocab if p.arity == 1]
    atoms1 += [Atom(p, (X, X)) for p in vocab if p.arity == 2]
    atoms2 = list(atoms1) + [Atom(p, (Y,)) for p in vocab if p.arity == 1]
    for p in vocab:
        if p.arity == 2:
            atoms2 += [Atom(p, (X, Y)), Atom(p, (Y, X)), Atom(p, (Y, Y))]
    sentences = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(["A", "AA", "AE"])
        if kind == "A":
            sentences.append(ForAll(X, random_matrix(rng, atoms1)))
        elif kind == "AA":
            sentences.append(ForAll(X, ForAll(Y, random_matrix(rng, atoms2))))
        else:
            sentences.append(ForAll(X, Exists(Y, random_matrix(rng, atoms2))))
    w = WeightFunction({p.name: random_weight(rng) for p in vocab})
    wbar = WeightFunction({p.name: random_weight(rng) for p in vocab})
    return Fo2Theory.of(sentences, vocab), w, wbar


def random_mln(rng, max_atoms=12):
    """A random model whose ground-atom count stays brute-force friendly."""
    while True:
        n = rng.choice([2, 2, 3])
        n_unary = rng.randint(0, 2)
        n_binary = rng.randint(0 if n_unary else 1, 1)
        total = n_unary * n + n_binary * n * n
        if 0 < total <= max_atoms:
            break
    vocab = [Predicate(f"u{i}", 1) for i in range(n_unary)]
    vocab += [Predicate(f"b{i}", 2) for i in range(n_binary)]
    atoms1 = [Atom(p, (X,)) for p in vocab if p.arity == 1]
    atoms1 += [Atom(p, (X, X)) for p in vocab if p.arity == 2]
    atoms2 = list(atoms1) + [Atom(p, (Y,)) for p in vocab if p.arity == 1]
    for p in vocab:
        if p.arity == 2:
            atoms2 += [Atom(p, (X, Y)), Atom(p, (Y, X)), Atom(p, (Y, Y))]
    formulas = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.6:
            formula = random_matrix(rng, atoms2 if rng.random() < 0.5 else atoms1)
        else:
            formula = ForAll(X, Exists(Y, random_matrix(rng, atoms2))) \
                if n_binary else ForAll(X, random_matrix(rng, atoms1))
        weight = math.inf if rng.random() < 0.2 else round(rng.uniform(-1.2, 1.2), 3)
        formulas.append((formula, weight))
    psi = []
    for _ in range(rng.randint(1, 2)):
        psi.append(random_matrix(rng, atoms2 if rng.random() < 0.4 else atoms1))
    return Mln.of(formulas, vocab), psi, Domain(n)


def random_feasible_mln(rng, max_atoms=12):
    """Like random_mln but guaranteed to have at least one allowed world."""
    from mlncount import brute_mln_partition
    while True:
        mln, psi, d = random_mln(rng, max_atoms)
        if brute_mln_partition(mln, d) > 0.0:
            return mln, psi, d


def rel_close(a, b, tol=1e-9):
    return abs(complex(a) - complex(b)) <= tol * (1 + abs(complex(b)))
