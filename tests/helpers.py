"""Shared generators and independent reference implementations.

The per-world layer lives here, not in the library: a world as a set of
true ground atoms, one-world evaluation by substitution, worlds one at a
time, and the true-grounding counts.  The engine never looks at a single
world, and the oracle walks worlds bit-parallel in blocks.  The references
here recombine only these primitives, so they stay independent of the
vectorized oracle and of the polynomial-time pipeline they validate.
"""

import math
import random
from dataclasses import dataclass

from mlncount import (
    And, Atom, Domain, Eq, Exists, ForAll, Formula, Iff, Implies, Mln, Not,
    Or, Predicate, Var, WeightFunction, groundings,
)
from mlncount.brute import DEFAULT_ATOM_CAP
from mlncount.errors import BruteForceCapError
from mlncount.lifted import Fo2Theory
from mlncount.logic import Truth, ground_atoms, iter_subformulas, substitute

X, Y = Var("x"), Var("y")


def _is_ground(atom: Atom) -> bool:
    return all(isinstance(a, int) for a in atom.args)


@dataclass(frozen=True)
class PossibleWorld:
    """A finite set of true ground atoms."""

    true_atoms: frozenset

    def __post_init__(self):
        for a in self.true_atoms:
            if not _is_ground(a):
                raise ValueError(f"world contains non-ground atom {a}")

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.true_atoms

    def __len__(self):
        return len(self.true_atoms)


def evaluate(f: Formula, w: PossibleWorld, d: Domain) -> bool:
    """Truth value of a closed formula in ``w``; quantifiers range over ``d``."""
    if isinstance(f, Atom):
        if not _is_ground(f):
            raise ValueError(f"cannot evaluate open atom {f}")
        return f in w
    if isinstance(f, Eq):
        if isinstance(f.left, Var) or isinstance(f.right, Var):
            raise ValueError(f"cannot evaluate open equality {f}")
        return f.left == f.right
    if isinstance(f, Truth):
        return f.value
    if isinstance(f, Not):
        return not evaluate(f.body, w, d)
    if isinstance(f, And):
        return evaluate(f.left, w, d) and evaluate(f.right, w, d)
    if isinstance(f, Or):
        return evaluate(f.left, w, d) or evaluate(f.right, w, d)
    if isinstance(f, Implies):
        return (not evaluate(f.left, w, d)) or evaluate(f.right, w, d)
    if isinstance(f, Iff):
        return evaluate(f.left, w, d) == evaluate(f.right, w, d)
    if isinstance(f, ForAll):
        return all(evaluate(substitute(f.body, {f.var: e}), w, d)
                   for e in d.elements)
    if isinstance(f, Exists):
        return any(evaluate(substitute(f.body, {f.var: e}), w, d)
                   for e in d.elements)
    raise TypeError(f"not a formula: {f!r}")


def count_true_groundings(f: Formula, w: PossibleWorld, d: Domain) -> int:
    """N(f, w): number of groundings of ``f`` true in ``w``."""
    return sum(1 for g in groundings(f, d) if evaluate(g, w, d))


def count_statistics(psi, world, d: Domain) -> tuple:
    """Componentwise true-grounding counts of a count spec's formulas."""
    return tuple(count_true_groundings(b, world, d) for b in psi.formulas)


def enumerate_worlds(vocab, d: Domain, cap: int = DEFAULT_ATOM_CAP):
    """Yield all worlds over the vocabulary, atoms as bit positions of an
    ascending bitmask index."""
    atoms = ground_atoms(vocab, d)
    if len(atoms) > cap:
        raise BruteForceCapError(len(atoms), cap)
    for index in range(1 << len(atoms)):
        yield PossibleWorld(frozenset(
            a for j, a in enumerate(atoms) if index >> j & 1))


def world_weight(world: PossibleWorld, w, wbar, vocab, d: Domain):
    """Product over ground atoms: w(pred) if true in the world, else wbar."""
    out = 1
    for a in ground_atoms(vocab, d):
        out = out * (w(a.pred) if a in world else wbar(a.pred))
    return out


def conjugated(w: WeightFunction) -> WeightFunction:
    """The weight function with every complex weight conjugated."""
    conj = {k: (v.conjugate() if isinstance(v, complex) else v)
            for k, v in w._weights.items()}
    return WeightFunction(conj)


def _terms(f: Formula) -> tuple:
    """The terms at the root of ``f``: atom arguments, equality sides or a
    quantified variable."""
    if isinstance(f, Atom):
        return f.args
    if isinstance(f, Eq):
        return (f.left, f.right)
    if isinstance(f, (ForAll, Exists)):
        return (f.var,)
    return ()


def all_variables(f: Formula) -> frozenset:
    """All variable names in the tree, bound or free."""
    return frozenset(t for g in iter_subformulas(f) for t in _terms(g)
                     if isinstance(t, Var))


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
