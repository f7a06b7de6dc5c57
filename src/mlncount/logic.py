"""Function-free first-order logic over finite integer domains.

Formulas are immutable trees built from atoms, boolean connectives,
quantifiers and (for the exhaustive oracle only) equality atoms.  Domain
elements are canonically the integers ``0..size-1``, which fixes every
enumeration order used elsewhere in the engine.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterator, Union

from .errors import VocabularyError


class _Value(tuple):
    """Base of the value classes: a ``namedtuple`` of the fields, hashable,
    immutable, and equal only to a value of the same class with equal
    fields.  ``_replace`` checks its result as the constructor does."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(self) is not type(other) or tuple.__ne__(self, other)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Domain(_Value, namedtuple("Domain", "size")):
    """A finite domain; elements are the integers ``0..size-1``."""

    __slots__ = ()

    def __new__(cls, size):
        if size < 1:
            raise ValueError("domain size must be >= 1")
        return tuple.__new__(cls, (size,))

    @property
    def elements(self) -> range:
        return range(self.size)


class Predicate(_Value, namedtuple("Predicate", "name arity")):
    __slots__ = ()

    def __new__(cls, name, arity):
        if arity < 0 or arity > 2:
            raise VocabularyError(
                f"predicate {name}/{arity}: arity must be 0, 1 or 2")
        return tuple.__new__(cls, (name, arity))

    def __str__(self):
        return f"{self.name}/{self.arity}"


class Var(_Value, namedtuple("Var", "name")):
    __slots__ = ()

    def __str__(self):
        return self.name


# A term is a logic variable or a concrete domain element.
Term = Union[Var, int]


class Formula(_Value):
    """Base class of all formula nodes."""

    __slots__ = ()

    def __str__(self):
        return pretty(self)

    def __repr__(self):
        return f"{type(self).__name__}({pretty(self)!r})"


class Atom(Formula, namedtuple("Atom", "pred args")):
    __slots__ = ()

    def __new__(cls, pred, args):
        if len(args) != pred.arity:
            raise VocabularyError(
                f"atom {pred.name} given {len(args)} argument(s), "
                f"declared arity is {pred.arity}"
            )
        return tuple.__new__(cls, (pred, args))


class Eq(Formula, namedtuple("Eq", "left right")):
    """Equality between two terms; exhaustive-oracle only."""

    __slots__ = ()


class Truth(Formula, namedtuple("Truth", "value")):
    __slots__ = ()


TRUE = Truth(True)
FALSE = Truth(False)


class Not(Formula, namedtuple("Not", "body")):
    __slots__ = ()


class And(Formula, namedtuple("And", "left right")):
    __slots__ = ()


class Or(Formula, namedtuple("Or", "left right")):
    __slots__ = ()


class Implies(Formula, namedtuple("Implies", "left right")):
    __slots__ = ()


class Iff(Formula, namedtuple("Iff", "left right")):
    __slots__ = ()


class ForAll(Formula, namedtuple("ForAll", "var body")):
    __slots__ = ()


class Exists(Formula, namedtuple("Exists", "var body")):
    __slots__ = ()


_BINARY = {And: "&", Or: "|", Implies: "->", Iff: "<->"}


def conjoin(formulas) -> Formula:
    """Left-associated conjunction; TRUE for an empty sequence."""
    out = None
    for f in formulas:
        out = f if out is None else And(out, f)
    return TRUE if out is None else out


class WeightFunction:
    """Mapping from predicate names to complex weights, defaulting to 1.

    A binary p may also have an entry under ``diagonal(p)``: a weight that
    each ground atom p(e, e) carries on top of p's own.  Integer and real
    weights are kept in their native types so that unit-weight model
    counts stay exact.
    """

    def __init__(self, weights=None):
        self._weights = dict(weights or {})

    def __call__(self, pred) -> complex:
        name = pred.name if isinstance(pred, Predicate) else pred
        return self._weights.get(name, 1)

    def updated(self, extra) -> "WeightFunction":
        merged = dict(self._weights)
        merged.update(extra)
        return WeightFunction(merged)

    def __repr__(self):
        return f"WeightFunction({self._weights!r})"


def diagonal(pred: Predicate) -> Atom:
    """``pred(x, x)``, the key of its diagonal weight in a WeightFunction."""
    return Atom(pred, (Var("x"), Var("x")))


def fresh_predicate(base: str, arity: int, vocab: list) -> Predicate:
    """A predicate named the first of base0, base1, ... that no predicate of
    ``vocab`` has, appended to ``vocab``."""
    names = {p.name for p in vocab}
    i = 0
    while f"{base}{i}" in names:
        i += 1
    vocab.append(Predicate(f"{base}{i}", arity))
    return vocab[-1]


def children(f: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of ``f``."""
    if isinstance(f, (Not, ForAll, Exists)):
        return (f.body,)
    if isinstance(f, (And, Or, Implies, Iff)):
        return (f.left, f.right)
    if isinstance(f, (Atom, Eq, Truth)):
        return ()
    raise TypeError(f"not a formula: {f!r}")


def leaf_terms(f: Formula) -> tuple[Term, ...]:
    """An atom's arguments or an equality's two sides; () for other nodes."""
    return (f.args if isinstance(f, Atom) else
            (f.left, f.right) if isinstance(f, Eq) else ())


def free_variables(f: Formula, vocabulary=None) -> frozenset[Var]:
    """Variables of ``f`` not bound to any quantifier; given a
    ``vocabulary``, an atom of a predicate outside it raises."""
    if isinstance(f, (Atom, Eq, Truth)):
        if vocabulary is not None and isinstance(f, Atom) and \
                f.pred not in vocabulary:
            raise VocabularyError(f"undeclared predicate {f.pred}")
        return frozenset(t for t in leaf_terms(f) if isinstance(t, Var))
    if isinstance(f, Not):
        return free_variables(f.body, vocabulary)
    if isinstance(f, (And, Or, Implies, Iff)):
        return (free_variables(f.left, vocabulary) |
                free_variables(f.right, vocabulary))
    if isinstance(f, (ForAll, Exists)):
        return free_variables(f.body, vocabulary) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def _occurs_free(v: Var, f: Formula) -> bool:
    """Whether ``v`` is free in ``f``; stops at its first free occurrence."""
    if isinstance(f, Not):
        return _occurs_free(v, f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return _occurs_free(v, f.left) or _occurs_free(v, f.right)
    if isinstance(f, (ForAll, Exists)):
        return f.var != v and _occurs_free(v, f.body)
    return v in leaf_terms(f)


def predicates_of(f: Formula) -> frozenset[Predicate]:
    return frozenset(g.pred for g in iter_subformulas(f)
                     if isinstance(g, Atom))


def substitute(f: Formula, binding: dict[Var, Term]) -> Formula:
    """Replace free occurrences of the bound variables by domain elements
    or by other variables, all at once: {x: y, y: x} swaps x and y.  A
    quantifier of ``f`` may capture a variable substituted into its body.
    A subformula that nothing changes is returned as it is."""
    if isinstance(f, Atom):
        args = tuple(binding.get(a, a) if isinstance(a, Var) else a
                     for a in f.args)
        return f if args == f.args else Atom(f.pred, args)
    if isinstance(f, Eq):
        left = binding.get(f.left, f.left) if isinstance(f.left, Var) else f.left
        right = binding.get(f.right, f.right) if isinstance(f.right, Var) else f.right
        return Eq(left, right)
    if isinstance(f, Truth):
        return f
    if isinstance(f, Not):
        body = substitute(f.body, binding)
        return f if body is f.body else Not(body)
    if isinstance(f, (And, Or, Implies, Iff)):
        a, b = substitute(f.left, binding), substitute(f.right, binding)
        return f if a is f.left and b is f.right else type(f)(a, b)
    if isinstance(f, (ForAll, Exists)):
        inner = {v: e for v, e in binding.items() if v != f.var}
        body = substitute(f.body, inner) if inner else f.body
        return f if body is f.body else type(f)(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


def _negate(f: Formula) -> Formula:
    if isinstance(f, Truth):
        return FALSE if f.value else TRUE
    return Not(f)


def fold(f: Formula, values=None) -> Formula:
    """Constant-fold TRUE/FALSE leaves and drop vacuous quantifiers, those
    whose variable is not free in the folded body (sound because domains
    are nonempty).  ``values`` maps atoms to the TRUE or FALSE leaf that
    replaces them.  The result is TRUE, FALSE or a formula with no Truth
    leaf and no vacuous quantifier; ``f`` itself if it already is one."""
    if isinstance(f, (Atom, Eq, Truth)):
        return values.get(f, f) if values else f
    if isinstance(f, Not):
        body = fold(f.body, values)
        return f if body is f.body and not isinstance(body, Truth) \
            else _negate(body)
    if isinstance(f, (And, Or, Implies, Iff)):
        a, b = fold(f.left, values), fold(f.right, values)
        if isinstance(b, Truth) and not isinstance(a, Truth):
            if isinstance(f, Implies):
                return TRUE if b.value else Not(a)
            a, b = b, a  # the other connectives commute
        if not isinstance(a, Truth):
            return f if a is f.left and b is f.right else type(f)(a, b)
        if isinstance(f, And):
            return b if a.value else FALSE
        if isinstance(f, Or):
            return TRUE if a.value else b
        if isinstance(f, Implies):
            return b if a.value else TRUE
        return b if a.value else _negate(b)
    if isinstance(f, (ForAll, Exists)):
        b = fold(f.body, values)
        if not _occurs_free(f.var, b):
            return b
        return f if b is f.body else type(f)(f.var, b)
    raise TypeError(f"not a formula: {f!r}")


def groundings(f: Formula, d: Domain) -> list[Formula]:
    """One ground formula per assignment of elements to the free variables.

    Assignments run lexicographically: variables sorted by name, elements
    ascending, first variable slowest.  A closed formula yields itself.
    """
    fv = sorted(free_variables(f), key=lambda v: v.name)
    if not fv:
        return [f]
    out = []
    for combo in itertools.product(d.elements, repeat=len(fv)):
        out.append(substitute(f, dict(zip(fv, combo))))
    return out


def evaluate_bitwise(f: Formula, leaves: dict):
    """Truth of quantifier-free ``f`` at many assignments at once.

    ``leaves`` maps each atom of ``f``, and TRUE and FALSE if they occur, to
    numpy bool arrays (broadcast together) or to packed integer words, one
    assignment per bit; connectives apply elementwise as ``~ & | ^``."""
    if isinstance(f, (Atom, Truth)):
        return leaves[f]
    if isinstance(f, Not):
        return ~evaluate_bitwise(f.body, leaves)
    if isinstance(f, (And, Or, Implies, Iff)):
        a = evaluate_bitwise(f.left, leaves)
        b = evaluate_bitwise(f.right, leaves)
        if isinstance(f, And):
            return a & b
        if isinstance(f, Or):
            return a | b
        if isinstance(f, Implies):
            return ~a | b
        return ~(a ^ b)
    raise TypeError(f"not a quantifier-free formula: {f!r}")


def ground_atoms(vocab, d: Domain) -> list[Atom]:
    """Every ground atom over the vocabulary, in the fixed enumeration order:
    predicates in declaration order, argument tuples lexicographic."""
    atoms = []
    for p in vocab:
        for args in itertools.product(d.elements, repeat=p.arity):
            atoms.append(Atom(p, args))
    return atoms


# Precedence levels for the printer; must match the surface grammar.
_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}


def pretty(f: Formula) -> str:
    """Render a formula in the surface syntax; ``parse_formula`` inverts it."""
    return _pretty(f, 0)


def _term_str(t: Term) -> str:
    return t.name if isinstance(t, Var) else str(t)


def _pretty(f: Formula, parent_prec: int) -> str:
    if isinstance(f, Atom):
        if f.pred.arity == 0:
            return f.pred.name
        return f"{f.pred.name}({', '.join(_term_str(a) for a in f.args)})"
    if isinstance(f, Eq):
        return f"{_term_str(f.left)} = {_term_str(f.right)}"
    if isinstance(f, Truth):
        return "true" if f.value else "false"
    if isinstance(f, Not):
        return "!" + _pretty(f.body, _PREC[Not])
    if isinstance(f, (And, Or, Implies, Iff)):
        prec = _PREC[type(f)]
        # -> is right-associative; & and | associate left.
        if isinstance(f, Implies):
            text = f"{_pretty(f.left, prec + 1)} -> {_pretty(f.right, prec)}"
        else:
            text = (f"{_pretty(f.left, prec)} {_BINARY[type(f)]} "
                    f"{_pretty(f.right, prec + 1)}")
        return f"({text})" if prec < parent_prec else text
    if isinstance(f, (ForAll, Exists)):
        word = "forall" if isinstance(f, ForAll) else "exists"
        text = f"{word} {f.var.name} {_pretty(f.body, 0)}"
        # A quantifier body extends to the end of the expression, so any
        # enclosing operator context needs explicit parentheses.
        return f"({text})" if parent_prec > 0 else text
    raise TypeError(f"not a formula: {f!r}")


def universal_closure(f: Formula, fv=None) -> Formula:
    """Quantify every free variable universally, in sorted name order;
    ``fv``, if given, is f's free variables in that order."""
    out = f
    for v in reversed(sorted(free_variables(f)) if fv is None else fv):
        out = ForAll(v, out)
    return out


def iter_subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    for g in children(f):
        yield from iter_subformulas(g)
