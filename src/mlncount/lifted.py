"""Domain-lifted weighted model counting for two-variable theories.

The pipeline turns an arbitrary theory of two-variable sentences into a sum
that is polynomial in the domain size:

1. *Normalization* rewrites every sentence into clauses (quantifier
   types, matrix) of the shapes ``forall x m``, ``forall x forall y m``,
   ``forall x exists y m``, ``exists x m`` or ``m``, the matrix m
   quantifier-free (nullary atoms only in ``m`` alone), using fresh
   definition predicates for nested quantifiers and for what follows a
   leading ``exists``, after ``logic.fold`` has folded TRUE/FALSE leaves and
   dropped vacuous quantifiers; a negated quantifier in the prefix becomes
   its dual.  Each clause's matrix has the prefix variables renamed to x
   and y at once, so later steps bind the atoms over x and y directly.
   Definitions are equivalences, so each original world extends uniquely
   and the weighted count is unchanged.
2. *Skolemization* removes ``forall x exists y m``: it becomes ``forall x
   forall y (m -> s(x))``, with a fresh unary ``s`` weighted ``(1, -1)``, so
   worlds without a witness cancel out of the sum.
3. *Conditioning* branches on the truth of nullary atoms, leaving pure
   universally quantified matrices per branch (``logic.fold`` with the
   branch's nullary values).  Each ``exists x m`` is counted by its
   complement, Z(T and exists x m) = Z(T) - Z(T and forall x not m), m
   over x alone: each subset S of a branch's misses, the cells where such
   an m fails, is a branch of sign (-1)^|S| over the cells where every miss
   in S holds.  One step, ``_condition``, adds each ``exists x`` clause's
   miss, and conditions a compiled theory on a query ``forall x m`` (keep
   the cells where m holds) or ``exists x m`` (one more miss) without
   rebuilding its tables (``CompiledTheory._conditioned``).
4. *Cell decomposition* groups elements by their complete truth assignment
   over unary and reflexive-binary atoms; the count is a sum over
   compositions of the domain into cells, with per-cell weights and
   per-cell-pair cross weights.  A binary p's bit in a cell is p(e, e), so
   p's diagonal weight (a soft or count ``p(x,x)``) multiplies into that
   bit's weight.  Compilation keeps each cell's bool row and, per cell
   pair, the base-3 codes of the allowed cross assignments; each call
   builds a code's weight monomial once.  The binary matrices are evaluated
   once over a (cell i, cell j, cross assignment) grid, x in cell i; the
   orientation with x in cell j is its transpose with each assignment's
   forward and backward halves swapped.  Cells with equal pair rows merge,
   weights summed, which cuts the compositions visited.
5. *Layered collapse* into outer labels.  A class is separable when the
   cross assignments it allows toward every class are every combination of
   a set of its own outgoing atoms p(u, v) with a set of the other's (as
   Skolemizing ``forall x exists y`` leaves them), so each pair weight
   factors as h(own) h(other's), h summing the weights of the assignments.
   Separable classes toward which every class sends the same set share an
   outer label; every other class is a label of its own.  The sum then runs
   over compositions m of the labels: once they are fixed, each element of
   a shared label o picks its class i alone, so o weighs
   sum_i w_i prod_o' h(i's set toward o')^(m_o' - [o' = o]) per element,
   by the multinomial theorem for any weights.  Total plus onto is n + 1
   compositions, and ``forall x exists y f(x,y)`` one, (2^n - 1)^n with
   unit weights: the (1, -1) Skolem weights cancel inside a label's weight
   instead of across compositions.

Arithmetic is generic: integer and ``Fraction`` weights give exact
results, float and complex weights run in floating point with overflow
detection against ``MAGNITUDE_LIMIT``, in the table of numeric limits in
``errors`` (``_check_range``).  A weight may also be a numpy array, which
evaluates the sum for every element in one pass over the compositions.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MAGNITUDE_LIMIT, NumericOverflowError, UnsupportedSentenceError,
    VocabularyError,
)
from .logic import (
    And, Atom, Domain, Eq, Exists, FALSE, ForAll, Formula, Iff, Implies, Not,
    Or, Predicate, TRUE, Truth, Var, diagonal, evaluate_bitwise, fold,
    free_variables, fresh_predicate, iter_subformulas, substitute,
)

# Bound on the (cell, cell, cross assignment) entries at which the pair
# table evaluates its matrices at once, so that the evaluation's
# intermediate arrays do not grow with the cells squared.
_CHUNK = 1 << 16
_TRUTH_LEAVES = {TRUE: np.True_, FALSE: np.False_}
# The two variables of every normalized clause.
_XY = (Var("x"), Var("y"))


def _check_range(value, what: str, *args):
    """``value``, or NumericOverflowError naming ``what % args`` if it is a
    float, complex or array (any element) above MAGNITUDE_LIMIT or NaN."""
    if isinstance(value, (float, complex, np.ndarray)):
        within = abs(value) <= MAGNITUDE_LIMIT  # False for NaN
        if within is not True and not np.all(within):
            raise NumericOverflowError(
                f"{what % args} exceeds {MAGNITUDE_LIMIT=:g}")
    return value


def times_exp(x, y, z, what: str, *args):
    """``x * (exp(y) * z)``, or NumericOverflowError naming ``what % args``
    if it leaves the float range (any element of an array)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = x * (math.exp(y) * z)
    except OverflowError:
        value = math.inf
    finite = abs(value) < math.inf  # False for NaN; elementwise for arrays
    if finite is not True and not np.all(finite):
        raise NumericOverflowError(f"{what % args} leaves the float range")
    return value


def cpow(base, exponent: int):
    """base**exponent by repeated squaring; exact for ints and
    ``Fraction``s, range-checked for floats, complex numbers and numpy
    arrays."""
    if isinstance(base, int):
        return base ** exponent
    result = 1
    b = base
    e = exponent
    while e:
        if e & 1:
            result = result * b
        e >>= 1
        if e:
            b = b * b
    return _check_range(result, "|%r**%d|", base, exponent)


@dataclass(frozen=True)
class Fo2Theory:
    """A finite set of closed two-variable sentences over a vocabulary."""

    sentences: tuple[Formula, ...]
    vocabulary: tuple[Predicate, ...]

    @staticmethod
    def of(sentences, vocabulary) -> "Fo2Theory":
        return Fo2Theory(tuple(sentences), tuple(vocabulary))


# --- normalization ----------------------------------------------------------

def _check_fragment(s: Formula, vocabulary) -> None:
    """Reject what the lifted fragment cannot count: predicates outside the
    vocabulary, free variables, equality atoms, constants, and more than two
    variable names, bound ones included."""
    if free_variables(s):
        raise UnsupportedSentenceError(f"sentence has free variables: {s}")
    names = set()
    for g in iter_subformulas(s):
        if isinstance(g, Atom) and g.pred not in vocabulary:
            raise VocabularyError(f"undeclared predicate {g.pred}")
        if isinstance(g, Eq):
            raise UnsupportedSentenceError(
                "equality atoms are outside the lifted fragment")
        terms = (g.args if isinstance(g, Atom) else
                 (g.var,) if isinstance(g, (ForAll, Exists)) else ())
        if any(isinstance(t, int) for t in terms):
            raise UnsupportedSentenceError(
                "constants (domain elements) are outside the lifted fragment")
        names.update(t.name for t in terms)
    if len(names) > 2:
        raise UnsupportedSentenceError(
            f"sentence uses {len(names)} distinct variables: {s}")


def _emit(out: list, quantifiers, variables, matrix: Formula) -> None:
    """Append the clause ``(quantifiers, matrix)``, the prefix variables
    renamed to x and y at once, so a prefix binding y before x swaps them."""
    binding = {v: c for v, c in zip(variables, _XY) if v != c}
    out.append((tuple(quantifiers),
                substitute(matrix, binding) if binding else matrix))


def _eliminate_inner(f: Formula, vocab: list, out: list) -> Formula:
    """Replace quantified subformulas by fresh definition predicates that
    join ``vocab``, emitting the defining clauses into ``out``.  Returns a
    quantifier-free formula, ``f`` itself if it is one."""
    if isinstance(f, (Atom, Truth)):
        return f
    if isinstance(f, Not):
        body = _eliminate_inner(f.body, vocab, out)
        return f if body is f.body else Not(body)
    if isinstance(f, (And, Or, Implies, Iff)):
        a = _eliminate_inner(f.left, vocab, out)
        b = _eliminate_inner(f.right, vocab, out)
        return f if a is f.left and b is f.right else type(f)(a, b)
    if isinstance(f, (ForAll, Exists)):
        inner = _eliminate_inner(f.body, vocab, out)
        # At most one: ``_check_fragment`` allows two variable names.
        fv = sorted(free_variables(inner) - {f.var})
        # d(fv) <-> Q v inner, as a universal and an existential half.
        datom = Atom(fresh_predicate("def", len(fv), vocab), tuple(fv))
        if isinstance(f, Exists):
            every, some = Implies(inner, datom), Implies(datom, inner)
        else:
            every, some = Implies(datom, inner), Or(datom, Not(inner))
        variables = fv + [f.var]
        _emit(out, [ForAll] * len(variables), variables, every)
        _emit(out, [ForAll] * len(fv) + [Exists], variables, some)
        return datom
    raise TypeError(f"not a formula: {f!r}")


def _normalize_sentence(s: Formula, vocab: list, out: list) -> None:
    """Emit ``s`` as clauses (``_emit``) of a quantifier-free matrix under
    (), (forall), (forall, forall), (forall, exists) or (exists); ``not Q x
    f`` is read as the dual of Q over ``not f``, a leading ``exists`` ends
    the prefix, and definitions that join ``vocab`` name what follows it."""
    body = fold(s)
    quantifiers, variables = [], []
    while len(quantifiers) < 2 and Exists not in quantifiers:
        if isinstance(body, Not) and isinstance(body.body, (ForAll, Exists)):
            q = body.body
            inner = q.body.body if isinstance(q.body, Not) else Not(q.body)
            body = (Exists if isinstance(q, ForAll) else ForAll)(q.var, inner)
        if not isinstance(body, (ForAll, Exists)):
            break
        quantifiers.append(type(body))
        variables.append(body.var)
        body = body.body
    _emit(out, quantifiers, variables,
          fold(_eliminate_inner(body, vocab, out)))


def _normalize_theory(t: Fo2Theory):
    """Normalize every sentence of ``t`` and Skolemize ``forall x exists
    y``.  Returns (clauses, vocabulary, skolem weight entries); a clause
    (quantifiers, m) stands for ``m``, ``forall x m``, ``forall x forall y
    m`` or ``exists x m``, which ``compile_theory`` counts by its complement.

    ``forall x exists y m`` becomes ``forall x forall y (m -> s(x))``, s a
    fresh unary predicate weighted (1, -1): where x has a witness s(x) is
    forced true (factor 1); otherwise its two values sum to 1 - 1 = 0."""
    vocab, clauses, weights = list(t.vocabulary), [], {}
    declared = set(t.vocabulary)
    for s in t.sentences:
        _check_fragment(s, declared)
        _normalize_sentence(s, vocab, clauses)
    for k, (kinds, m) in enumerate(clauses):
        if kinds == (ForAll, Exists):
            sk = fresh_predicate("sk", 1, vocab)
            weights[sk.name] = (1, -1)
            clauses[k] = (ForAll, ForAll), Implies(m, Atom(sk, _XY[:1]))
    return clauses, vocab, weights


# --- cells -----------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _assignments(k: int) -> np.ndarray:
    """All 2^k truth assignments to k atoms, one per row, in
    ``itertools.product((False, True), repeat=k)`` order; built once per k,
    read-only."""
    bits = (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1 == 1
    bits.flags.writeable = False
    return bits


@functools.lru_cache(maxsize=8)
def _codes(b: int) -> np.ndarray:
    """Per cross assignment of b binary predicates, ``_assignments(2b)``,
    its base-3 code; built once per b, read-only."""
    cross = _assignments(2 * b)
    code = (cross[:, :b].astype(np.int64) + cross[:, b:]) @ 3 ** np.arange(b)
    code.flags.writeable = False
    return code


def _holds(preds, rows: np.ndarray, matrices) -> np.ndarray:
    """Per bool row of ``rows`` (one column per predicate), whether every
    matrix over x and y holds at a single element (y = x) of that cell."""
    values = {Atom(p, args): rows[:, k] for k, p in enumerate(preds)
              for args in itertools.product(_XY, repeat=p.arity)}
    values |= _TRUTH_LEAVES
    ok = np.ones(len(rows), dtype=bool)
    for m in matrices:
        ok &= evaluate_bitwise(m, values)
    return ok


def _enumerate_cells(preds, diag_matrices) -> np.ndarray:
    """Bool rows, one column per predicate, of the cell assignments
    consistent with every matrix over x and y at a single element (y = x)."""
    bits = _assignments(len(preds))
    return bits[_holds(preds, bits, diag_matrices)]


def _pair_table(matrices2, preds, table):
    """Cross-assignment codes for every pair of the cells in ``table``.

    A code's base-3 digit k counts the true cross atoms of the k-th binary
    predicate.  Returns ``(ids, rows, own)``: ``rows[ids[i, j]]`` is the
    sorted list of the codes of the assignments satisfying every matrix over
    x and y, in both orientations, between an element of cell i and one of
    cell j.  ``ids`` is symmetric, and equal ids mean equal rows.
    ``own[i, j]`` masks, over ``_assignments(b)``, the assignments to the
    cross atoms p(u, v) from u in cell i to v in cell j that occur in the
    pair's satisfying assignments; those are every combination of
    ``own[i, j]`` with ``own[j, i]`` exactly when their number is the
    product of the two sizes."""
    binary = [p for p in preds if p.arity == 2]
    b = len(binary)
    cross, half = _assignments(2 * b), 2 ** b
    x, y = _XY
    # The matrices hold over a (cell i, cell j, cross assignment) grid,
    # with x in cell i, y in cell j, and p(x, y) then p(y, x) taking the
    # cross columns, a block of cells i at a time.  An assignment's index
    # is its forward half, p(x, y), times 2^b plus its backward half.
    leaves = _TRUTH_LEAVES | {Atom(p, (y,) * p.arity): table[None, :, k, None]
                              for k, p in enumerate(preds)}
    for k, p in enumerate(binary):
        leaves[Atom(p, (x, y))] = cross[:, k]
        leaves[Atom(p, (y, x))] = cross[:, b + k]
    c = len(table)
    holds = np.ones((c, c, len(cross)), dtype=bool)
    step = max(1, _CHUNK // (len(cross) * max(c, 1)))
    for lo in range(0, c, step):
        block = table[lo:lo + step, :, None, None]
        values = leaves | {Atom(p, (x,) * p.arity): block[:, k]
                           for k, p in enumerate(preds)}
        for m in matrices2:
            holds[lo:lo + step] &= evaluate_bitwise(m, values)
    # The other orientation, x in cell j and y in cell i, is the transpose
    # with each assignment's halves swapped.
    holds = holds.reshape(c, c, half, half)
    ok = holds & holds.transpose(1, 0, 3, 2)
    own = ok.any(axis=3)
    # Row p counts the satisfying assignments of the p-th pair i <= j per
    # code; equal rows share an id.
    first, second = np.nonzero(np.arange(c)[:, None] <= np.arange(c))
    pair, assignment = np.nonzero(ok[first, second].reshape(len(first),
                                                            len(cross)))
    counts = np.bincount(pair * 3 ** b + _codes(b)[assignment],
                         minlength=len(first) * 3 ** b)
    raw, width = counts.tobytes(), counts.itemsize * 3 ** b
    index = {}
    found = [index.setdefault(raw[k:k + width], len(index))
             for k in range(0, len(raw), width)]
    rows = [np.repeat(np.arange(3 ** b), np.frombuffer(key, counts.dtype))
            .tolist() for key in index]
    ids = np.zeros((c, c), dtype=np.int64)
    ids[first, second] = ids[second, first] = found
    return ids, rows, own


# --- compiled theories ------------------------------------------------------

@dataclass(frozen=True)
class _Branch:
    nullary_values: tuple[tuple[str, bool], ...]
    # (-1)^|S|, S the ``exists x`` sentences whose complements it counts.
    sign: int
    # Per class of interchangeable cells, its cells' bool rows over the
    # element predicates.
    cells: tuple[list, ...]
    # (a, b), a <= b -> the sorted ``_pair_table`` codes between classes a
    # and b, whose monomials ``_weights`` builds once per call.
    pair_counts: dict
    # What the composition sum runs over, and what it weighs them by:
    # ``_outer_labels`` of the classes.
    labels: tuple[tuple[int, ...], ...]
    outgoing: dict


@dataclass(frozen=True)
class CompiledTheory:
    vocabulary: tuple[Predicate, ...]
    branches: tuple[_Branch, ...]
    # (1, -1) weight pairs of the relaxation predicates introduced by
    # Skolemization; applied on top of caller weights at evaluation time.
    skolem_weights: tuple[tuple[str, tuple[int, int]], ...] = ()
    # Per nullary branch, what ``_expand`` builds its branches from.
    tables: tuple = field(default=(), repr=False, compare=False)

    def _conditioned(self, gamma: Formula) -> "CompiledTheory | None":
        """This theory and ``gamma`` (checked by ``_check_fragment``) as
        ``compile_theory`` compiles them, read off this theory's tables, if
        gamma normalizes to one ``forall x m`` or ``exists x m``; else None."""
        clauses = []
        _normalize_sentence(gamma, list(self.vocabulary), clauses)
        kinds, m = clauses[-1]
        if len(clauses) > 1 or kinds not in ((ForAll,), (Exists,)):
            return None
        preds = [p for p in self.vocabulary if p.arity in (1, 2)]
        tables = tuple(filter(None, (_condition(entry, preds, kinds[0], m)
                                     for entry in self.tables)))
        return CompiledTheory(self.vocabulary, _expand(tables),
                              self.skolem_weights, tables)

    def wfomc(self, w, wbar, d: Domain):
        """The weighted count under (w, wbar) over ``d``, and the sum of its
        terms' magnitudes over every branch, which is 0 unless the terms
        are float or complex scalars."""
        if self.skolem_weights:
            w = w.updated({k: v[0] for k, v in self.skolem_weights})
            wbar = wbar.updated({k: v[1] for k, v in self.skolem_weights})
        binary = [(wbar(p.name), w(p.name))
                  for p in self.vocabulary if p.arity == 2]
        total = magnitude = 0
        # Overflow shows as inf or NaN and raises below, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for branch in self.branches:
                factor = branch.sign
                for name, value in branch.nullary_values:
                    factor = factor * (w(name) if value else wbar(name))
                table = _outer_table(
                    branch, binary, *_weights(self.vocabulary, branch.cells,
                                              branch.pair_counts, w, wbar))
                try:
                    value, _, size = _config_sum(d.size, *table)
                except OverflowError:  # an exact big-int term met a float
                    value, size = math.inf, 0
                total = total + factor * value
                magnitude = magnitude + abs(factor) * size
        return _check_range(total, "weighted count"), magnitude

    def composition_count(self, d: Domain) -> int:
        """Number of compositions the sum visits, over all branches:
        compositions of the elements into each branch's outer labels, one
        per set of separable classes with equal columns and one per other
        class (``_outer_labels``)."""
        sizes = (len(b.labels) for b in self.branches)
        return sum(math.comb(d.size + c - 1, c - 1) for c in sizes if c)


def _row_sum(pick, rows):
    """Sum over bool rows of the product of ``pick[k][bit k]``."""
    return functools.reduce(operator.add,
                            (math.prod(pair[v] for pair, v in zip(pick, row))
                             for row in rows), 0)


def _weights(vocab, cells, pair_counts, w, wbar):
    """Class weights and the symmetric pair-weight matrix of one branch.

    A class's weight sums its cells' products over the unary and binary p
    in ``vocab`` of w(p) where the row bit is true and wbar(p) where it is
    false; a binary p's bit is p(e, e), whose weight carries p's diagonal
    weight too.  A pair entry sums in code order its codes' monomials, each
    built once per call: products of w(p)^t * wbar(p)^(2-t) over the binary
    p, the first the lowest digit t."""
    # (wbar(p), w(p)), indexed by a row bit.
    pick = [(wbar(p.name), w(p.name)) if p.arity == 1 else
            (wbar(p.name) * wbar(diagonal(p)), w(p.name) * w(diagonal(p)))
            for p in vocab if p.arity in (1, 2)]
    weights = [_row_sum(pick, members) for members in cells]

    def monomial(code):
        term = 1
        for name, place in zip(binary, places):
            t = code // place % 3
            term = term * cpow(w(name), t) * cpow(wbar(name), 2 - t)
        return term

    binary = [p.name for p in vocab if p.arity == 2]
    places = [3 ** k for k in range(len(binary))]
    monomials = {c: monomial(c)
                 for c in sorted(set().union(*pair_counts.values()))}
    r = [[0] * len(cells) for _ in cells]
    for (i, j), codes in pair_counts.items():
        r[i][j] = r[j][i] = functools.reduce(
            operator.add, (monomials[c] for c in codes), 0)
    return weights, r


def _outer_table(branch, binary, weights, r):
    """The label weights, label pair table and layers that the sum over
    ``branch.labels`` reads, from the class-level ``_weights``.  ``binary``
    holds (wbar(p), w(p)) per binary p, and h(A) is ``_row_sum(binary, A)``.

    A label of one class k keeps w_k, and r_kl toward another such label l.
    Toward a label o of several classes its pair weights all factor as
    h(own[k][o]) times a factor of the partner's, so h(own[k][o]) is its
    entry there and the partner's factor moves into o's layer: o's members
    i, each with w_i and h(own[i][o']) per label o'.  Between two labels of
    several classes the entry is 1, as their factors are in the layers."""
    if not branch.outgoing:
        return weights, r, ()
    h = {key: _row_sum(binary, rows) for key, rows in branch.outgoing.items()}
    labels = branch.labels
    plain = [members[0] for members in labels if len(members) == 1]
    layered = range(len(plain), len(labels))
    table = [[r[k][l] for l in plain] + [h[k, o] for o in layered]
             for k in plain]
    table += [[h[k, o] for k in plain] + [1] * len(layered) for o in layered]
    layers = tuple((o, [(weights[i], [h[i, p] for p in range(len(labels))])
                        for i in labels[o]]) for o in layered)
    return [weights[k] for k in plain] + [1] * len(layered), table, layers


def _outer_labels(own, size):
    """The outer labels of one branch's classes, and the outgoing sets that
    ``_outer_table`` weighs.

    ``own`` holds the classes' ``_pair_table`` masks and ``size`` the
    lengths of their pair rows, as lists.  Class a is separable when its
    row with every class k, itself included, is every combination of
    ``own[a][k]`` with ``own[k][a]``; then each pair weight r_ak factors as
    h(own[a][k]) h(own[k][a]).  Separable classes with equal columns
    (``own[k][a]`` over all k) share a label, as every class sends them one
    set; every other class is a label of its own.  Returns the labels as
    tuples of classes, those of one class first in class order, and per
    (class a, label o), a or o of several classes, the bool rows of
    ``own[a][o]`` over the binary predicates."""
    columns = {}
    for a, row in enumerate(own):
        separable = all(n == sum(mask) * sum(own[k][a])
                        for k, (mask, n) in enumerate(zip(row, size[a])))
        key = tuple(tuple(r[a]) for r in own) if separable else a
        columns.setdefault(key, []).append(a)
    labels = tuple(sorted(map(tuple, columns.values()),
                          key=lambda members: len(members) > 1))
    if len(labels) == len(own):
        return labels, {}
    # A mask spans the 2^b assignments of the b binary predicates.
    bits = _assignments(len(own[0][0]).bit_length() - 1).tolist()
    return labels, {
        (a, p): [t for t, keep in zip(bits, own[a][others[0]]) if keep]
        for members in labels for p, others in enumerate(labels)
        if len(members) > 1 or len(others) > 1 for a in members}


def _branch(nullary_values, sign, rows, table, ids, own) -> _Branch:
    """The branch over the cells in ``table``, whose ``_pair_table`` entries
    are ``ids``, ``rows`` and ``own``."""
    # Cells with the same row of pair entries (so r_ii = r_jj = r_ij) are
    # interchangeable: by the multinomial theorem one cell whose weight is
    # the sum of theirs replaces them, for any weights.
    classes = {}
    for i, row in enumerate(ids):
        classes.setdefault(row.tobytes(), []).append(i)
    reps = [members[0] for members in classes.values()]
    pair_counts = {(a, b): rows[ids[reps[a], reps[b]]]
                   for a in range(len(reps)) for b in range(a, len(reps))}
    size = np.array([len(row) for row in rows])[ids[reps][:, reps]].tolist()
    return _Branch(
        nullary_values, sign,
        tuple(table[members].tolist() for members in classes.values()),
        pair_counts, *_outer_labels(own[reps][:, reps].tolist(), size))


def _expand(tables) -> tuple[_Branch, ...]:
    """Per nullary branch and subset S of its ``exists x`` misses, the
    branch of sign (-1)^|S| over the kept cells where every miss in S holds,
    unless S is nonempty and keeps no cell.  A branch that keeps every cell
    reads the tables as they are."""
    branches = []
    for values, table, keep, misses, ids, rows, own in tables:
        for subset in itertools.product((False, True), repeat=len(misses)):
            k = functools.reduce(operator.and_,
                                 itertools.compress(misses, subset), keep)
            if any(subset) and not k.any():
                continue
            cut = (table, ids, own) if k.all() else (
                table[k], ids[k][:, k], own[k][:, k])
            branches.append(_branch(values, (-1) ** sum(subset), rows, *cut))
    return tuple(branches)


def _nullary_leaves(values) -> dict:
    """The TRUE or FALSE leaf of each nullary atom of a branch's values."""
    return {Atom(Predicate(name, 0), ()): TRUE if bit else FALSE
            for name, bit in values}


def _condition(entry, preds, kind, m):
    """A nullary branch's tables ``entry`` conditioned on ``kind x m``, m
    over x alone: ``forall x m`` keeps only the cells where m holds, and
    ``exists x m`` adds the cells where m fails as one more miss.  None if m
    folds to FALSE under the branch's nullary values or a miss then holds on
    every kept cell, as no world of the branch satisfies it (n >= 1)."""
    values, table, keep, misses, *pairs = entry
    m = fold(m, _nullary_leaves(values))
    holds = _holds(preds, table, [m])
    if kind is Exists:
        misses += (~holds,)
    else:
        keep = keep & holds
    if m == FALSE or any(miss[keep].all() for miss in misses):
        return None
    return (values, table, keep, misses, *pairs)


def compile_theory(t: Fo2Theory) -> CompiledTheory:
    """Weight-independent compilation: normalize, Skolemize, branch on
    nullary atoms and on the complements of ``exists x`` clauses, and
    tabulate cells and cross-assignment counts."""
    clauses, vocab, _skw = _normalize_theory(t)
    nullary = sorted(p.name for p in vocab if p.arity == 0)
    element_preds = [p for p in vocab if p.arity in (1, 2)]
    universal = [(kinds, m) for kinds, m in clauses if kinds != (Exists,)]
    existential = [m for kinds, m in clauses if kinds == (Exists,)]

    tables = []
    for bits in itertools.product((False, True), repeat=len(nullary)):
        values = tuple(zip(nullary, bits))
        leaves = _nullary_leaves(values)
        # A quantifier-free clause has only nullary atoms, so it folds to
        # TRUE or FALSE.
        folded = [(kinds, fold(m, leaves)) for kinds, m in universal]
        if any(m == FALSE for _, m in folded):
            continue
        table = _enumerate_cells(element_preds, [m for _, m in folded])
        entry = (values, table, np.ones(len(table), dtype=bool), ())
        for m in existential:
            entry = entry and _condition(entry, element_preds, Exists, m)
        if entry:
            matrices2 = [m for kinds, m in folded if len(kinds) == 2]
            tables.append((*entry,
                           *_pair_table(matrices2, element_preds, table)))
    return CompiledTheory(tuple(vocab), _expand(tables),
                          tuple(sorted(_skw.items())), tuple(tables))


def _config_sum(n: int, cell_weights: list, r: list, layers=()):
    """Sum over compositions of n elements into cells, in colexicographic
    order, of multinomial(n; counts) * prod w_i^{n_i} * prod r_ii^{C(n_i,2)}
    * prod_{i<j} r_ij^{n_i n_j}, times W_o^{n_o} per layer (o, members) of
    ``_outer_table``, W_o the sum over its members (w, h) of w * prod_j
    h_j^{n_j - [j = o]}.  Returns (value, compositions_visited, sum of
    |term| over the float and complex scalar terms)."""
    c = len(cell_weights)
    if c == 0:
        return (1 if n == 0 else 0), 0, 0
    # Rows: the cells' rows of r, then the layers' members' rows of h; in
    # rpow, column c stands for the cell weights.  Each power is built once.
    members = [(o, w, hs) for o, ms in layers for w, hs in ms]
    rows = r + [hs for _, _, hs in members]
    spans = [(o, [(c + m, w) for m, (p, w, _) in enumerate(members) if p == o])
             for o, _ in layers]
    pow_cache: dict = {}
    width, stride = c + 1, n * n + 1

    def rpow(i: int, j: int, e: int):
        key = (i * width + j) * stride + e
        if key not in pow_cache:
            pow_cache[key] = cpow(rows[i][j] if j < c else cell_weights[i], e)
        return pow_cache[key]

    total = magnitude = 0
    leaves = 0
    # Assign the last cell's count in the outermost loop so completed
    # compositions appear in colexicographic order.
    assigned: list[tuple[int, int]] = []
    counts = [0] * c

    def rec(idx: int, remaining: int, acc):
        nonlocal total, leaves, magnitude
        if idx == 0:
            k = counts[0] = remaining
            term = acc
            if k:
                term = term * rpow(0, c, k)
                term = term * rpow(0, 0, k * (k - 1) // 2)
                for j, nj in assigned:
                    term = term * rpow(0, j, k * nj)
            for o, rows_w in spans:
                if counts[o]:
                    weight = 0
                    for i, w in rows_w:
                        w = w * rpow(i, 0, k - (o == 0))
                        for j, nj in reversed(assigned):
                            w = w * rpow(i, j, nj - (j == o))
                        weight = weight + w
                    term = term * cpow(weight, counts[o])
            total += term
            if isinstance(term, (float, complex)):
                magnitude += abs(term)
            leaves += 1
            return
        rec(idx - 1, remaining, acc)
        for k in range(1, remaining + 1):
            term = acc * math.comb(remaining, k)
            term = term * rpow(idx, c, k)
            term = term * rpow(idx, idx, k * (k - 1) // 2)
            for j, nj in assigned:
                term = term * rpow(idx, j, k * nj)
            assigned.append((idx, k))
            counts[idx] = k
            rec(idx - 1, remaining - k, term)
            assigned.pop()
        counts[idx] = 0

    rec(c - 1, n, 1)
    rec = None  # rec holds itself: free the cache now, not in a later GC pass
    return total, leaves, magnitude
