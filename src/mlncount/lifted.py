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
   bit's weight.  The binary matrices hold over a (cell i, cell j, cross
   assignment) grid, x in cell i, evaluated once: x in cell j is its
   transpose with each assignment's halves swapped.  One count over the
   grid gives each cell pair's allowed assignments per base-3 code, digit
   k the k-th binary predicate's true cross atoms.  Cells with equal rows
   of counts merge, weights summed, which cuts the compositions visited.
   Each distinct row between classes becomes a sorted code list once;
   each call builds a code's monomial once.
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
   instead of across compositions; only one-class labels read pair weights.

Arithmetic is generic: the sum raises the weights to a size-only table of
exponents (``_compositions``) in one evaluation for every type.  Integer and
``Fraction`` weights sum exactly in object arrays, float and complex weights
in floating point, every power checked against ``MAGNITUDE_LIMIT`` of the
table of numeric limits in ``errors`` (``_check_range``).  A weight may also
be a numpy array, an axis along which one pass evaluates every element.
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
    Or, Predicate, TRUE, Var, children, diagonal, evaluate_bitwise, fold,
    free_variables, fresh_predicate, leaf_terms, substitute,
)

# Bound on the bytes of an array evaluated at once: (cell, cell, cross
# assignment) bools in the pair table, (composition, column) powers in the
# composition sum; so that neither grows with the cells squared or n.
_CHUNK = 1 << 16
_TRUTH_LEAVES = {TRUE: np.True_, FALSE: np.False_}
# The two variables of every normalized clause.
_XY = (Var("x"), Var("y"))


def _check_range(value, what: str, *args):
    """``value``, or NumericOverflowError naming ``what % args`` if it is
    a float or complex scalar or array above MAGNITUDE_LIMIT or NaN."""
    if getattr(value, "dtype", type(value)) in (float, complex):
        top = np.maximum.reduce(abs(value), None, initial=0)
        if not top <= MAGNITUDE_LIMIT:
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
    """Reject what the lifted fragment cannot count, in one walk over ``s``:
    free variables; else the first in pre-order of a predicate outside the
    vocabulary, an equality atom or a constant (domain element); else more
    than two variable names, bound ones included."""
    names, faults = set(), []

    # Whether g has a variable not in ``bound``; records g's names and faults.
    def free(g, bound) -> bool:
        if isinstance(g, Not):
            return free(g.body, bound)
        if isinstance(g, (And, Or, Implies, Iff)):
            return free(g.left, bound) | free(g.right, bound)
        if isinstance(g, Atom) and g.pred not in vocabulary:
            faults.append(VocabularyError(f"undeclared predicate {g.pred}"))
        if isinstance(g, Eq):
            faults.append(UnsupportedSentenceError(
                "equality atoms are outside the lifted fragment"))
        quantified = isinstance(g, (ForAll, Exists))
        # An equality's sides too: its fault comes first either way.
        terms = (g.var,) if quantified else leaf_terms(g)
        if any(isinstance(t, int) for t in terms):
            faults.append(UnsupportedSentenceError(
                "constants (domain elements) are outside the lifted fragment"))
        names.update(t.name for t in terms if isinstance(t, Var))
        if quantified:
            return free(g.body, bound + terms)
        return any(isinstance(t, Var) and t not in bound for t in terms)

    if free(s, ()):
        raise UnsupportedSentenceError(f"sentence has free variables: {s}")
    if faults:
        raise faults[0]
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
    if not isinstance(f, (ForAll, Exists)):
        old = children(f)
        parts = [_eliminate_inner(g, vocab, out) for g in old]
        return f if all(map(operator.is_, parts, old)) else type(f)(*parts)
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
    # ``body`` is folded and ``_eliminate_inner`` adds only atoms: no fold.
    _emit(out, quantifiers, variables, _eliminate_inner(body, vocab, out))


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
    """Cross-assignment counts for every pair of the cells in ``table``.

    A code's base-3 digit k counts the true cross atoms of the k-th binary
    predicate.  Returns ``(counts, own)``: ``counts[i, j] == counts[j, i]``
    counts per code the assignments satisfying every matrix over x and y,
    in both orientations, between an element of cell i and one of cell j.
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
    # Counts per pair p = c i + j and code k, at p 3^b + k.  A count is at
    # most 2^b, the assignments of one code.
    pair, assignment = np.nonzero(ok.reshape(c * c, len(cross)))
    counts = np.bincount(pair * 3 ** b + _codes(b)[assignment],
                         minlength=c * c * 3 ** b)
    counts = counts.astype(np.min_scalar_type(half))
    return counts.reshape(c, c, 3 ** b), ok.any(axis=3)


# --- compiled theories ------------------------------------------------------

@dataclass(frozen=True)
class _Branch:
    nullary_values: tuple[tuple[str, bool], ...]
    # (-1)^|S|, S the ``exists x`` sentences whose complements it counts.
    sign: int
    # Per class of interchangeable cells, its cells' bool rows over the
    # element predicates.
    cells: tuple[list, ...]
    # (a, b), a <= b -> the sorted codes between classes a and b, each as
    # often as ``_pair_table`` counts it; ``_label_table`` weighs them.
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
        """The weighted count under (w, wbar) over ``d``, and the magnitudes
        of its terms summed over every branch whose sum runs on float or
        complex scalars; exact and array sums add 0 (``_config_sum``).  An
        int weight or multinomial beyond the float range that meets a float
        raises NumericOverflowError, as does a count above MAGNITUDE_LIMIT."""
        if self.skolem_weights:
            w = w.updated({k: v[0] for k, v in self.skolem_weights})
            wbar = wbar.updated({k: v[1] for k, v in self.skolem_weights})
        total = magnitude = 0
        try:
            # Overflow shows as inf or NaN and raises below, not as a warning.
            with np.errstate(over="ignore", invalid="ignore"):
                # Each weight read once: (wbar(p), w(p)), indexed by a bit.
                read = {p.name: (wbar(p.name), w(p.name))
                        for p in self.vocabulary}
                binary = [read[p.name] for p in self.vocabulary
                          if p.arity == 2]
                # A binary p's bit is p(e, e): it carries the diagonal weight.
                pick = [read[p.name] if p.arity == 1 else
                        (read[p.name][0] * wbar(diagonal(p)),
                         read[p.name][1] * w(diagonal(p)))
                        for p in self.vocabulary if p.arity in (1, 2)]
                # w(p)^t * wbar(p)^(2-t) for t = 0, 1, 2, per binary p.
                factors = [(no * no, yes * no, yes * yes)
                           for no, yes in binary]
                for branch in self.branches:
                    factor = branch.sign
                    for name, value in branch.nullary_values:
                        factor = factor * read[name][value]
                    value, _, size = _config_sum(d.size, *_label_table(
                        branch, pick, binary, factors))
                    total = total + factor * value
                    magnitude = magnitude + abs(factor) * size
        except OverflowError as error:  # an exact big int met a float
            raise NumericOverflowError(
                f"an int weight or multinomial leaves the float range "
                f"({error})") from None
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
    return functools.reduce(operator.add, (
        math.prod(map(operator.getitem, pick, row)) for row in rows), 0)


def _label_table(branch, pick, binary, factors):
    """The label weights, label pair table and layers that the sum over
    ``branch.labels`` reads, from the weights ``CompiledTheory.wfomc`` read
    per predicate: ``pick``, ``binary`` and ``factors``; h(A) is
    ``_row_sum(binary, A)``.

    Class k weighs w_k, the ``_row_sum(pick, ...)`` of its cells.  A label
    of one class k keeps w_k, and r_kl toward another such label l: the sum
    in code order of the monomials of their ``pair_counts``, each built
    once, the product over binary p of ``factors[p][t]``, t p's digit, the
    lowest first.  Toward a label o of several classes its pair weights all
    factor as h(own[k][o]) times a factor of the partner's, so h(own[k][o])
    is its entry there and the partner's factor moves into o's layer: o's
    members i, each with w_i and h(own[i][o']) per label o'.  Between two
    labels of several classes the entry is 1, as their factors are in the
    layers."""
    weights = [_row_sum(pick, rows) for rows in branch.cells]
    h = {key: _row_sum(binary, rows) for key, rows in branch.outgoing.items()}
    labels = branch.labels
    plain = [members[0] for members in labels if len(members) == 1]
    layered = range(len(plain), len(labels))
    pairs = {(k, l): branch.pair_counts[k, l] for k in plain for l in plain
             if k <= l}
    monomials = {c: math.prod(f[c // 3 ** k % 3]
                              for k, f in enumerate(factors))
                 for c in set().union(*pairs.values())}
    r = {}
    for (k, l), codes in pairs.items():
        r[k, l] = r[l, k] = functools.reduce(
            operator.add, map(monomials.get, codes), 0)
    table = [[r[k, l] for l in plain] + [h[k, o] for o in layered]
             for k in plain]
    table += [[h[k, o] for k in plain] + [1] * len(layered) for o in layered]
    layers = tuple((o, [(weights[i], [h[i, p] for p in range(len(labels))])
                        for i in labels[o]]) for o in layered)
    return [weights[k] for k in plain] + [1] * len(layered), table, layers


def _outer_labels(own, size):
    """The outer labels of one branch's classes, and the outgoing sets that
    ``_label_table`` weighs.

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


def _branch(nullary_values, sign, table, counts, own) -> _Branch:
    """The branch over the cells in ``table``, whose ``_pair_table`` entries
    are ``counts`` and ``own``."""
    # Cells with the same row of pair entries (so r_ii = r_jj = r_ij) are
    # interchangeable: by the multinomial theorem one cell whose weight is
    # the sum of theirs replaces them, for any weights.
    classes = {}
    for i, row in enumerate(counts):
        classes.setdefault(row.tobytes(), []).append(i)
    reps = [members[0] for members in classes.values()]
    counts, codes = counts[reps][:, reps], np.arange(counts.shape[-1])
    keys = {(a, b): counts[a, b].tobytes()
            for a in range(len(reps)) for b in range(a, len(reps))}
    # Each distinct row of counts becomes a code list once.
    lists = {key: codes.repeat(np.frombuffer(key, counts.dtype)).tolist()
             for key in set(keys.values())}
    return _Branch(
        nullary_values, sign,
        tuple(table[members].tolist() for members in classes.values()),
        {pair: lists[key] for pair, key in keys.items()},
        *_outer_labels(own[reps][:, reps].tolist(), counts.sum(2).tolist()))


def _expand(tables) -> tuple[_Branch, ...]:
    """Per nullary branch and subset S of its ``exists x`` misses, the
    branch of sign (-1)^|S| over the kept cells where every miss in S holds,
    unless S is nonempty and keeps no cell.  A branch that keeps every cell
    reads the tables as they are."""
    branches = []
    for values, table, keep, misses, counts, own in tables:
        for subset in itertools.product((False, True), repeat=len(misses)):
            k = functools.reduce(operator.and_,
                                 itertools.compress(misses, subset), keep)
            if any(subset) and not k.any():
                continue
            cut = (table, counts, own) if k.all() else (
                table[k], counts[k][:, k], own[k][:, k])
            branches.append(_branch(values, (-1) ** sum(subset), *cut))
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


@functools.lru_cache(maxsize=32)
def _compositions(n: int, c: int, exact: bool, layered: bool):
    """The compositions m of n elements into c cells, the last cell's count
    the most significant, as rows of exponents ``[m_i | C(m_i, 2) | m_i m_j
    for i < j]`` (and if ``layered``, per cell o, ``max(m_j - [j = o], 0)``
    where m_o > 0) and of multinomials, Python ints if ``exact``, read-only."""
    # Counts lie between bars, the first most significant; exponents < n^2.
    kind = np.min_scalar_type(max(n * n, n + c)).type
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(
        range(1, n + c), c - 1)), kind).reshape(math.comb(n + c - 1, n), -1)
    m = np.diff(bars, prepend=kind(0), append=kind(n + c))[:, ::-1] - 1
    layer = np.where(m[..., None] > 0, m[:, None] - np.identity(c, m.dtype),
                     0).reshape(len(m), c * c) if layered else m[:, :0]
    i, j = np.triu_indices(c, 1)
    exponents = np.hstack([m, m * (m - 1) // 2, m[:, i] * m[:, j], layer])
    exponents = exponents.astype(object) if exact else exponents
    factorials = np.array([math.factorial(t) for t in range(n + 1)], object)
    multinomials = factorials[n] // factorials[m].prod(axis=1)
    multinomials = multinomials if exact else multinomials.astype(float)
    exponents.flags.writeable = multinomials.flags.writeable = False
    return exponents, multinomials


def _config_sum(n: int, cell_weights: list, r: list, layers=()):
    """Sum over compositions m of n elements into cells of multinomial(n;
    m) * prod w_i^{m_i} * prod r_ii^{C(m_i,2)} * prod_{i<j} r_ij^{m_i m_j},
    times W_o^{m_o} per layer (o, members) of ``_label_table``, W_o the sum
    over its members (w, h) of w * prod_j h_j^{max(m_j - [j = o], 0)}.

    Each weight and h_j but an int 1 is raised to its column of
    ``_compositions``, ``_CHUNK`` bytes of (composition, column) at a time:
    exactly in object arrays if all are ints and ``Fraction``s, else in
    floats, range-checked, with a leading axis if some weight is an array.
    Returns (value, compositions visited, sum of |term| over every term of a
    float or complex scalar sum, 0 for exact and array sums)."""
    c = len(cell_weights)
    if c == 0:
        return (1 if n == 0 else 0), 0, 0
    weights = [*cell_weights] + [r[i][i] for i in range(c)] + [
        x for i, row in enumerate(r) for x in row[i + 1:]]
    columns = [k for k, x in enumerate(weights)
               if not (isinstance(x, int) and x == 1)]
    plain, values = len(columns), [weights[k] for k in columns]
    # Per layer: o, its ws span, and the summed w of members with all h int 1.
    ws, spans = [], []
    for o, ms in layers:
        first, constant, at = len(ws), 0, len(weights) + o * c
        for w, hs in ms:
            if all(isinstance(h, int) and h == 1 for h in hs):
                constant = constant + w
            else:
                ws.append(w)
                values += hs
                columns += range(at, at + c)
        spans.append((o, first, len(ws), constant))
    inexact = [x for x in values + ws + [span[3] for span in spans]
               if isinstance(x, (float, complex, np.ndarray))]
    dtype = np.result_type(*inexact, float) if inexact else object
    shape = next((x.shape for x in inexact if isinstance(x, np.ndarray)), ())
    # Frequencies lead, then compositions, then the weights and members' w.
    stack = np.empty((*shape, len(values) + len(ws)), dtype)
    for k, x in enumerate(values + ws):
        stack[..., k] = x
    bases, ws = stack[..., None, :len(values)], stack[..., None, len(values):]
    exponents, multinomials = _compositions(n, c, not inexact, bool(layers))
    size = max(len(columns), 1) * math.prod(shape) * stack.itemsize
    step = max(1, _CHUNK // size)
    totals, magnitude = [], 0
    for lo in range(0, len(exponents), step):
        block = exponents[lo:lo + step]
        powers = _check_range(bases ** block[:, columns], "a weight's power")
        terms = multinomials[lo:lo + step]
        if plain:
            terms = terms * np.multiply.reduce(powers[..., :plain], -1)
        if layers:
            # Per member, w * prod_j h_j^{...}; W_o sums o's members.
            each = ws * np.multiply.reduce(powers[..., plain:].reshape(
                *powers.shape[:-1], ws.shape[-1], c), -1)
            for o, first, stop, constant in spans:
                weight = np.asarray(constant)[..., None] + np.add.reduce(
                    each[..., first:stop], -1)
                terms = terms * _check_range(weight ** block[:, o],
                                             "a layer weight's power")
        totals.append(np.add.reduce(terms, -1))
        if inexact and not shape:
            magnitude = magnitude + np.add.reduce(abs(terms))
    total = functools.reduce(operator.add, totals)
    total = total.item() if isinstance(total, np.generic) else total
    return total, len(exponents), magnitude
