"""Domain-lifted weighted model counting for two-variable theories.

The pipeline turns an arbitrary theory of two-variable sentences into a sum
that is polynomial in the domain size:

1. *Normalization* rewrites every sentence into plain prenex formulas of
   the shapes ``forall x m``, ``forall x forall y m``, ``forall x exists y
   m``, ``exists x m`` or ``m``, the matrix m quantifier-free (nullary
   atoms only in ``m`` alone), using fresh definition predicates for
   nested quantifiers and for what follows a leading ``exists``, after
   ``logic.fold`` has folded TRUE/FALSE leaves and dropped vacuous
   quantifiers.  Each emitted sentence has its prefix variables renamed to
   x and y at once, so later steps bind the atoms over x and y directly.
   Definitions are equivalences, so each original world extends uniquely
   and the weighted count is unchanged.
2. *Skolemization* removes existentials: ``forall x exists y m`` becomes
   ``forall x forall y (m -> s(x))`` and ``exists x m`` becomes ``forall x
   forall y (m -> s(y))``, with a fresh unary ``s`` weighted ``(1, -1)``,
   so worlds without a witness cancel out of the sum.
3. *Conditioning* branches on the truth of nullary atoms, leaving pure
   universally quantified matrices per branch (``logic.fold`` with the
   branch's nullary values).
4. *Cell decomposition* groups elements by their complete truth assignment
   over unary and reflexive-binary atoms; the count is a sum over
   compositions of the domain into cells, with per-cell weights and
   per-cell-pair cross weights.  Compilation keeps each cell's bool row
   and, per cell pair, the base-3 codes of the allowed cross assignments;
   each call builds a code's weight monomial once.  Cells with equal pair
   rows merge, weights summed, which cuts the compositions visited.  An
   empty pair row (from ``exists x`` sentences, for one) zeroes every term
   that fills both its cells, for any weights, so the sum skips them.
5. *Collapse* of product-structured classes.  Where the cross assignments
   a class g allows toward every class it meets are every combination of
   one set S_g of its own outgoing atoms p(u, v) with a set of the other's
   (as Skolemizing ``forall x exists y`` leaves them), each pair weight
   factors as h(S_g) h(T), h summing the weights of the assignments.
   Such classes that offer every other class the same set T form a group,
   and the group sums into one cell weighted sum_g w_g h(S_g)^(n-1): for
   ``forall x exists y f(x,y)`` the whole sum becomes one composition,
   (2^n - 1)^n with unit weights, and the (1, -1) Skolem weights cancel
   inside that cell's weight instead of across compositions.

Arithmetic is generic: integer weights give exact (bignum) results, any
other weights run in complex floating point with overflow detection.  A
weight may also be a numpy array, which evaluates the sum for every element
in one pass over the compositions.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, UnsupportedSentenceError
from .logic import (
    And, Atom, Domain, Exists, FALSE, ForAll, Formula, Iff, Implies, Not, Or,
    Predicate, TRUE, Truth, Var, all_variables, contains_constants,
    contains_equality, evaluate_bitwise, fold, free_variables, fresh_name,
    substitute,
)

_MAGNITUDE_LIMIT = 1e300
# Bound on the (cell pair, cross assignment) entries the pair table
# evaluates at once, so its memory does not grow with the cells squared.
_CHUNK = 1 << 16
_TRUTH_LEAVES = {TRUE: np.True_, FALSE: np.False_}
# The two variables of every normalized sentence.
_XY = (Var("x"), Var("y"))


def cpow(base, exponent: int):
    """base**exponent by repeated squaring; exact for ints, checked for
    magnitude otherwise (every element, for numpy arrays)."""
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
    # False for NaN; elementwise for arrays.
    within = abs(result) <= _MAGNITUDE_LIMIT
    if within is not True and not np.all(within):
        raise NumericOverflowError(
            f"|{base!r}**{exponent}| exceeds {_MAGNITUDE_LIMIT:g}")
    return result


@dataclass(frozen=True)
class Fo2Theory:
    """A finite set of closed two-variable sentences over a vocabulary."""

    sentences: tuple[Formula, ...]
    vocabulary: tuple[Predicate, ...]

    @staticmethod
    def of(sentences, vocabulary) -> "Fo2Theory":
        return Fo2Theory(tuple(sentences), tuple(vocabulary))


# --- normalization ----------------------------------------------------------

class _Vocabulary:
    """Tracks predicates and hands out fresh names."""

    def __init__(self, preds):
        self.preds = list(preds)
        self._names = {p.name for p in self.preds}

    def fresh(self, base: str, arity: int) -> Predicate:
        p = Predicate(fresh_name(base, self._names), arity)
        self.preds.append(p)
        return p


def _check_fragment(s: Formula) -> None:
    if free_variables(s):
        raise UnsupportedSentenceError(f"sentence has free variables: {s}")
    if contains_equality(s):
        raise UnsupportedSentenceError(
            "equality atoms are outside the lifted fragment")
    if contains_constants(s):
        raise UnsupportedSentenceError(
            "constants (domain elements) are outside the lifted fragment")
    names = {v.name for v in all_variables(s)}
    if len(names) > 2:
        raise UnsupportedSentenceError(
            f"sentence uses {len(names)} distinct variables: {s}")


def _emit(out: list, quantifiers, variables, matrix: Formula) -> None:
    """Append ``Q1 x Q2 y matrix``: the prefix variables are renamed to x
    and y at once, so a prefix binding y before x swaps them."""
    canonical = _XY[:len(variables)]
    f = substitute(matrix, dict(zip(variables, canonical)))
    for q, v in reversed(list(zip(quantifiers, canonical))):
        f = q(v, f)
    out.append(f)


def _eliminate_inner(f: Formula, vocab: _Vocabulary, out: list) -> Formula:
    """Replace quantified subformulas by fresh definition predicates,
    emitting the defining sentences into ``out``.  Returns a
    quantifier-free formula."""
    if isinstance(f, (Atom, Truth)):
        return f
    if isinstance(f, Not):
        return Not(_eliminate_inner(f.body, vocab, out))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(_eliminate_inner(f.left, vocab, out),
                       _eliminate_inner(f.right, vocab, out))
    if isinstance(f, (ForAll, Exists)):
        inner = _eliminate_inner(f.body, vocab, out)
        fv = sorted(free_variables(inner) - {f.var})
        if len(fv) > 1:
            raise UnsupportedSentenceError(
                f"quantified subformula with two free variables: {f}")
        # d(fv) <-> Q v inner, as a universal and an existential half.
        datom = Atom(vocab.fresh("def", len(fv)), tuple(fv))
        if isinstance(f, Exists):
            every, some = Implies(inner, datom), Implies(datom, inner)
        else:
            every, some = Implies(datom, inner), Or(datom, Not(inner))
        variables = fv + [f.var]
        _emit(out, [ForAll] * len(variables), variables, every)
        _emit(out, [ForAll] * len(fv) + [Exists], variables, some)
        return datom
    raise TypeError(f"not a formula: {f!r}")


def _normalize_sentence(s: Formula, vocab: _Vocabulary, out: list) -> None:
    """Emit ``s`` as ``m``, ``forall x m``, ``forall x forall y m``,
    ``forall x exists y m`` or ``exists x m``, m quantifier-free; a leading
    ``exists`` ends the prefix, and definitions name what follows it."""
    _check_fragment(s)
    body = fold(s)
    quantifiers, variables = [], []
    while isinstance(body, (ForAll, Exists)) and len(quantifiers) < 2 \
            and Exists not in quantifiers:
        quantifiers.append(type(body))
        variables.append(body.var)
        body = body.body
    _emit(out, quantifiers, variables,
          fold(_eliminate_inner(body, vocab, out)))


def _prefix(s: Formula):
    """The quantifier types and the quantifier-free matrix of a prenex
    sentence."""
    kinds = []
    while isinstance(s, (ForAll, Exists)):
        kinds.append(type(s))
        s = s.body
    return tuple(kinds), s


def _normalize_theory(t: Fo2Theory):
    """Normalize and Skolemize every sentence of ``t``.  Returns (sentences,
    vocabulary, skolem weight entries); each sentence is ``m``, ``forall x
    m`` or ``forall x forall y m``.

    ``forall x exists y m`` becomes ``forall x forall y (m -> s(x))`` and
    ``exists x m`` becomes ``forall x forall y (m -> s(y))``, s a fresh
    unary predicate weighted (1, -1): where a witness exists every s-atom
    is forced true (factor 1); otherwise s is free and its assignments sum
    to (1 - 1)^n = 0."""
    vocab = _Vocabulary(t.vocabulary)
    normal = []
    for s in t.sentences:
        _normalize_sentence(s, vocab, normal)
    x, y = _XY
    sentences, weights = [], {}
    for s in normal:
        kinds, m = _prefix(s)
        if Exists in kinds:
            sk = vocab.fresh("sk", 1)
            weights[sk.name] = (1, -1)
            witness = y if kinds == (Exists,) else x
            s = ForAll(x, ForAll(y, Implies(m, Atom(sk, (witness,)))))
        sentences.append(s)
    return sentences, vocab, weights


# --- cells -----------------------------------------------------------------

def _assignments(k: int) -> np.ndarray:
    """All 2^k truth assignments to k atoms, one per row, in
    ``itertools.product((False, True), repeat=k)`` order."""
    return (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1 == 1


def _enumerate_cells(preds, diag_matrices) -> np.ndarray:
    """Bool rows, one column per predicate, of the cell assignments
    consistent with every matrix over x and y at a single element (y = x)."""
    bits = _assignments(len(preds))
    values = {Atom(p, args): bits[:, k] for k, p in enumerate(preds)
              for args in itertools.product(_XY, repeat=p.arity)}
    values |= _TRUTH_LEAVES
    ok = np.ones(len(bits), dtype=bool)
    for m in diag_matrices:
        ok &= evaluate_bitwise(m, values)
    return bits[ok]


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
    cross = _assignments(2 * b)
    code = (cross[:, :b].astype(np.int64) + cross[:, b:]) @ 3 ** np.arange(b)
    half = 2 ** b
    # Per orientation (u, v), u the element of cell i and v that of cell j,
    # the cross atoms r(u, v) and then r(v, u) take the cross columns.
    # Each also lists the atoms of u's own cell and of v's.
    orientations = []
    for u, v in (_XY, _XY[::-1]):
        atoms = [Atom(p, (u, v)) for p in binary] + \
                [Atom(p, (v, u)) for p in binary]
        values = {a: cross[:, k] for k, a in enumerate(atoms)} | _TRUTH_LEAVES
        orientations.append(([Atom(p, (u,) * p.arity) for p in preds],
                             [Atom(p, (v,) * p.arity) for p in preds], values))
    c = len(table)
    ids = np.zeros((c, c), dtype=np.int64)
    rows, index = [], {}
    own = np.zeros((c, c, half), dtype=bool)
    # Cell pairs i <= j, a chunk at a time: element 0 in cell i, element 1
    # in cell j, evaluated as (pairs, cross assignments) arrays.
    first, second = np.triu_indices(c)
    step = max(1, _CHUNK // len(cross))
    for lo in range(0, len(first), step):
        left, right = first[lo:lo + step], second[lo:lo + step]
        ok = np.ones((len(left), len(cross)), dtype=bool)
        ends = table[left, :, None], table[right, :, None]
        for u_atoms, v_atoms, values in orientations:
            for atoms, end in zip((u_atoms, v_atoms), ends):
                for k, atom in enumerate(atoms):
                    values[atom] = end[:, k]
            for m in matrices2:
                ok &= evaluate_bitwise(m, values)
        pair, assignment = np.nonzero(ok)
        # An assignment's index is its forward half, p(u, v), times 2^b
        # plus its backward half.
        own[left, right], own[right, left] = (
            np.bincount(pair * half + side, minlength=len(left) * half)
            .reshape(len(left), half) > 0
            for side in (assignment >> b, assignment & half - 1))
        # Row p counts the satisfying assignments of pair p per code.
        counts = np.bincount(pair * 3 ** b + code[assignment],
                             minlength=len(left) * 3 ** b).reshape(len(left), -1)
        raw, width = counts.tobytes(), counts.itemsize * 3 ** b
        found = []
        for p in range(len(left)):
            key = raw[p * width:(p + 1) * width]
            if key not in index:
                index[key] = len(rows)
                rows.append(np.repeat(np.arange(3 ** b), counts[p]).tolist())
            found.append(index[key])
        ids[left, right] = ids[right, left] = found
    return ids, rows, own


# --- compiled theories ------------------------------------------------------

@dataclass(frozen=True)
class _Collapse:
    """The table a branch's composition sum runs over: its classes, with
    each group of product-structured classes replaced by one cell."""

    # The classes kept as cells, in order; the groups' cells follow them.
    rest: tuple[int, ...]
    # Per group, (class g, bool rows of S_g over the binary predicates) per
    # member.
    groups: tuple[tuple[tuple[int, list], ...], ...]
    # Per group, the bool rows of T_Gk per class k of ``rest``.
    toward: tuple[tuple[list, ...], ...]
    # ``_exclusions`` of the collapsed table's empty entries.
    exclusions: tuple[list, list]


@dataclass(frozen=True)
class _Branch:
    nullary_values: tuple[tuple[str, bool], ...]
    # Per class of interchangeable cells, its cells' bool rows over the
    # element predicates.
    cells: tuple[list, ...]
    # (a, b), a <= b -> the sorted ``_pair_table`` codes between classes a
    # and b, whose monomials ``_weights`` builds once per call.
    pair_counts: dict
    # What the composition sum runs over: ``_find_groups`` of the classes.
    collapse: _Collapse


@dataclass(frozen=True)
class CompiledTheory:
    vocabulary: tuple[Predicate, ...]
    branches: tuple[_Branch, ...]
    # (1, -1) weight pairs of the relaxation predicates introduced by
    # Skolemization; applied on top of caller weights at evaluation time.
    skolem_weights: tuple[tuple[str, tuple[int, int]], ...] = ()

    def wfomc(self, w, wbar, d: Domain):
        if self.skolem_weights:
            w = w.updated({k: v[0] for k, v in self.skolem_weights})
            wbar = wbar.updated({k: v[1] for k, v in self.skolem_weights})
        binary = [(wbar(p.name), w(p.name))
                  for p in self.vocabulary if p.arity == 2]
        total = 0
        # Array overflow shows as inf or NaN and raises below, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for branch in self.branches:
                factor = 1
                for name, value in branch.nullary_values:
                    factor = factor * (w(name) if value else wbar(name))
                cells, pairs = _collapsed_table(
                    branch.collapse, d.size, binary,
                    *_weights(self.vocabulary, branch.cells,
                              branch.pair_counts, w, wbar))
                try:
                    value, _ = _config_sum(d.size, cells, pairs,
                                           branch.collapse.exclusions)
                except OverflowError as err:
                    # An exact big-int term met a float weight.
                    raise NumericOverflowError(
                        f"weighted count left the floating-point range: {err}"
                    ) from err
                total = total + factor * value
        if not isinstance(total, int):
            within = abs(total) <= _MAGNITUDE_LIMIT
            if within is not True and not np.all(within):
                raise NumericOverflowError(
                    "weighted count left the floating-point range")
        return total

    def composition_count(self, d: Domain) -> int:
        """Number of cell compositions the sum visits, over all branches:
        compositions of the elements into the collapsed table's cells (one
        per group of product-structured classes, one per other class) that
        fill no two cells joined by an empty entry and put at most one
        element in a cell whose own entry is empty."""
        return sum(_pruned_count(d.size, *b.collapse.exclusions)
                   for b in self.branches)


def _row_sum(pick, rows):
    """Sum over bool rows of the product of ``pick[k][bit k]``."""
    return functools.reduce(operator.add,
                            (math.prod(pair[v] for pair, v in zip(pick, row))
                             for row in rows), 0)


def _weights(vocab, cells, pair_counts, w, wbar):
    """Class weights and the symmetric pair-weight matrix of one branch.

    A class's weight sums its cells' products over the unary and binary p
    in ``vocab`` of w(p) where the row bit is true and wbar(p) where it is
    false.  A pair entry sums in code order its codes' monomials, each
    built once per call: products of w(p)^t * wbar(p)^(2-t) over the binary
    p, the first the lowest digit t."""
    # (wbar(p), w(p)), indexed by a row bit.
    pick = [(wbar(p.name), w(p.name)) for p in vocab if p.arity in (1, 2)]
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


def _collapsed_table(collapse, n, binary, cells, r):
    """The cell weights and pair table of ``collapse``, from the class-level
    ``_weights``.  ``binary`` holds (wbar(p), w(p)) per binary p, and h(A)
    is ``_row_sum(binary, A)``.

    A group's cell weighs sum_g w_g h(S_g)^(n-1), with 1 to itself and to
    the groups it meets and h(T_Gk) to each kept class k: each pair weight
    r_gk factors as h(S_g) h(T_gk), and the n_g (n-1) factors h(S_g) of a
    composition's term move into the weight, so by the multinomial theorem
    the group's members sum into one cell, for any weights."""
    if not collapse.groups:
        return cells, r
    rest = collapse.rest
    weights = [cells[k] for k in rest] + [
        functools.reduce(operator.add, (
            cells[g] * cpow(_row_sum(binary, outgoing), n - 1)
            for g, outgoing in members), 0)
        for members in collapse.groups]
    below, _ = collapse.exclusions
    m = len(weights)
    # 1 between groups that meet, and 0 between those that do not.
    out = [[0 if below[max(i, j)] >> min(i, j) & 1 else 1 for j in range(m)]
           for i in range(m)]
    for a, k in enumerate(rest):
        out[a][:len(rest)] = [r[k][l] for l in rest]
    for g, sets in enumerate(collapse.toward, len(rest)):
        for a, rows in enumerate(sets):
            out[a][g] = out[g][a] = _row_sum(binary, rows)
    return weights, out


def _find_groups(own, size, exclusions) -> _Collapse:
    """Group the product-structured classes of one branch.

    ``own`` holds the classes' ``_pair_table`` masks and ``size`` the
    lengths of their pair rows, as lists, and ``exclusions`` the rows'
    masks, which stand when no class groups.  Class g is separable when its
    row with every class it meets, itself included, is every combination of
    one set S_g of its outgoing cross assignments with a set of the
    other's.  Separable classes with equal columns (``own[k][g]`` over all
    k) offer every other class k one set T_Gk = ``own[k][g]``, and meet
    each other unless they meet no class at all; two or more such classes
    form a group."""
    c = len(own)
    columns = {}
    for g, row in enumerate(own):
        s = row[g]
        if all(not n or mask == s and n == sum(s) * sum(own[k][g])
               for k, (mask, n) in enumerate(zip(row, size[g]))):
            columns.setdefault(tuple(tuple(r[g]) for r in own), []).append(g)
    groups = [members for members in columns.values() if len(members) > 1]
    if not groups:
        return _Collapse(tuple(range(c)), (), (), exclusions)
    grouped = {g for members in groups for g in members}
    rest = [k for k in range(c) if k not in grouped]
    # A mask spans the 2^b assignments of the b binary predicates.
    bits = _assignments(len(own[0][0]).bit_length() - 1).tolist()

    def assignments(mask):
        return [a for a, keep in zip(bits, mask) if keep]

    order = rest + [members[0] for members in groups]
    return _Collapse(
        tuple(rest),
        tuple(tuple((g, assignments(own[g][g])) for g in members)
              for members in groups),
        tuple(tuple(assignments(own[k][members[0]]) for k in rest)
              for members in groups),
        _exclusions([[not size[i][j] for j in order] for i in order]))


def compile_theory(t: Fo2Theory) -> CompiledTheory:
    """Weight-independent compilation: normalize, Skolemize, branch on
    nullary atoms, and tabulate cells and cross-assignment counts."""
    sentences, vocab, _skw = _normalize_theory(t)
    nullary = sorted(p.name for p in vocab.preds if p.arity == 0)
    element_preds = [p for p in vocab.preds if p.arity in (1, 2)]

    branches = []
    for bits in itertools.product((False, True), repeat=len(nullary)):
        values = {Atom(Predicate(name, 0), ()): TRUE if bit else FALSE
                  for name, bit in zip(nullary, bits)}
        # A quantifier-free sentence has only nullary atoms, so it folds to
        # TRUE or FALSE.
        folded = [(len(kinds) == 2, fold(m, values))
                  for kinds, m in map(_prefix, sentences)]
        if any(m == FALSE for _, m in folded):
            continue
        matrices1 = [m for two, m in folded if not two and m != TRUE]
        matrices2 = [m for two, m in folded if two and m != TRUE]
        table = _enumerate_cells(element_preds, matrices1 + matrices2)
        ids, rows, own = _pair_table(matrices2, element_preds, table)
        # Cells with the same row of pair entries (so r_ii = r_jj = r_ij)
        # are interchangeable: by the multinomial theorem one cell whose
        # weight is the sum of theirs replaces them, for any weights.
        classes = {}
        for i, row in enumerate(ids):
            classes.setdefault(row.tobytes(), []).append(i)
        reps = [members[0] for members in classes.values()]
        pair_counts = {(a, b): rows[ids[reps[a], reps[b]]]
                       for a in range(len(reps)) for b in range(a, len(reps))}
        size = [[len(rows[ids[i, j]]) for j in reps] for i in reps]
        branches.append(_Branch(
            tuple(zip(nullary, bits)),
            tuple(table[members].tolist() for members in classes.values()),
            pair_counts,
            _find_groups(own[reps][:, reps].tolist(), size,
                         _exclusions([[not n for n in row] for row in size]))))
    return CompiledTheory(tuple(vocab.preds), tuple(branches),
                          tuple(sorted(_skw.items())))


def _exclusions(zero):
    """Zero-partner masks of a symmetric table of exact zeros: bit j of
    ``below[i]`` is set for each cell j < i with ``zero[i][j]`` (j must stay
    empty once i is nonempty), and ``solo[i]`` is ``zero[i][i]`` (i holds at
    most one element)."""
    below = [sum(1 << j for j in range(i) if row[j])
             for i, row in enumerate(zero)]
    solo = [row[i] for i, row in enumerate(zero)]
    return below, solo


def _pruned_count(n: int, below: list, solo: list) -> int:
    """Compositions of n elements that ``_config_sum`` visits under the
    given exclusions, memoized on (cell, mask of excluded cells)."""

    @functools.cache
    def counts(idx: int, blocked: int) -> list:
        # Visited compositions of m = 0..n elements into cells 0..idx.
        if idx == 0:
            return [int(not m or not (blocked & 1 or solo[0] and m > 1))
                    for m in range(n + 1)]
        low = (1 << idx) - 1
        out = counts(idx - 1, blocked & low)
        if blocked >> idx & 1:
            return out
        # k >= 1 elements in cell idx leave m - k to the cells below.
        sub = counts(idx - 1, (blocked | below[idx]) & low)
        fill = sub if solo[idx] else list(itertools.accumulate(sub))
        return out[:1] + [a + b for a, b in zip(out[1:], fill)]

    return counts(len(below) - 1, 0)[n] if below else 0


def _config_sum(n: int, cell_weights: list, r: list, exclusions=None):
    """Sum over compositions of n elements into cells, in colexicographic
    order, of multinomial(n; counts) * prod w_i^{n_i} * prod r_ii^{C(n_i,2)}
    * prod_{i<j} r_ij^{n_i n_j}.  Returns (value, compositions_visited).

    Mutually exclusive cells are pruned, exactly and for any weights:
    ``exclusions`` are the ``_exclusions`` masks of the empty pair rows,
    whose entry ``_weights`` leaves as int 0, so every term that fills
    both cells of such a row, or puts two elements in a cell whose own row
    is empty, is an exact zero and its composition is skipped; the others
    are added in the same order as without pruning.  None prunes nothing."""
    c = len(cell_weights)
    if c == 0:
        return (1 if n == 0 else 0), 0
    pow_cache: dict = {}

    def rpow(i: int, j: int, e: int):
        key = (i, j, e)
        got = pow_cache.get(key)
        if got is None:
            got = cpow(r[i][j], e)
            pow_cache[key] = got
        return got

    below, solo = exclusions or ([0] * c, [False] * c)
    total = 0
    leaves = 0
    # Assign the last cell's count in the outermost loop so completed
    # compositions appear in colexicographic order.  ``blocked`` marks the
    # lower cells that a nonempty cell excludes.
    assigned: list[tuple[int, int]] = []

    def rec(idx: int, remaining: int, acc, blocked: int):
        nonlocal total, leaves
        if idx == 0:
            k = remaining
            term = acc
            if k:
                if blocked & 1 or solo[0] and k > 1:
                    return
                term = term * cpow(cell_weights[0], k)
                term = term * rpow(0, 0, k * (k - 1) // 2)
                for j, nj in assigned:
                    term = term * rpow(0, j, k * nj)
            total += term
            leaves += 1
            return
        rec(idx - 1, remaining, acc, blocked)
        if blocked >> idx & 1:
            return
        child = blocked | below[idx]
        for k in range(1, (min(remaining, 1) if solo[idx] else remaining) + 1):
            term = acc * math.comb(remaining, k)
            term = term * cpow(cell_weights[idx], k)
            term = term * rpow(idx, idx, k * (k - 1) // 2)
            for j, nj in assigned:
                term = term * rpow(idx, j, k * nj)
            assigned.append((idx, k))
            rec(idx - 1, remaining - k, term, child)
            assigned.pop()

    rec(c - 1, n, 1, 0)
    return total, leaves


def lifted_wfomc(t: Fo2Theory, w, wbar, d: Domain):
    """Weighted model count over all worlds of the theory's vocabulary,
    polynomial in the domain size.  Skolemizes internally as needed."""
    return compile_theory(t).wfomc(w, wbar, d)
