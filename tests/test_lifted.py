import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mlncount import (
    And, Atom, Domain, Eq, Exists, ForAll, Iff, Implies, Mln, Not, Or,
    PossibleWorld, Predicate, TRUE, Var, WeightFunction, brute_wfomc,
    evaluate, lifted_wfomc, marginal,
)
from mlncount import lifted
from mlncount.logic import all_variables, iter_subformulas
from mlncount.errors import NumericOverflowError, UnsupportedSentenceError
from mlncount.lifted import (
    Fo2Theory, _config_sum, _enumerate_cells, _exclusions, _normalize_theory,
    _pair_table, _pruned_count, _weights, compile_theory, cpow,
)

from helpers import random_matrix, random_theory, random_weight, rel_close

X, Y = Var("x"), Var("y")
P = Predicate("p", 1)
F = Predicate("f", 2)
ONES = WeightFunction()
TOTALITY = ForAll(X, Exists(Y, Atom(F, (X, Y))))


class TestSkolemize:
    def test_no_existentials_is_identity(self):
        t = Fo2Theory.of([ForAll(X, ForAll(Y, Or(Atom(F, (X, Y)),
                                                 Atom(P, (X,)))))], [P, F])
        sentences, vocab, weights = _normalize_theory(t)
        assert sentences == list(t.sentences)
        assert vocab.preds == [P, F] and weights == {}
        assert compile_theory(t).skolem_weights == ()

    def test_totality_counts_preserved(self):
        sentences, vocab, weights = _normalize_theory(
            Fo2Theory.of([TOTALITY], [F]))
        assert len(vocab.preds) == 2 and len(weights) == 1
        w = ONES.updated({k: v[0] for k, v in weights.items()})
        wbar = ONES.updated({k: v[1] for k, v in weights.items()})
        for n, want in [(2, 9), (3, 343)]:
            assert brute_wfomc(sentences, w, wbar, Domain(n),
                               vocab=vocab.preds) == want

    def test_skolem_weights_are_one_and_minus_one(self):
        t = Fo2Theory.of([TOTALITY], [F])
        _, vocab, weights = _normalize_theory(t)
        (name, pair), = weights.items()
        assert pair == (1, -1) and name == vocab.preds[-1].name
        assert compile_theory(t).skolem_weights == ((name, (1, -1)),)

    def test_invariance_under_skolemization(self):
        # The Skolemized sentences with their (1, -1) weights count what
        # the theory counts: by the oracle at n <= 2, lifted up to n = 3.
        rng = random.Random(55)
        for _ in range(20):
            theory, w, wbar = random_theory(rng)
            sentences, vocab, weights = _normalize_theory(theory)
            sw = w.updated({k: v[0] for k, v in weights.items()})
            swbar = wbar.updated({k: v[1] for k, v in weights.items()})
            skolemized = Fo2Theory.of(sentences, vocab.preds)
            for n in (1, 2, 3):
                a = lifted_wfomc(theory, w, wbar, Domain(n))
                assert rel_close(a, lifted_wfomc(skolemized, sw, swbar,
                                                 Domain(n)))
                if n < 3:
                    assert rel_close(a, brute_wfomc(sentences, sw, swbar,
                                                    Domain(n),
                                                    vocab=vocab.preds))

    def test_output_is_prenex_over_x_and_y(self):
        a, b = Var("a"), Var("b")
        sentences = [
            ForAll(Y, Exists(X, Atom(F, (Y, X)))),
            Exists(a, ForAll(b, Or(Atom(F, (a, b)),
                                   Exists(a, Atom(P, (a,)))))),
            ForAll(b, Implies(Atom(P, (b,)),
                              ForAll(a, Exists(b, Atom(F, (a, b)))))),
            Exists(Y, Exists(X, Atom(F, (X, Y)))),
        ]
        out, _, _ = _normalize_theory(Fo2Theory.of(sentences, [P, F]))
        assert len(out) > len(sentences)
        for s in out:
            assert isinstance(s, ForAll) and s.var == X
            body = s.body
            if isinstance(body, ForAll):
                assert body.var == Y
                body = body.body
            assert not any(isinstance(g, (ForAll, Exists))
                           for g in iter_subformulas(body))
            assert all_variables(s) <= {X, Y}


class TestCells:
    def test_unary_unconstrained(self):
        assert len(_enumerate_cells([P], [TRUE])) == 2

    def test_binary_reflexive_axis(self):
        assert len(_enumerate_cells([F], [TRUE])) == 2

    def test_forced_by_matrix(self):
        assert _enumerate_cells([P], [Atom(P, (X,))]).tolist() == [[True]]

    def test_hand_counted_cells_in_assignment_order(self):
        # p(x) -> f(x,x) rules out only (p, f) = (True, False).
        cells = _enumerate_cells([P, F], [Implies(Atom(P, (X,)),
                                                  Atom(F, (X, X)))])
        assert cells.tolist() == [[False, False], [False, True], [True, True]]

    def test_matrix_variables_renamed_to_x_and_y(self):
        a, b = Var("a"), Var("b")

        def compiled(u, v):
            matrix = Implies(Atom(F, (u, v)),
                             And(Atom(P, (u,)), Not(Atom(F, (v, u)))))
            t = compile_theory(Fo2Theory.of([ForAll(u, ForAll(v, matrix))],
                                            [P, F]))
            return [(b.cells, b.pair_counts) for b in t.branches]

        # Prefixes binding a, b and a, x become x, y: the latter only when
        # renamed at once.
        for u, v in ((a, b), (a, X)):
            assert compiled(u, v) == compiled(X, Y)

    def test_no_feasible_cell(self):
        contradiction = And(Atom(P, (X,)), Not(Atom(P, (X,))))
        table = _enumerate_cells([P, F], [contradiction])
        assert table.shape == (0, 2)
        ids, rows, _ = _pair_table([contradiction], [P, F], table)
        assert ids.shape == (0, 0) and rows == []
        compiled = compile_theory(Fo2Theory.of([ForAll(X, contradiction)],
                                               [P, F]))
        assert [b.cells for b in compiled.branches] == [()]
        assert compiled.composition_count(Domain(3)) == 0
        assert compiled.wfomc(ONES, ONES, Domain(3)) == 0


def _pair_weights(matrix, preds, w, wbar, table=None):
    """``_weights``' pair-weight matrix under ``matrix`` between the cells
    in ``table`` (default: every cell of ``preds``)."""
    if table is None:
        table = _enumerate_cells(preds, [TRUE])
    ids, rows, _ = _pair_table([matrix], preds, table)
    c = len(table)
    pairs = {(i, j): rows[ids[i, j]] for i in range(c) for j in range(i, c)}
    return _weights(preds, [[]] * c, pairs, w, wbar)[1]


class TestPairWeight:
    def test_free_cross_atoms(self):
        assert _pair_weights(TRUE, [F], ONES, ONES)[0][1] == 4

    def test_forbidden_cross_atoms(self):
        matrix = Not(Atom(F, (X, Y)))
        assert _pair_weights(matrix, [F], ONES, ONES)[0][1] == 1

    def test_no_binary_predicates(self):
        assert _pair_weights(TRUE, [P], ONES, ONES)[0][1] == 1
        # p(x) -> p(y) fails only from a p-cell to a non-p cell.
        ids, rows, _ = _pair_table([Implies(Atom(P, (X,)), Atom(P, (Y,)))],
                                   [P], _enumerate_cells([P], [TRUE]))
        assert rows[ids[0, 0]] == rows[ids[1, 1]] == [0]
        assert rows[ids[0, 1]] == rows[ids[1, 0]] == []

    def test_true_matrix_keeps_every_cross_assignment(self):
        ids, rows, _ = _pair_table([TRUE], [P, F],
                                   _enumerate_cells([P, F], [TRUE]))
        assert len(set(ids.flat)) == 1
        # One code per cross assignment: its number of true f atoms.
        assert rows[ids[0, 0]] == [0, 1, 1, 2]

    def test_hand_counted_weights(self):
        w, wbar = WeightFunction({"f": 2}), WeightFunction({"f": 3})
        # f(x,y) | f(y,x) in both orientations: TT, TF, FT -> 4 + 6 + 6.
        either = Or(Atom(F, (X, Y)), Atom(F, (Y, X)))
        assert _pair_weights(either, [F], w, wbar)[0][1] == 16
        # f(x,y) -> p(x): from a p-cell (row 2: p, not f) to a non-p cell
        # (row 0: neither), f(1,0) must be false and f(0,1) is free ->
        # 2*3 + 3*3.
        implies = Implies(Atom(F, (X, Y)), Atom(P, (X,)))
        r = _pair_weights(implies, [P, F], w, wbar)
        assert r[2][0] == r[0][2] == 15
        assert r[2][2] == 25

    def test_two_binary_predicates_match_world_evaluation(self):
        # Distinct integer weights per predicate and polarity: a swapped
        # code digit or power would change the exact sum.
        g = Predicate("g", 2)
        w = WeightFunction({"f": 2, "g": 5})
        wbar = WeightFunction({"f": 3, "g": 7})
        cross = [Atom(q, args) for q in (F, g) for args in ((0, 1), (1, 0))]
        atoms = [Atom(q, args) for q in (F, g)
                 for args in ((X, Y), (Y, X), (X, X), (Y, Y))]
        cells = _enumerate_cells([F, g], [TRUE]).tolist()
        rng = random.Random(11)
        for _ in range(20):
            matrix = random_matrix(rng, atoms)
            r = _pair_weights(matrix, [F, g], w, wbar)
            # The matrix between elements 0 and 1, in both orientations.
            sentence = ForAll(X, ForAll(Y, Or(Eq(X, Y), matrix)))
            for i, j in itertools.product(range(len(cells)), repeat=2):
                own = {Atom(q, (e, e)) for e, c in ((0, cells[i]),
                                                    (1, cells[j]))
                       for q, bit in zip((F, g), c) if bit}
                want = 0
                for bits in itertools.product((False, True), repeat=4):
                    world = PossibleWorld(frozenset(
                        own | {a for a, b in zip(cross, bits) if b}))
                    if evaluate(sentence, world, Domain(2)):
                        want += math.prod(w(a.pred) if b else wbar(a.pred)
                                          for a, b in zip(cross, bits))
                assert r[i][j] == want

    def test_symmetry(self):
        # The cells in reverse order swap which end of each pair is the
        # first element: the weights do not move.
        table = _enumerate_cells([P, F], [TRUE])
        matrix = Implies(Atom(F, (X, Y)), Atom(P, (X,)))
        w = WeightFunction({"f": 0.5 + 0.25j, "p": 1.5})
        r = _pair_weights(matrix, [P, F], w, ONES, table)
        back = _pair_weights(matrix, [P, F], w, ONES, table[::-1])
        c = len(table)
        for i, j in itertools.product(range(c), repeat=2):
            assert r[i][j] == back[c - 1 - i][c - 1 - j] == r[j][i]


class TestLiftedWfomc:
    def test_unconstrained_unary(self):
        t = Fo2Theory.of([], [P])
        assert lifted_wfomc(t, ONES, ONES, Domain(10)) == 1024

    def test_totality_n4(self):
        t = Fo2Theory.of([TOTALITY], [F])
        assert lifted_wfomc(t, ONES, ONES, Domain(4)) == 50625

    def test_unit_weight_result_is_integer(self):
        t = Fo2Theory.of([TOTALITY], [F])
        value = lifted_wfomc(t, ONES, ONES, Domain(7))
        assert isinstance(value, int)
        assert value == (2 ** 7 - 1) ** 7

    def test_matches_brute_on_random_theories(self):
        rng = random.Random(99)
        for _ in range(40):
            theory, w, wbar = random_theory(rng)
            for n in (1, 2, 3):
                b = brute_wfomc(list(theory.sentences), w, wbar, Domain(n),
                                vocab=theory.vocabulary)
                l = lifted_wfomc(theory, w, wbar, Domain(n))
                assert rel_close(l, b), (theory.sentences, n)

    def test_rejects_constants(self):
        t = Fo2Theory.of([Atom(F, (0, 1))], [F])
        with pytest.raises(UnsupportedSentenceError):
            lifted_wfomc(t, ONES, ONES, Domain(2))

    def test_rejects_equality(self):
        t = Fo2Theory.of([ForAll(X, ForAll(Y, Eq(X, Y)))], [F])
        with pytest.raises(UnsupportedSentenceError):
            lifted_wfomc(t, ONES, ONES, Domain(2))

    def test_rejects_free_variables(self):
        t = Fo2Theory.of([Atom(P, (X,))], [P])
        with pytest.raises(UnsupportedSentenceError):
            lifted_wfomc(t, ONES, ONES, Domain(2))

    def test_overflow_detected(self):
        t = Fo2Theory.of([], [F])
        w = WeightFunction({"f": 1e40})
        with pytest.raises(NumericOverflowError):
            lifted_wfomc(t, w, ONES, Domain(10))

    def test_nested_quantifiers_normalize(self):
        # propositional combination of sentences
        s = Or(ForAll(X, Atom(P, (X,))), Not(Exists(X, Atom(P, (X,)))))
        t = Fo2Theory.of([s], [P])
        assert lifted_wfomc(t, ONES, ONES, Domain(3)) == 2

    @pytest.mark.parametrize("sentence", [
        ForAll(Y, ForAll(X, Implies(Atom(F, (Y, X)), Atom(P, (X,))))),
        Exists(X, ForAll(Y, Atom(F, (X, Y)))),
        Exists(Y, Exists(X, Atom(F, (X, Y)))),
    ], ids=str)
    def test_prefix_order_matches_brute(self, sentence):
        # Distinct integer weights: swapped variables change the exact count.
        w = WeightFunction({"f": 2, "p": 3})
        wbar = WeightFunction({"f": 5, "p": 7})
        t = Fo2Theory.of([sentence], [P, F])
        for n in (1, 2, 3):
            assert lifted_wfomc(t, w, wbar, Domain(n)) == \
                brute_wfomc([sentence], w, wbar, Domain(n), vocab=[P, F])

    def test_exists_exists(self):
        s = Exists(X, Exists(Y, Atom(F, (X, Y))))
        t = Fo2Theory.of([s], [F])
        assert lifted_wfomc(t, ONES, ONES, Domain(2)) == 15


class TestCellMerge:
    def test_unused_predicate_leaves_composition_count(self):
        q = Predicate("q", 1)
        plain = compile_theory(Fo2Theory.of([TOTALITY], [F]))
        padded = compile_theory(Fo2Theory.of([TOTALITY], [F, q]))
        assert sum(len(b.cells) for b in padded.branches) == \
            sum(len(b.cells) for b in plain.branches)
        for n in (1, 4, 9):
            d = Domain(n)
            assert padded.composition_count(d) == plain.composition_count(d)
            assert padded.wfomc(ONES, ONES, d) == \
                2 ** n * plain.wfomc(ONES, ONES, d)

    def test_integer_weights_stay_exact_on_random_theories(self):
        rng = random.Random(2021)
        with_exists = 0
        for _ in range(30):
            theory, _, _ = random_theory(rng)
            names = [p.name for p in theory.vocabulary]
            w = WeightFunction({k: rng.randint(-2, 3) for k in names})
            wbar = WeightFunction({k: rng.randint(-2, 3) for k in names})
            with_exists += any(isinstance(s.body, Exists)
                               for s in theory.sentences)
            for n in (1, 2, 3):
                got = lifted_wfomc(theory, w, wbar, Domain(n))
                want = brute_wfomc(list(theory.sentences), w, wbar, Domain(n),
                                   vocab=theory.vocabulary)
                assert isinstance(got, int)
                assert got == want, (theory.sentences, n)
        assert with_exists >= 5


class TestCompositionSum:
    def test_composition_count_formula(self):
        for c, n in [(1, 5), (2, 4), (3, 4), (4, 6), (5, 3)]:
            ws = [1] * c
            r = [[1] * c for _ in range(c)]
            value, leaves = _config_sum(n, ws, r)
            assert leaves == math.comb(n + c - 1, c - 1)
            assert value == c ** n  # all-ones weights count cell labelings

    def test_compiled_composition_count(self):
        t = Fo2Theory.of([TOTALITY], [F])
        compiled = compile_theory(t)
        d = Domain(6)
        # Both classes form one group: a single composition.
        assert compiled.composition_count(d) == 1

    def test_cpow_matches_builtin(self):
        assert cpow(3, 7) == 3 ** 7
        assert cpow(0.5 + 0.5j, 9) == pytest.approx((0.5 + 0.5j) ** 9)
        assert cpow(2.0, 0) == 1

    def test_cpow_array_matches_scalar(self):
        bases = np.array([0.5 + 0.5j, -1.2, 2.0, 1j, 0.0])
        for e in (0, 1, 2, 7, 9):
            got = np.broadcast_to(cpow(bases, e), bases.shape)
            want = [cpow(complex(b), e) for b in bases]
            assert got == pytest.approx(want, rel=1e-15)

    def test_cpow_array_overflow_on_any_element(self):
        # 1e151**2 = 1e302 is finite but above the limit; the others are not.
        with pytest.raises(NumericOverflowError):
            cpow(np.array([1.0, 1e151, 0.5j]), 2)
        with pytest.raises(NumericOverflowError):
            cpow(np.array([1.0, complex("nan")]), 3)
        assert cpow(np.array([1.0, 1e149, 0.5j]), 2)[1] == pytest.approx(1e298)

    def test_config_sum_array_weights_match_scalar_sums(self):
        rng = np.random.default_rng(7)
        c, n, size = 3, 5, 6

        def draw():
            return rng.uniform(-1.5, 1.5, size) + 1j * rng.uniform(-1, 1, size)

        ws = [draw() for _ in range(c)]
        r = [[None] * c for _ in range(c)]
        for i in range(c):
            for j in range(i, c):
                r[i][j] = r[j][i] = draw()
        value, leaves = _config_sum(n, ws, r)
        assert leaves == math.comb(n + c - 1, c - 1)
        for e in range(size):
            want, _ = _config_sum(n, [complex(w[e]) for w in ws],
                                  [[complex(x[e]) for x in row] for row in r])
            assert value[e] == pytest.approx(want, rel=1e-12)


def _reference_sum(n, ws, r):
    """The composition sum term by term over itertools compositions, with
    every pair factor an explicit power (``0 ** 0 == 1``)."""
    c = len(ws)
    total = 0
    for bars in itertools.combinations(range(n + c - 1), c - 1):
        ks = [b - a - 1 for a, b in zip((-1,) + bars, bars + (n + c - 1,))]
        term = math.factorial(n) // math.prod(map(math.factorial, ks))
        for i, k in enumerate(ks):
            term = term * ws[i] ** k * r[i][i] ** (k * (k - 1) // 2)
            for j in range(i + 1, c):
                term = term * r[i][j] ** (k * ks[j])
        total = total + term
    return total


def _is_zero(x):
    return type(x) is int and x == 0


def _structurally_nonzero(n, r):
    """Compositions with no exact-zero pair factor."""
    c = len(r)
    out = 0
    for bars in itertools.combinations(range(n + c - 1), c - 1):
        ks = [b - a - 1 for a, b in zip((-1,) + bars, bars + (n + c - 1,))]
        out += all(not _is_zero(r[i][j]) or (ks[i] * ks[j] if i != j else
                                    ks[i] * (ks[i] - 1)) == 0
                   for i in range(c) for j in range(i, c))
    return out


def _zero_pattern(value):
    """A 5-cell pair table with int 0 at: (3, 3) (a cell holding at most one
    element), (0, 4) (the leaf cell against an outer cell) and every pair of
    cell 2 with another cell; ``value(i, j)`` fills the rest."""
    c = 5
    zeros = {(3, 3), (0, 4), (0, 2), (1, 2), (2, 3), (2, 4)}
    r = [[None] * c for _ in range(c)]
    for i in range(c):
        for j in range(i, c):
            r[i][j] = r[j][i] = 0 if (i, j) in zeros else value(i, j)
    return r


class TestPrunedSum:
    N = 6

    def _check(self, ws, r, exact):
        exclusions = _exclusions([[_is_zero(x) for x in row] for row in r])
        value, leaves = _config_sum(self.N, ws, r, exclusions)
        want = _reference_sum(self.N, ws, r)
        if exact:
            assert value == want and type(value) is type(want)
        else:
            assert np.allclose(value, want, rtol=1e-12, atol=0)
        assert leaves == _structurally_nonzero(self.N, r) < \
            math.comb(self.N + len(ws) - 1, len(ws) - 1)
        assert _pruned_count(self.N, *exclusions) == leaves
        return value

    def test_int_weights(self):
        rng = random.Random(3)
        self._check([rng.randint(-3, 4) for _ in range(5)],
                    _zero_pattern(lambda i, j: rng.randint(-3, 4) or 5), True)

    def test_fraction_weights(self):
        rng = random.Random(4)

        def frac():
            return Fraction(rng.randint(-7, 9) or 1, rng.randint(1, 5))

        self._check([frac() for _ in range(5)],
                    _zero_pattern(lambda i, j: frac()), True)

    def test_complex_weights_match_unpruned_walk_bit_for_bit(self):
        rng = random.Random(5)

        def draw():
            return complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))

        ws = [draw() for _ in range(5)]
        r = _zero_pattern(lambda i, j: draw())
        value = self._check(ws, r, False)
        # Without exclusions the walk visits every composition; the skipped
        # terms were exact zeros.
        value_all, leaves_all = _config_sum(self.N, ws, r)
        assert leaves_all == math.comb(self.N + 4, 4)
        assert value == value_all

    def test_array_weights(self):
        rng = np.random.default_rng(6)

        def draw():
            return rng.uniform(-1.5, 1.5, 4) + 1j * rng.uniform(-1, 1, 4)

        ws = [draw() for _ in range(5)]
        r = _zero_pattern(lambda i, j: draw())
        value = self._check(ws, r, False)
        assert np.array_equal(value, _config_sum(self.N, ws, r)[0])

    def test_all_compositions_pruned(self):
        # Two cells that exclude each other and themselves: n >= 3 leaves
        # no nonzero term.
        zero = [[0, 0], [0, 0]]
        exclusions = _exclusions([[True, True], [True, True]])
        assert _config_sum(3, [2, 3], zero, exclusions) == (0, 0)
        assert _config_sum(1, [2, 3], zero, exclusions) == (5, 2)

    def test_exact_loop_marginal_on_total_relations(self):
        f = Predicate("f", 2)
        phi = Mln.of([(ForAll(X, Exists(Y, Atom(f, (X, Y)))), math.inf)], [f])
        n = 28
        got = marginal(phi, Exists(X, Atom(f, (X, X))), Domain(n))
        total = (2 ** n - 1) ** n
        assert got == float(Fraction(total - (2 ** (n - 1) - 1) ** n, total))


def _class_exclusions(branch):
    """``_exclusions`` of a branch's class-level pair rows, before the
    collapse."""
    c = len(branch.cells)
    return _exclusions([[not branch.pair_counts[min(a, b), max(a, b)]
                         for b in range(c)] for a in range(c)])


class TestPrunedCompositionCount:
    def test_equals_visited_compositions_on_every_branch(self):
        rng = random.Random(404)
        with_exists = pruned = 0
        for trial in range(40):
            theory, w, wbar = random_theory(rng)
            if trial % 2 == 0:
                atoms = [Atom(p, (X,) * p.arity) for p in theory.vocabulary]
                theory = Fo2Theory.of(
                    theory.sentences + (Exists(X, random_matrix(rng, atoms)),),
                    theory.vocabulary)
                with_exists += 1
            compiled = compile_theory(theory)
            w = w.updated({k: v[0] for k, v in compiled.skolem_weights})
            wbar = wbar.updated({k: v[1] for k, v in compiled.skolem_weights})
            for branch in compiled.branches:
                exclusions = _class_exclusions(branch)
                cells, pairs = _weights(compiled.vocabulary, branch.cells,
                                        branch.pair_counts, w, wbar)
                for n in (1, 3, 5):
                    _, leaves = _config_sum(n, cells, pairs, exclusions)
                    assert _pruned_count(n, *exclusions) == leaves
                c = len(branch.cells)
                pruned += leaves < (math.comb(5 + c - 1, c - 1) if c else 0)
        assert with_exists >= 5
        assert pruned >= 5

    def test_cancelling_int_row_is_not_pruned(self):
        # w(f) = 1, wbar(f) = -1: a pair row that leaves f(x,y) and f(y,x)
        # free sums to (1 - 1)^2 = int 0 but is not empty, so the sum still
        # visits its compositions, and composition_count agrees.
        f = Predicate("f", 2)
        compiled = compile_theory(Fo2Theory.of(
            [ForAll(X, Exists(Y, Atom(f, (X, Y)))),
             Exists(X, Atom(f, (X, X)))], [f]))
        w = WeightFunction({"f": 1}).updated(
            {k: v[0] for k, v in compiled.skolem_weights})
        wbar = WeightFunction({"f": -1}).updated(
            {k: v[1] for k, v in compiled.skolem_weights})
        cancelled = 0
        for branch in compiled.branches:
            exclusions = _class_exclusions(branch)
            cells, pairs = _weights(compiled.vocabulary, branch.cells,
                                    branch.pair_counts, w, wbar)
            cancelled += sum(
                _is_zero(pairs[i][j]) and bool(rows)
                for (i, j), rows in branch.pair_counts.items())
            for n in (2, 4, 6):
                value, leaves = _config_sum(n, cells, pairs, exclusions)
                assert _pruned_count(n, *exclusions) == leaves
        assert cancelled > 0

    def test_wfomc_visits_what_composition_count_reports(self, monkeypatch):
        visited = []

        def counting(*args):
            value, leaves = _config_sum(*args)
            visited.append(leaves)
            return value, leaves

        monkeypatch.setattr(lifted, "_config_sum", counting)
        f = Predicate("f", 2)
        compiled = compile_theory(Fo2Theory.of(
            [ForAll(X, Exists(Y, Atom(f, (X, Y)))),
             Exists(X, Atom(f, (X, X)))], [f]))
        d = Domain(12)
        compiled.wfomc(ONES, ONES, d)
        c = sum(math.comb(d.size + len(b.cells) - 1, len(b.cells) - 1)
                for b in compiled.branches)
        assert sum(visited) == compiled.composition_count(d) < c

    def test_polynomial_in_n(self):
        f = Predicate("f", 2)
        loop = Exists(X, Atom(f, (X, X)))
        compiled = compile_theory(Fo2Theory.of(
            [ForAll(X, Exists(Y, Atom(f, (X, Y)))), loop], [f]))
        # Classes 0, 2 and 1, 3 form two groups; the first excludes class
        # 4: fill the two groups, or class 4 (at least one element) with
        # the second group.
        for n in (28, 2000):
            assert compiled.composition_count(Domain(n)) == 2 * n + 1
        onto = compile_theory(Fo2Theory.of(
            [ForAll(X, Exists(Y, Atom(f, (X, Y)))),
             ForAll(Y, Exists(X, Atom(f, (X, Y))))], [f]))
        # Counted without enumerating them.
        assert onto.composition_count(Domain(2000)) == \
            math.comb(2003, 3) > 10 ** 9


def _own_side_theory(rng, binary):
    """A theory whose forall-exists matrices read only x's own atoms and the
    cross atoms b(x, y), so Skolemization leaves product-structured pair
    rows.  Half add an ``exists x`` sentence; some add a sentence that also
    reads y's unary atoms (still a product, but x's set then depends on
    y's cell) or b(y, x) (not a product)."""
    vocab = [Predicate(f"u{i}", 1) for i in range(rng.randint(0, 2))]
    vocab += [Predicate(f"b{i}", 2) for i in range(binary)]
    own = [Atom(p, (X,) * p.arity) for p in vocab] + \
        [Atom(p, (X, Y)) for p in vocab if p.arity == 2]
    partner = own + [Atom(p, (Y,)) for p in vocab if p.arity == 1]
    sentences = [ForAll(X, Exists(Y, random_matrix(rng, own)))
                 for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        sentences.append(Exists(X, random_matrix(rng, own[:len(vocab)])))
    roll = rng.random()
    if roll < 0.4:
        atoms = partner + [Atom(p, (Y, X)) for p in vocab if p.arity == 2] \
            if roll < 0.15 else partner
        sentences.append(ForAll(X, ForAll(Y, random_matrix(rng, atoms))))
    return Fo2Theory.of(sentences, vocab)


def _class_level_wfomc(compiled, w, wbar, n):
    """``CompiledTheory.wfomc`` over the uncollapsed class-level tables."""
    w = w.updated({k: v[0] for k, v in compiled.skolem_weights})
    wbar = wbar.updated({k: v[1] for k, v in compiled.skolem_weights})
    total = 0
    for branch in compiled.branches:
        factor = math.prod(w(k) if v else wbar(k)
                           for k, v in branch.nullary_values)
        value, _ = _config_sum(n, *_weights(compiled.vocabulary,
                                            branch.cells,
                                            branch.pair_counts, w, wbar),
                               _class_exclusions(branch))
        total = total + factor * value
    return total


class TestCollapse:
    def test_integer_weights_equal_class_level_sum(self):
        rng = random.Random(808)
        grouped = 0
        for _ in range(200):
            theory = _own_side_theory(rng, rng.randint(1, 2))
            names = [p.name for p in theory.vocabulary]
            w = WeightFunction({k: rng.randint(-2, 3) for k in names})
            wbar = WeightFunction({k: rng.randint(-2, 3) for k in names})
            compiled = compile_theory(theory)
            grouped += sum(bool(b.collapse.groups) for b in compiled.branches)
            for n in (1, 2, 3, 4):
                got = compiled.wfomc(w, wbar, Domain(n))
                assert type(got) is int
                assert got == _class_level_wfomc(compiled, w, wbar, n), \
                    (theory.sentences, n)
        assert grouped >= 20

    def test_complex_weights_match_brute(self):
        rng = random.Random(909)
        grouped = 0
        for _ in range(80):
            theory = _own_side_theory(rng, 1)
            w = WeightFunction({p.name: random_weight(rng)
                                for p in theory.vocabulary})
            wbar = WeightFunction({p.name: random_weight(rng)
                                   for p in theory.vocabulary})
            compiled = compile_theory(theory)
            groups = [bool(b.collapse.groups) for b in compiled.branches]
            grouped += any(groups)
            for n in (1, 2, 3):
                got = compiled.wfomc(w, wbar, Domain(n))
                want = brute_wfomc(list(theory.sentences), w, wbar, Domain(n),
                                   vocab=theory.vocabulary)
                assert rel_close(got, want, 1e-12), (theory.sentences, n)
                if not any(groups):
                    # Nothing collapsed: the class-level sum, bit for bit.
                    assert got == _class_level_wfomc(compiled, w, wbar, n)
        assert grouped >= 20

    def test_array_weights_match_scalar_results(self):
        rng = random.Random(10)
        tested = 0
        while tested < 10:
            theory = _own_side_theory(rng, rng.randint(1, 2))
            compiled = compile_theory(theory)
            if not any(b.collapse.groups for b in compiled.branches):
                continue
            tested += 1
            names = [p.name for p in theory.vocabulary]
            w = {k: [random_weight(rng) for _ in range(4)] for k in names}
            wbar = {k: [random_weight(rng) for _ in range(4)] for k in names}
            got = compiled.wfomc(
                WeightFunction({k: np.array(v, complex) for k, v in w.items()}),
                WeightFunction({k: np.array(v, complex)
                                for k, v in wbar.items()}), Domain(5))
            for e in range(4):
                want = compiled.wfomc(
                    WeightFunction({k: v[e] for k, v in w.items()}),
                    WeightFunction({k: v[e] for k, v in wbar.items()}),
                    Domain(5))
                assert got[e] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("extra", [
        # x's allowed f(x, y) depend on y's cell: products, not separable.
        ForAll(X, ForAll(Y, Implies(Atom(F, (X, Y)), Atom(P, (Y,))))),
        # f(x, y) and f(y, x) agree: not products.
        ForAll(X, ForAll(Y, Iff(Atom(F, (X, Y)), Atom(F, (Y, X))))),
        # Never both f(x, y) and f(y, x): not products, though every
        # assignment of each side occurs.
        ForAll(X, ForAll(Y, Not(And(Atom(F, (X, Y)), Atom(F, (Y, X)))))),
        # Unless p(x) or f(x, x), f(x, y) follows p(y): one assignment
        # toward each cell, but not the same one.
        ForAll(X, ForAll(Y, Or(Implies(Not(Atom(P, (X,))),
                                       Iff(Atom(F, (X, Y)), Atom(P, (Y,)))),
                               Atom(F, (X, X))))),
        ForAll(X, Implies(Atom(P, (X,)), Not(Atom(F, (X, X))))),
        Exists(X, Atom(F, (X, X))),
        ForAll(Y, Exists(X, Atom(F, (X, Y)))),
    ], ids=str)
    def test_totality_with_a_sentence_matches_brute(self, extra):
        # Distinct integer weights: a wrong factor changes the exact count.
        w = WeightFunction({"f": 2, "p": 3})
        wbar = WeightFunction({"f": 5, "p": 7})
        sentences = [TOTALITY, extra]
        compiled = compile_theory(Fo2Theory.of(sentences, [P, F]))
        for n in (1, 2, 3):
            assert compiled.wfomc(w, wbar, Domain(n)) == \
                brute_wfomc(sentences, w, wbar, Domain(n), vocab=[P, F])
        for n in (4, 7):
            assert compiled.wfomc(w, wbar, Domain(n)) == \
                _class_level_wfomc(compiled, w, wbar, n)

    @pytest.mark.parametrize("n", [50, 120])
    def test_totality_count_from_one_composition(self, n):
        compiled = compile_theory(Fo2Theory.of([TOTALITY], [F]))
        (branch,) = compiled.branches
        assert len(branch.cells) == 2 and branch.collapse.rest == ()
        assert compiled.composition_count(Domain(n)) == 1
        assert compiled.wfomc(ONES, ONES, Domain(n)) == (2 ** n - 1) ** n

    def test_total_onto_stays_ungrouped(self):
        onto = ForAll(Y, Exists(X, Atom(F, (X, Y))))
        compiled = compile_theory(Fo2Theory.of([TOTALITY, onto], [F]))
        (branch,) = compiled.branches
        assert branch.collapse.groups == () and len(branch.cells) == 4
        assert branch.collapse.exclusions == _class_exclusions(branch)
        for n in (5, 26):
            assert compiled.composition_count(Domain(n)) == math.comb(n + 3, 3)
