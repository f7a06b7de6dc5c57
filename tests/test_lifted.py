import math
import random

import numpy as np
import pytest

from mlncount import (
    And, Atom, Domain, Eq, Exists, ForAll, Implies, Not, Or, Predicate, TRUE,
    Var, WeightFunction, brute_wfomc, enumerate_cells, lifted_wfomc,
    pair_weight, skolemize,
)
from mlncount.errors import NumericOverflowError, UnsupportedSentenceError
from mlncount.lifted import (
    Fo2Theory, _config_sum, _pair_table, compile_theory, cpow,
)

from helpers import random_theory, rel_close

X, Y = Var("x"), Var("y")
P = Predicate("p", 1)
F = Predicate("f", 2)
ONES = WeightFunction()
TOTALITY = ForAll(X, Exists(Y, Atom(F, (X, Y))))


class TestSkolemize:
    def test_no_existentials_is_identity(self):
        t = Fo2Theory.of([ForAll(X, ForAll(Y, Or(Atom(F, (X, Y)),
                                                 Atom(P, (X,)))))], [P, F])
        out, w, wbar = skolemize(t, ONES, ONES)
        assert out is t
        assert w is ONES and wbar is ONES

    def test_totality_counts_preserved(self):
        t = Fo2Theory.of([TOTALITY], [F])
        out, w, wbar = skolemize(t, ONES, ONES)
        assert out is not t
        for n, want in [(2, 9), (3, 343)]:
            assert lifted_wfomc(out, w, wbar, Domain(n)) == want

    def test_skolem_weights_are_one_and_minus_one(self):
        t = Fo2Theory.of([TOTALITY], [F])
        _, w, wbar = skolemize(t, ONES, ONES)
        (name, plus), = list(w.items())
        assert plus == 1 and wbar(name) == -1

    def test_invariance_under_skolemization(self):
        rng = random.Random(55)
        for _ in range(20):
            theory, w, wbar = random_theory(rng)
            out = skolemize(theory, w, wbar)
            for n in (1, 2, 3):
                a = lifted_wfomc(theory, w, wbar, Domain(n))
                b = lifted_wfomc(out[0], out[1], out[2], Domain(n))
                assert rel_close(a, b)


class TestCells:
    def test_unary_unconstrained(self):
        assert len(enumerate_cells([P], TRUE)) == 2

    def test_binary_reflexive_axis(self):
        assert len(enumerate_cells([F], TRUE)) == 2

    def test_forced_by_matrix(self):
        cells = enumerate_cells([P], Atom(P, (X,)))
        assert len(cells) == 1
        assert cells[0].value(P) is True

    def test_hand_counted_cells_in_assignment_order(self):
        # p(x) -> f(x,x) rules out only (p, f) = (True, False).
        cells = enumerate_cells([P, F], Implies(Atom(P, (X,)), Atom(F, (X, X))))
        assert [(c.value(P), c.value(F)) for c in cells] == \
            [(False, False), (False, True), (True, True)]

    def test_no_feasible_cell(self):
        contradiction = And(Atom(P, (X,)), Not(Atom(P, (X,))))
        assert enumerate_cells([P, F], contradiction) == []
        ids, rows = _pair_table([contradiction], [P, F], [])
        assert ids.shape == (0, 0) and rows == []
        compiled = compile_theory(Fo2Theory.of([ForAll(X, contradiction)],
                                               [P, F]))
        assert [b.cells for b in compiled.branches] == [()]
        assert compiled.composition_count(Domain(3)) == 0
        assert compiled.wfomc(ONES, ONES, Domain(3)) == 0


class TestPairWeight:
    def test_free_cross_atoms(self):
        ci, cj = enumerate_cells([F], TRUE)
        assert pair_weight(ci, cj, TRUE, ONES, ONES) == 4

    def test_forbidden_cross_atoms(self):
        ci, cj = enumerate_cells([F], TRUE)
        matrix = Not(Atom(F, (X, Y)))
        assert pair_weight(ci, cj, matrix, ONES, ONES) == 1

    def test_no_binary_predicates(self):
        ci, cj = enumerate_cells([P], TRUE)
        assert pair_weight(ci, cj, TRUE, ONES, ONES) == 1
        # p(x) -> p(y) fails only from a p-cell to a non-p cell.
        ids, rows = _pair_table([Implies(Atom(P, (X,)), Atom(P, (Y,)))], [P],
                                [ci, cj])
        assert rows[ids[0, 0]] == rows[ids[1, 1]] == ((),)
        assert rows[ids[0, 1]] == rows[ids[1, 0]] == ()

    def test_true_matrix_keeps_every_cross_assignment(self):
        cells = enumerate_cells([P, F], TRUE)
        ids, rows = _pair_table([TRUE], [P, F], cells)
        assert len(set(ids.flat)) == 1
        assert rows[ids[0, 0]] == ((("f", 0, 2),), (("f", 1, 1),),
                                   (("f", 1, 1),), (("f", 2, 0),))

    def test_hand_counted_weights(self):
        w, wbar = WeightFunction({"f": 2}), WeightFunction({"f": 3})
        ci, cj = enumerate_cells([F], TRUE)
        # f(x,y) | f(y,x) in both orientations: TT, TF, FT -> 4 + 6 + 6.
        either = Or(Atom(F, (X, Y)), Atom(F, (Y, X)))
        assert pair_weight(ci, cj, either, w, wbar) == 16
        # f(x,y) -> p(x): from a p-cell to a non-p cell, f(1,0) must be
        # false and f(0,1) is free -> 2*3 + 3*3.
        pi, pj = (c for c in enumerate_cells([P, F], TRUE) if not c.value(F))
        implies = Implies(Atom(F, (X, Y)), Atom(P, (X,)))
        assert pair_weight(pj, pi, implies, w, wbar) == 15
        assert pair_weight(pi, pj, implies, w, wbar) == 15
        assert pair_weight(pj, pj, implies, w, wbar) == 25

    def test_symmetry(self):
        cells = enumerate_cells([P, F], TRUE)
        matrix = Implies(Atom(F, (X, Y)), Atom(P, (X,)))
        w = WeightFunction({"f": 0.5 + 0.25j, "p": 1.5})
        for ci in cells:
            for cj in cells:
                assert pair_weight(ci, cj, matrix, w, ONES) == \
                    pair_weight(cj, ci, matrix, w, ONES)


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
        total = sum(math.comb(d.size + len(b.cells) - 1, len(b.cells) - 1)
                    for b in compiled.branches)
        assert compiled.composition_count(d) == total

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
