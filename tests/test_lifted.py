import dataclasses
import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mlncount import (
    And, Atom, Between, CardinalityConstraint, CountSpec, Domain, Eq, Exists,
    ForAll, Iff, Implies, Mln, Not, Or, Predicate, TRUE, Var, WeightFunction,
    brute_wfomc, constrained_marginal, marginal, translate_mln,
)
from mlncount import lifted
from mlncount.logic import iter_subformulas
from mlncount.errors import (
    MlncountError, NumericOverflowError, UnsupportedSentenceError,
    VocabularyError,
)
from mlncount.lifted import (
    Fo2Theory, _Branch, _assignments, _codes, _config_sum, _enumerate_cells,
    _label_table, _normalize_theory, _pair_table, compile_theory,
)

from helpers import (
    PossibleWorld, all_variables, evaluate, random_feasible_mln,
    random_matrix, random_theory, random_weight, rel_close,
)

X, Y = Var("x"), Var("y")
P = Predicate("p", 1)
F = Predicate("f", 2)
ONES = WeightFunction()
TOTALITY = ForAll(X, Exists(Y, Atom(F, (X, Y))))
ONTO = ForAll(Y, Exists(X, Atom(F, (X, Y))))


def _normalized(t):
    """``_normalize_theory(t)`` with each clause as the prenex sentence over
    x and y that it stands for."""
    clauses, vocab, weights = _normalize_theory(t)
    sentences = []
    for kinds, m in clauses:
        for q, v in reversed(list(zip(kinds, (X, Y)))):
            m = q(v, m)
        sentences.append(m)
    return sentences, vocab, weights


class TestSkolemize:
    def test_no_existentials_is_identity(self):
        t = Fo2Theory.of([ForAll(X, ForAll(Y, Or(Atom(F, (X, Y)),
                                                 Atom(P, (X,)))))], [P, F])
        sentences, vocab, weights = _normalized(t)
        assert sentences == list(t.sentences)
        assert vocab == [P, F] and weights == {}
        assert compile_theory(t).skolem_weights == ()

    def test_totality_counts_preserved(self):
        sentences, vocab, weights = _normalized(Fo2Theory.of([TOTALITY], [F]))
        assert len(vocab) == 2 and len(weights) == 1
        w = ONES.updated({k: v[0] for k, v in weights.items()})
        wbar = ONES.updated({k: v[1] for k, v in weights.items()})
        for n, want in [(2, 9), (3, 343)]:
            assert brute_wfomc(sentences, w, wbar, Domain(n),
                               vocab=vocab) == want

    def test_skolem_weights_are_one_and_minus_one(self):
        t = Fo2Theory.of([TOTALITY], [F])
        _, vocab, weights = _normalized(t)
        (name, pair), = weights.items()
        assert pair == (1, -1) and name == vocab[-1].name
        assert compile_theory(t).skolem_weights == ((name, (1, -1)),)

    def test_invariance_under_skolemization(self):
        # The Skolemized sentences with their (1, -1) weights count what
        # the theory counts: by the oracle at n <= 2, lifted up to n = 3.
        rng = random.Random(55)
        for _ in range(20):
            theory, w, wbar = random_theory(rng)
            sentences, vocab, weights = _normalized(theory)
            sw = w.updated({k: v[0] for k, v in weights.items()})
            swbar = wbar.updated({k: v[1] for k, v in weights.items()})
            skolemized = Fo2Theory.of(sentences, vocab)
            for n in (1, 2, 3):
                a = compile_theory(theory).wfomc(w, wbar, Domain(n))[0]
                assert rel_close(a, compile_theory(skolemized).wfomc(
                    sw, swbar, Domain(n))[0])
                if n < 3:
                    assert rel_close(a, brute_wfomc(sentences, sw, swbar,
                                                    Domain(n),
                                                    vocab=vocab))

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
        out, _, _ = _normalized(Fo2Theory.of(sentences, [P, F]))
        assert len(out) > len(sentences)
        for s in out:
            assert isinstance(s, (ForAll, Exists)) and s.var == X
            body = s.body
            if isinstance(s, ForAll) and isinstance(body, ForAll):
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

    @pytest.mark.parametrize("table", [lambda: _assignments(3),
                                       lambda: _codes(2)],
                             ids=["assignments", "codes"])
    def test_cached_tables_are_read_only(self, table):
        # Built once and shared by every compile: a write would leak into
        # the next one.
        assert table() is table()
        with pytest.raises(ValueError, match="read-only"):
            table()[0] = 1

    def test_no_feasible_cell(self):
        contradiction = And(Atom(P, (X,)), Not(Atom(P, (X,))))
        table = _enumerate_cells([P, F], [contradiction])
        assert table.shape == (0, 2)
        counts, _ = _pair_table([contradiction], [P, F], table)
        assert counts.shape == (0, 0, 3)
        compiled = compile_theory(Fo2Theory.of([ForAll(X, contradiction)],
                                               [P, F]))
        assert [b.cells for b in compiled.branches] == [()]
        assert compiled.composition_count(Domain(3)) == 0
        assert compiled.wfomc(ONES, ONES, Domain(3))[0] == 0


def _codes_between(counts, i, j):
    """The sorted codes of ``_pair_table``'s counts between cells i and j,
    each as often as it is counted."""
    return [code for code, k in enumerate(counts[i, j]) for _ in range(k)]


def _smokers(b):
    """smokes/1 and friends/2 with b - 1 two-variable soft formulas, each
    weighed on a binary indicator of its own: b binary predicates over few
    cells."""
    s, f = Predicate("smokes", 1), Predicate("friends", 2)
    formulas = [
        Implies(And(Atom(f, (X, Y)), Atom(s, (X,))), Atom(s, (Y,))),
        Implies(Atom(f, (X, Y)), Atom(f, (Y, X))),
        Or(Atom(f, (X, Y)), Atom(s, (Y,))),
        Iff(Atom(s, (X,)), Atom(f, (Y, X))),
        And(Atom(s, (X,)), Not(Atom(s, (Y,)))),
        Implies(Atom(f, (Y, X)), Atom(s, (X,))),
        Or(Not(Atom(f, (X, Y))), Not(Atom(s, (Y,)))),
    ]
    mln = Mln.of([(g, 0.5 + k / 10) for k, g in enumerate(formulas[:b - 1])],
                 [s, f])
    return translate_mln(mln)[0]


def _pair_weights(matrix, preds, w, wbar, table=None):
    """``_label_table``'s pair-weight matrix under ``matrix`` between the
    cells in ``table`` (default: every cell of ``preds``), each cell a
    label of its own."""
    if table is None:
        table = _enumerate_cells(preds, [TRUE])
    counts, _ = _pair_table([matrix], preds, table)
    c = len(table)
    pairs = {(i, j): _codes_between(counts, i, j)
             for i in range(c) for j in range(i, c)}
    branch = _Branch((), 1, ([],) * c, pairs, tuple((i,) for i in range(c)),
                     {})
    factors = [(wbar(p) * wbar(p), w(p) * wbar(p), w(p) * w(p))
               for p in preds if p.arity == 2]
    return _label_table(branch, [], [], factors)[1]


class TestPairWeight:
    def test_free_cross_atoms(self):
        assert _pair_weights(TRUE, [F], ONES, ONES)[0][1] == 4

    def test_forbidden_cross_atoms(self):
        matrix = Not(Atom(F, (X, Y)))
        assert _pair_weights(matrix, [F], ONES, ONES)[0][1] == 1

    def test_no_binary_predicates(self):
        assert _pair_weights(TRUE, [P], ONES, ONES)[0][1] == 1
        # p(x) -> p(y) fails only from a p-cell to a non-p cell.
        counts, _ = _pair_table([Implies(Atom(P, (X,)), Atom(P, (Y,)))],
                                [P], _enumerate_cells([P], [TRUE]))
        assert _codes_between(counts, 0, 0) == \
            _codes_between(counts, 1, 1) == [0]
        assert _codes_between(counts, 0, 1) == \
            _codes_between(counts, 1, 0) == []

    def test_true_matrix_keeps_every_cross_assignment(self):
        counts, _ = _pair_table([TRUE], [P, F],
                                _enumerate_cells([P, F], [TRUE]))
        assert (counts == counts[0, 0]).all()
        # One code per cross assignment: its number of true f atoms.
        assert _codes_between(counts, 0, 0) == [0, 1, 1, 2]

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

    def test_branch_codes_match_world_evaluation(self):
        # Per class pair of every branch, and every cell of either class:
        # the codes of the cross assignments between two elements under
        # which every normalized forall-forall sentence holds.
        # Random theories have at most one binary predicate; the smokers
        # theory has four, so the codes have four base-3 digits.
        rng = random.Random(2718)
        theories = [_smokers(4)]
        for _ in range(20):
            theory, _, _ = random_theory(rng)
            if rng.random() < 0.5:
                atoms = [Atom(p, (X,) * p.arity) for p in theory.vocabulary]
                theory = Fo2Theory.of(
                    theory.sentences + (Exists(X, random_matrix(rng, atoms)),),
                    theory.vocabulary)
            theories.append(theory)
        for theory in theories:
            compiled = compile_theory(theory)
            preds = [p for p in compiled.vocabulary if p.arity]
            binary = [p for p in preds if p.arity == 2]
            cross = [Atom(p, args) for p in binary
                     for args in ((0, 1), (1, 0))]
            pairs = [ForAll(X, ForAll(Y, Or(Eq(X, Y), s.body.body)))
                     for s in _normalized(theory)[0]
                     if isinstance(s, ForAll) and isinstance(s.body, ForAll)]
            for branch in compiled.branches:
                nullary = {Atom(Predicate(name, 0), ())
                           for name, bit in branch.nullary_values if bit}
                for (a, b), codes in branch.pair_counts.items():
                    for cells in itertools.product(branch.cells[a],
                                                   branch.cells[b]):
                        own = {Atom(p, (e,) * p.arity)
                               for e, cell in enumerate(cells)
                               for p, bit in zip(preds, cell) if bit}
                        want = []
                        for bits in itertools.product((0, 1),
                                                      repeat=len(cross)):
                            world = PossibleWorld(frozenset(own | nullary | {
                                x for x, bit in zip(cross, bits) if bit}))
                            if all(evaluate(s, world, Domain(2))
                                   for s in pairs):
                                want.append(sum(
                                    3 ** k * (bits[2 * k] + bits[2 * k + 1])
                                    for k in range(len(binary))))
                        assert codes == sorted(want), theory.sentences

    def test_many_binary_predicates_compile_in_bounded_memory(self):
        # Seven binary predicates over few cells: the pair table's work and
        # memory grow with 4^7 cross assignments per cell pair, and no
        # table over every (assignment, code) pair, 4^7 * 3^7 entries, is
        # built.
        theory = _smokers(7)
        tracemalloc.start()
        try:
            compiled = compile_theory(theory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(p.arity == 2 for p in compiled.vocabulary) == 7
        assert peak < 16 << 20

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
        assert compile_theory(t).wfomc(ONES, ONES, Domain(10))[0] == 1024

    def test_totality_n4(self):
        t = Fo2Theory.of([TOTALITY], [F])
        assert compile_theory(t).wfomc(ONES, ONES, Domain(4))[0] == 50625

    def test_unit_weight_result_is_integer(self):
        t = Fo2Theory.of([TOTALITY], [F])
        value = compile_theory(t).wfomc(ONES, ONES, Domain(7))[0]
        assert isinstance(value, int)
        assert value == (2 ** 7 - 1) ** 7

    def test_matches_brute_on_random_theories(self):
        rng = random.Random(99)
        for _ in range(40):
            theory, w, wbar = random_theory(rng)
            for n in (1, 2, 3):
                b = brute_wfomc(list(theory.sentences), w, wbar, Domain(n),
                                vocab=theory.vocabulary)
                l = compile_theory(theory).wfomc(w, wbar, Domain(n))[0]
                assert rel_close(l, b), (theory.sentences, n)

    def test_rejects_constants(self):
        t = Fo2Theory.of([Atom(F, (0, 1))], [F])
        with pytest.raises(UnsupportedSentenceError):
            compile_theory(t).wfomc(ONES, ONES, Domain(2))

    def test_rejects_equality(self):
        t = Fo2Theory.of([ForAll(X, ForAll(Y, Eq(X, Y)))], [F])
        with pytest.raises(UnsupportedSentenceError):
            compile_theory(t).wfomc(ONES, ONES, Domain(2))

    def test_rejects_free_variables(self):
        t = Fo2Theory.of([Atom(P, (X,))], [P])
        with pytest.raises(UnsupportedSentenceError):
            compile_theory(t).wfomc(ONES, ONES, Domain(2))

    def test_rejects_third_variable_name_even_if_bound(self):
        z = Var("z")
        t = Fo2Theory.of([ForAll(X, ForAll(Y, Exists(z, Atom(F, (X, Y)))))],
                         [F])
        with pytest.raises(UnsupportedSentenceError, match="3 distinct"):
            compile_theory(t).wfomc(ONES, ONES, Domain(2))

    @pytest.mark.parametrize("sentence, error, message", [
        # Free variables first, before any fault found inside the sentence.
        (Or(Exists(X, Atom(Predicate("q", 1), (X,))), Atom(P, (Y,))),
         UnsupportedSentenceError,
         "sentence has free variables: (exists x q(x)) | p(y)"),
        # Otherwise the first fault in pre-order.
        (ForAll(X, Or(Eq(X, X), Atom(P, (0,)))), UnsupportedSentenceError,
         "equality atoms are outside the lifted fragment"),
        (ForAll(X, Or(Atom(P, (0,)), Eq(X, X))), UnsupportedSentenceError,
         "constants (domain elements) are outside the lifted fragment"),
        # The variable count last.
        (ForAll(X, ForAll(Y, Exists(Var("z"), Atom(Predicate("q", 2),
                                                    (X, Y))))),
         VocabularyError, "undeclared predicate q/2"),
    ], ids=["free-undeclared", "equality-constant", "constant-equality",
            "three-names-undeclared"])
    @pytest.mark.parametrize("entry", ["compile", "marginal",
                                       "constrained_marginal"])
    def test_error_precedence(self, sentence, error, message, entry):
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P, F])
        cc = CardinalityConstraint(CountSpec.of([Atom(P, (X,))]),
                                   Between(0, 0, 2))
        with pytest.raises(MlncountError) as caught:
            if entry == "compile":
                compile_theory(Fo2Theory.of([sentence], [P, F]))
            elif entry == "marginal":
                marginal(mln, sentence, Domain(2))
            else:
                constrained_marginal(mln, cc, sentence, Domain(2))
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_overflow_detected(self):
        t = Fo2Theory.of([], [F])
        w = WeightFunction({"f": 1e40})
        with pytest.raises(NumericOverflowError,
                           match=r"exceeds MAGNITUDE_LIMIT=1e\+300"):
            compile_theory(t).wfomc(w, ONES, Domain(10))

    @pytest.mark.parametrize("vocab,w,wbar", [
        ([P, F], {"p": 10 ** 400}, {"f": 0.5}),
        ([Predicate("q", 0), P], {"q": 10 ** 400, "p": 0.5}, {}),
        ([F], {"f": 10 ** 400}, {"f": 0.5}),
    ], ids=["class-weight", "nullary-factor", "pair-factor"])
    def test_big_int_weight_meeting_a_float_is_typed(self, vocab, w, wbar):
        compiled = compile_theory(Fo2Theory.of([], vocab))
        with pytest.raises(NumericOverflowError,
                           match="int weight or multinomial leaves the float"):
            compiled.wfomc(WeightFunction(w), WeightFunction(wbar), Domain(3))

    def test_multinomial_beyond_float_range_is_named(self):
        # Two labels: the multinomials pass the double range from n = 1027,
        # though this count, 1.2e-304, is a double.
        p_p = And(Atom(P, (X,)), Atom(P, (Y,)))
        t = Fo2Theory.of([ForAll(X, ForAll(Y, Implies(p_p, Atom(F, (X, Y)))))],
                         [P, F])
        half = WeightFunction({"p": 0.5, "f": 0.5})
        with pytest.raises(NumericOverflowError) as err:
            compile_theory(t).wfomc(half, half, Domain(1030))
        assert "multinomial" in str(err.value)
        assert "weighted count" not in str(err.value)

    def test_weights_are_read_once_per_call(self, monkeypatch):
        # One vocabulary; each ``exists x`` clause doubles the branches.
        r = Predicate("r", 1)
        calls = []
        read = WeightFunction.__call__
        monkeypatch.setattr(WeightFunction, "__call__",
                            lambda self, pred: calls.append(pred)
                            or read(self, pred))
        lookups = []
        for sentences in ([], [Exists(X, Atom(P, (X,))),
                               Exists(X, Not(Atom(r, (X,))))]):
            compiled = compile_theory(Fo2Theory.of(sentences, [P, r, F]))
            calls.clear()
            compiled.wfomc(WeightFunction({"p": 0.5}), ONES, Domain(3))
            lookups.append((len(compiled.branches), len(calls)))
        (one, first), (many, second) = lookups
        assert (one, many) == (1, 4) and first == second

    def test_fraction_weights_have_no_magnitude_limit(self):
        # 900 atoms of weight 1 + 5/2: far beyond the float range, exact.
        tautology = ForAll(X, ForAll(Y, Or(Atom(F, (X, Y)),
                                           Not(Atom(F, (X, Y))))))
        t = Fo2Theory.of([tautology], [F])
        w = WeightFunction({"f": Fraction(5, 2)})
        value = compile_theory(t).wfomc(w, ONES, Domain(30))[0]
        assert value == Fraction(7, 2) ** 900

    def test_nested_quantifiers_normalize(self):
        # propositional combination of sentences
        s = Or(ForAll(X, Atom(P, (X,))), Not(Exists(X, Atom(P, (X,)))))
        t = Fo2Theory.of([s], [P])
        assert compile_theory(t).wfomc(ONES, ONES, Domain(3))[0] == 2

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
            assert compile_theory(t).wfomc(w, wbar, Domain(n))[0] == \
                brute_wfomc([sentence], w, wbar, Domain(n), vocab=[P, F])

    def test_exists_exists(self):
        s = Exists(X, Exists(Y, Atom(F, (X, Y))))
        t = Fo2Theory.of([s], [F])
        assert compile_theory(t).wfomc(ONES, ONES, Domain(2))[0] == 15


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
            assert padded.wfomc(ONES, ONES, d)[0] == \
                2 ** n * plain.wfomc(ONES, ONES, d)[0]

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
                got = compile_theory(theory).wfomc(w, wbar, Domain(n))[0]
                want = brute_wfomc(list(theory.sentences), w, wbar, Domain(n),
                                   vocab=theory.vocabulary)
                assert isinstance(got, int)
                assert got == want, (theory.sentences, n)
        assert with_exists >= 5


class TestComplement:
    def test_exists_becomes_signed_branches(self):
        # exists x p(x): all cells (one merged class), minus the cells
        # without p.
        compiled = compile_theory(Fo2Theory.of([Exists(X, Atom(P, (X,)))],
                                               [P]))
        assert [(b.sign, b.cells) for b in compiled.branches] == \
            [(1, ([[False], [True]],)), (-1, ([[False]],))]
        assert compiled.composition_count(Domain(5)) == 2
        assert compiled.wfomc(ONES, ONES, Domain(5))[0] == 2 ** 5 - 1

    def test_exists_true_or_false_on_every_cell_adds_no_branch(self):
        p = Atom(P, (X,))
        never = compile_theory(Fo2Theory.of(
            [ForAll(X, Not(p)), Exists(X, p)], [P]))
        assert never.branches == ()
        assert never.wfomc(ONES, ONES, Domain(3))[0] == 0
        always = compile_theory(Fo2Theory.of(
            [ForAll(X, p), Exists(X, p)], [P]))
        assert [b.sign for b in always.branches] == [1]
        assert always.wfomc(ONES, ONES, Domain(3))[0] == 1

    def test_integer_weights_with_an_exists_sentence_match_brute(self):
        rng = random.Random(1104)
        for _ in range(30):
            theory, _, _ = random_theory(rng)
            atoms = [Atom(p, (X,) * p.arity) for p in theory.vocabulary]
            theory = Fo2Theory.of(
                theory.sentences + (Exists(X, random_matrix(rng, atoms)),),
                theory.vocabulary)
            names = [p.name for p in theory.vocabulary]
            w = WeightFunction({k: rng.randint(-2, 3) for k in names})
            wbar = WeightFunction({k: rng.randint(-2, 3) for k in names})
            for n in (1, 2, 3):
                got = compile_theory(theory).wfomc(w, wbar, Domain(n))[0]
                want = brute_wfomc(list(theory.sentences), w, wbar, Domain(n),
                                   vocab=theory.vocabulary)
                assert isinstance(got, int)
                assert got == want, (theory.sentences, n)


class TestConditioned:
    """``CompiledTheory._conditioned`` reads T and a unary query off T's own
    tables; it must build exactly what compiling T plus the query builds."""

    @staticmethod
    def _queries(rng, theory):
        atoms = [Atom(p, (X,) * p.arity) for p in theory.vocabulary
                 if p.arity]
        a = atoms[0]
        # Random ones, one that keeps no cell, one that T implies (a
        # tautology, or T's own unary sentence) and their negated spellings.
        queries = [q(X, random_matrix(rng, atoms))
                   for q in (ForAll, Exists, ForAll, Exists)]
        queries += [ForAll(X, And(a, Not(a))), Exists(X, And(a, Not(a))),
                    ForAll(X, Or(a, Not(a))), Exists(X, Or(a, Not(a))),
                    Not(ForAll(X, Not(a))), Not(Exists(X, a))]
        queries += [s for s in theory.sentences
                    if isinstance(s, ForAll) and not isinstance(
                        s.body, (ForAll, Exists))]
        return queries

    @staticmethod
    def _check_same(theory, query, weights, sizes=(1, 2, 3)):
        conditioned = compile_theory(theory)._conditioned(query)
        assert conditioned is not None, query
        fresh = compile_theory(Fo2Theory.of(theory.sentences + (query,),
                                            theory.vocabulary))
        assert conditioned.branches == fresh.branches, query
        assert conditioned.skolem_weights == fresh.skolem_weights
        for n in sizes:
            d = Domain(n)
            assert conditioned.composition_count(d) == \
                fresh.composition_count(d)
            for w, wbar in weights:
                got = conditioned.wfomc(w, wbar, d)[0]
                want = fresh.wfomc(w, wbar, d)[0]
                assert type(got) is type(want) and got == want, (query, n)

    def test_random_theories_float_and_exact_weights(self):
        rng = random.Random(1405)
        for _ in range(25):
            theory, w, wbar = random_theory(rng)
            if rng.random() < 0.5:
                # An ``exists x`` sentence of T's own gives the expansion
                # misses to condition.
                atoms = [Atom(p, (X,) * p.arity) for p in theory.vocabulary]
                theory = Fo2Theory.of(
                    theory.sentences + (Exists(X, random_matrix(rng, atoms)),),
                    theory.vocabulary)
            names = [p.name for p in theory.vocabulary]
            exact = WeightFunction({k: rng.randint(-2, 3) for k in names})
            ratio = WeightFunction({k: Fraction(rng.randint(1, 5),
                                                rng.randint(1, 3))
                                    for k in names})
            for query in self._queries(rng, theory):
                self._check_same(theory, query,
                                 [(w, wbar), (exact, ONES), (ratio, exact)])

    def test_random_models(self):
        rng = random.Random(1406)
        for _ in range(15):
            mln, _, d = random_feasible_mln(rng)
            theory, w, wbar = translate_mln(mln)
            for query in self._queries(rng, Fo2Theory.of(
                    (), mln.vocabulary)):
                self._check_same(theory, query, [(w, wbar)], (d.size,))

    @pytest.mark.parametrize("with_exists", [True, False])
    def test_nullary_branches(self, with_exists):
        # Closed sentences nested in a connective give nullary definition
        # predicates, whose ``exists`` halves add misses; a declared nullary
        # q alone adds none.  The queries mention q, so each nullary branch
        # conditions on its own folded matrix, FALSE in some.
        q = Atom(Predicate("q", 0), ())
        p, f = Atom(P, (X,)), Atom(F, (X, X))
        sentences = [Or(Exists(X, p), ForAll(X, ForAll(Y, Atom(F, (X, Y))))),
                     Iff(q, Exists(X, And(p, f)))] if with_exists else \
            [ForAll(X, Implies(q, Or(p, f)))]
        theory = Fo2Theory.of(sentences, [P, F, q.pred])
        w = WeightFunction({"p": 2, "f": 3, "q": 5})
        for query in (ForAll(X, Or(p, q)), Exists(X, And(f, q)),
                      ForAll(X, Implies(q, f)), ForAll(X, And(p, q)),
                      Exists(X, Not(p))):
            self._check_same(theory, query, [(w, ONES)])
            for n in (1, 2, 3):
                got = compile_theory(theory)._conditioned(query).wfomc(
                    w, ONES, Domain(n))[0]
                assert got == brute_wfomc(
                    list(theory.sentences) + [query], w, ONES, Domain(n),
                    vocab=theory.vocabulary)

    @pytest.mark.parametrize("query", [
        TOTALITY,
        ForAll(X, ForAll(Y, Atom(F, (X, Y)))),
        ForAll(X, Or(Atom(P, (X,)), Exists(Y, Atom(F, (X, Y))))),
        Exists(X, Exists(Y, Atom(F, (X, Y)))),
        Atom(Predicate("q", 0), ()),
    ], ids=["forall-exists", "binary", "nested", "exists-exists", "nullary"])
    def test_other_queries_are_not_conditioned(self, query):
        compiled = compile_theory(Fo2Theory.of(
            [ForAll(X, Implies(Atom(P, (X,)), Atom(F, (X, X))))],
            [P, F, Predicate("q", 0)]))
        assert compiled._conditioned(query) is None


class TestNegatedPrefix:
    @pytest.mark.parametrize("negated, plain", [
        (Not(ForAll(X, Not(Atom(F, (X, X))))), Exists(X, Atom(F, (X, X)))),
        (Not(Exists(X, Atom(P, (X,)))), ForAll(X, Not(Atom(P, (X,))))),
        (ForAll(X, Not(Exists(Y, Atom(F, (X, Y))))),
         ForAll(X, ForAll(Y, Not(Atom(F, (X, Y)))))),
    ])
    def test_negation_moves_inside_the_prefix(self, negated, plain):
        sentences, vocab, _ = _normalized(Fo2Theory.of([negated], [P, F]))
        assert sentences == [plain]
        assert vocab == [P, F]

    def test_both_spellings_count_alike(self):
        loop = Atom(F, (X, X))
        w = WeightFunction({"f": 2})
        spellings = [compile_theory(Fo2Theory.of([TOTALITY, s], [F]))
                     for s in (Exists(X, loop), Not(ForAll(X, Not(loop))))]
        assert len(spellings[0].branches) == len(spellings[1].branches)
        for n in (1, 2, 3):
            want = brute_wfomc([TOTALITY, Exists(X, loop)], w, ONES,
                               Domain(n), vocab=[F])
            for compiled in spellings:
                assert compiled.wfomc(w, ONES, Domain(n))[0] == want


class TestCompositionSum:
    def test_composition_count_formula(self):
        for c, n in [(1, 5), (2, 4), (3, 4), (4, 6), (5, 3)]:
            ws = [1] * c
            r = [[1] * c for _ in range(c)]
            value, leaves, _ = _config_sum(n, ws, r)
            assert leaves == math.comb(n + c - 1, c - 1)
            assert value == c ** n  # all-ones weights count cell labelings

    def test_compiled_composition_count(self):
        t = Fo2Theory.of([TOTALITY], [F])
        compiled = compile_theory(t)
        d = Domain(6)
        # Both classes form one group: a single composition.
        assert compiled.composition_count(d) == 1

    @pytest.mark.parametrize("args", [
        # 1e151**2 = 1e302 is finite but above the limit.
        (2, [1e151], [[1]]),
        (2, [np.array([1.0, 1e151, 0.5j])], [[1]]),
        (2, [1.0, 1], [[1, 1], [1, 1]], ((1, [(1e151, [1, 1])]),)),
        (2, [float("nan")], [[1]]),
    ], ids=["scalar", "array-element", "layer-weight", "nan"])
    def test_power_above_limit_raises(self, args):
        with pytest.raises(NumericOverflowError, match="MAGNITUDE_LIMIT"):
            _config_sum(*args)

    def test_power_below_limit_passes(self):
        value, _, _ = _config_sum(2, [np.array([1.0, 1e149, 0.5j])], [[1]])
        assert value[1] == pytest.approx(1e298)

    def test_magnitude_covers_every_term(self):
        # Terms whose factors are all ints count too: the term 1^3 of
        # 27 = (1 + 2.0)^3, and the -1 of -1 + 2 * 0.5 + 0.25.
        assert _config_sum(3, [1, 2.0], [[1, 1], [1, 1]]) == (27.0, 4, 27.0)
        assert _config_sum(2, [1, 0.5], [[-1, 1], [1, 1]]) == (0.25, 3, 2.25)
        rng = np.random.default_rng(11)
        for c in (1, 2, 3, 5):
            ws = list(rng.uniform(-2, 2, c))
            r = rng.uniform(-1.5, 1.5, (c, c))
            value, _, magnitude = _config_sum(4, ws, (r + r.T).tolist())
            assert magnitude >= abs(value)
        # Exact and array sums carry none.
        assert _config_sum(3, [1, 2], [[1, 1], [1, 1]]) == (27, 4, 0)
        assert _config_sum(3, [np.ones(2), 2.0], [[1, 1], [1, 1]])[2] == 0

    @pytest.mark.parametrize("layers", [
        (), ((1, [(0.5, [1.5, 2.0]), (2.0, [0.5, 1.0])]),)],
        ids=["plain", "layered"])
    def test_config_sum_leaves_no_reference_cycle(self, layers):
        # The sum must leave no cyclic garbage: what only the cycle
        # collector frees is collected inside some later call, whose
        # latency it would then carry.
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            value, leaves, _ = _config_sum(
                4, [1.5, 1], [[0.5, 2.0], [2.0, 1]], layers)
            assert leaves == 5 and value != 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

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
        value, leaves, _ = _config_sum(n, ws, r)
        assert leaves == math.comb(n + c - 1, c - 1)
        for e in range(size):
            want, _, _ = _config_sum(
                n, [complex(w[e]) for w in ws],
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
        value, leaves, _ = _config_sum(self.N, ws, r)
        want = _reference_sum(self.N, ws, r)
        if exact:
            assert value == want and type(value) is type(want)
        else:
            assert np.allclose(value, want, rtol=1e-12, atol=0)
        assert leaves == math.comb(self.N + len(ws) - 1, len(ws) - 1)

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

    def test_array_weights(self):
        rng = np.random.default_rng(6)

        def draw():
            return rng.uniform(-1.5, 1.5, 4) + 1j * rng.uniform(-1, 1, 4)

        ws = [draw() for _ in range(5)]
        self._check(ws, _zero_pattern(lambda i, j: draw()), False)

    @pytest.mark.parametrize("exact", [True, False], ids=["int", "complex"])
    def test_sum_over_many_blocks(self, exact):
        # 19,448 compositions of 10 into 8 cells, one column per weight but
        # an int 1: the sum runs in several blocks of at most _CHUNK entries.
        n, c = 10, 8
        rng = random.Random(12)

        def draw():
            return rng.randint(-2, 3) if exact else complex(
                rng.uniform(-1.2, 1.2), rng.uniform(-1, 1))

        ws = [draw() for _ in range(c)]
        r = [[None] * c for _ in range(c)]
        for i in range(c):
            for j in range(i, c):
                r[i][j] = r[j][i] = draw()
        value, leaves, magnitude = _config_sum(n, ws, r)
        columns = sum(x != 1 for x in ws + [r[i][j] for i in range(c)
                                            for j in range(i, c)])
        assert leaves == 19448 and leaves * columns > 4 * lifted._CHUNK
        want = _reference_sum(n, ws, r)
        if exact:
            assert value == want and type(value) is int
        else:
            assert abs(value - want) <= 1e-12 * magnitude

    def test_exact_loop_marginal_on_total_relations(self):
        f = Predicate("f", 2)
        phi = Mln.of([(ForAll(X, Exists(Y, Atom(f, (X, Y)))), math.inf)], [f])
        n = 28
        got = marginal(phi, Exists(X, Atom(f, (X, X))), Domain(n))
        total = (2 ** n - 1) ** n
        assert got == float(Fraction(total - (2 ** (n - 1) - 1) ** n, total))


class TestPrunedCompositionCount:
    def test_wfomc_visits_what_composition_count_reports(self, monkeypatch):
        visited = []

        def counting(*args):
            result = _config_sum(*args)
            visited.append(result[1])
            return result

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
        # The totality's two classes form one group, on all cells and on
        # those without a loop: one composition per branch.
        for n in (28, 2000):
            assert compiled.composition_count(Domain(n)) == 2
        onto = compile_theory(Fo2Theory.of(
            [ForAll(X, Exists(Y, Atom(f, (X, Y)))),
             ForAll(Y, Exists(X, Atom(f, (X, Y))))], [f]))
        # One composition per split of the elements by sk1, the onto
        # Skolem predicate.
        assert onto.composition_count(Domain(2000)) == 2001


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


def _two_sided_theory(rng):
    """A theory whose forall-exists sentences tie the cross atom b(x, y) to
    a unary atom of y, as ``f(x,y) & p(y)`` does: the pair rows stay
    products, but x's set depends on y's label.  Some add a forall-exists
    sentence over x's own atoms, a forall-forall one over x's atoms, y's
    unary atoms and b(x, y), or an ``exists x`` sentence."""
    vocab = [Predicate(f"u{i}", 1) for i in range(rng.randint(1, 2))]
    vocab += [Predicate(f"b{i}", 2) for i in range(rng.randint(1, 2))]
    own = [Atom(p, (X,) * p.arity) for p in vocab]
    cross = [Atom(p, (X, Y)) for p in vocab if p.arity == 2]
    partner = [Atom(p, (Y,)) for p in vocab if p.arity == 1]

    def literal(atoms):
        atom = rng.choice(atoms)
        return atom if rng.random() < 0.5 else Not(atom)

    sentences = [ForAll(X, Exists(Y, rng.choice([And, Or, Implies])(
        literal(cross), literal(partner)))) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        sentences.append(ForAll(X, Exists(Y, random_matrix(rng, own + cross))))
    if rng.random() < 0.4:
        sentences.append(ForAll(X, ForAll(Y, random_matrix(
            rng, own + cross + partner))))
    if rng.random() < 0.3:
        sentences.append(Exists(X, random_matrix(rng, own)))
    return Fo2Theory.of(sentences, vocab)


def _class_level_wfomc(compiled, w, wbar, n):
    """``CompiledTheory.wfomc`` over the uncollapsed class-level tables:
    each branch with one label per class and no outgoing sets."""
    branches = tuple(dataclasses.replace(
        branch, labels=tuple((k,) for k in range(len(branch.cells))),
        outgoing={}) for branch in compiled.branches)
    return dataclasses.replace(compiled, branches=branches).wfomc(
        w, wbar, Domain(n))[0]


def _layered(branch):
    """Whether some outer label of ``branch`` holds several classes."""
    return len(branch.labels) < len(branch.cells)


def _two_sided(branch):
    """Whether a class of a several-class label of ``branch`` sends
    different nonempty sets toward two labels, which the group collapse of
    partner-independent sets did not cover."""
    layered = {a for members in branch.labels if len(members) > 1
               for a in members}
    sets = {}
    for (a, _), rows in branch.outgoing.items():
        if a in layered and rows:
            sets.setdefault(a, set()).add(tuple(map(tuple, rows)))
    return any(len(found) > 1 for found in sets.values())


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
            grouped += sum(map(_layered, compiled.branches))
            for n in (1, 2, 3, 4):
                got = compiled.wfomc(w, wbar, Domain(n))[0]
                assert type(got) is int
                assert got == _class_level_wfomc(compiled, w, wbar, n), \
                    (theory.sentences, n)
        assert grouped >= 20

    @pytest.mark.parametrize("exact", [True, False], ids=["int", "complex"])
    def test_two_sided_labels_match_class_level_sum(self, exact):
        rng = random.Random(1212)
        two_sided = 0
        for _ in range(120):
            theory = _two_sided_theory(rng)
            draws = [rng.randint(-2, 3) if exact else random_weight(rng)
                     for _ in range(2 * len(theory.vocabulary))]
            w, wbar = (WeightFunction({p.name: v for p, v in zip(
                theory.vocabulary, half)}) for half in (draws[::2], draws[1::2]))
            compiled = compile_theory(theory)
            two_sided += sum(map(_two_sided, compiled.branches))
            for n in (1, 2, 3, 4):
                got = compiled.wfomc(w, wbar, Domain(n))[0]
                want = _class_level_wfomc(compiled, w, wbar, n)
                if n <= 2:
                    assert rel_close(want, brute_wfomc(
                        list(theory.sentences), w, wbar, Domain(n),
                        vocab=theory.vocabulary), 1e-12)
                if exact:
                    assert type(got) is int and got == want, \
                        (theory.sentences, n)
                else:
                    assert rel_close(got, want, 1e-12), (theory.sentences, n)
        assert two_sided >= 20

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
            groups = [_layered(b) for b in compiled.branches]
            grouped += any(groups)
            for n in (1, 2, 3):
                got = compiled.wfomc(w, wbar, Domain(n))[0]
                want = brute_wfomc(list(theory.sentences), w, wbar, Domain(n),
                                   vocab=theory.vocabulary)
                assert rel_close(got, want, 1e-12), (theory.sentences, n)
                if not any(groups):
                    # Every label one class: the class-level sum, bit for
                    # bit.
                    assert got == _class_level_wfomc(compiled, w, wbar, n)
        assert grouped >= 20

    def test_array_weights_match_scalar_results(self):
        rng = random.Random(10)
        tested = 0
        while tested < 10:
            theory = _own_side_theory(rng, rng.randint(1, 2))
            compiled = compile_theory(theory)
            if not any(map(_layered, compiled.branches)):
                continue
            tested += 1
            names = [p.name for p in theory.vocabulary]
            w = {k: [random_weight(rng) for _ in range(4)] for k in names}
            wbar = {k: [random_weight(rng) for _ in range(4)] for k in names}
            got = compiled.wfomc(
                WeightFunction({k: np.array(v, complex) for k, v in w.items()}),
                WeightFunction({k: np.array(v, complex)
                                for k, v in wbar.items()}), Domain(5))[0]
            for e in range(4):
                want = compiled.wfomc(
                    WeightFunction({k: v[e] for k, v in w.items()}),
                    WeightFunction({k: v[e] for k, v in wbar.items()}),
                    Domain(5))[0]
                assert got[e] == pytest.approx(want, rel=1e-12)

    def test_layered_sum_over_several_blocks(self, monkeypatch):
        rng = random.Random(31)
        n, tested = 6, 0
        while tested < 8:
            theory = _own_side_theory(rng, rng.randint(1, 2))
            compiled = compile_theory(theory)
            if max((math.comb(n + len(b.labels) - 1, len(b.labels) - 1)
                    for b in compiled.branches if _layered(b)), default=0) <= 16:
                continue
            tested += 1
            names = [p.name for p in theory.vocabulary]
            w = WeightFunction({k: rng.randint(-2, 3) for k in names})
            wbar = WeightFunction({k: rng.randint(-2, 3) for k in names})
            with monkeypatch.context() as patch:
                # Blocks of at most 16 entries, so of at most 16
                # compositions: a layered sum above spans several.
                patch.setattr(lifted, "_CHUNK", 16)
                got = compiled.wfomc(w, wbar, Domain(n))[0]
            assert type(got) is int
            assert got == _class_level_wfomc(compiled, w, wbar, n)

    @pytest.mark.parametrize("extra", [
        # x's allowed f(x, y) depend on y's p: products, and two labels,
        # p's values, of two classes each.
        ForAll(X, ForAll(Y, Implies(Atom(F, (X, Y)), Atom(P, (Y,))))),
        # f(x, y) and f(y, x) agree: not products.
        ForAll(X, ForAll(Y, Iff(Atom(F, (X, Y)), Atom(F, (Y, X))))),
        # Never both f(x, y) and f(y, x): not products, though every
        # assignment of each side occurs.
        ForAll(X, ForAll(Y, Not(And(Atom(F, (X, Y)), Atom(F, (Y, X)))))),
        # Unless p(x) or f(x, x), f(x, y) follows p(y): one assignment
        # toward each label, but not the same one.
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
            assert compiled.wfomc(w, wbar, Domain(n))[0] == \
                brute_wfomc(sentences, w, wbar, Domain(n), vocab=[P, F])
        for n in (4, 7):
            assert compiled.wfomc(w, wbar, Domain(n))[0] == \
                _class_level_wfomc(compiled, w, wbar, n)

    @pytest.mark.parametrize("n", [50, 120])
    def test_totality_count_from_one_composition(self, n):
        compiled = compile_theory(Fo2Theory.of([TOTALITY], [F]))
        (branch,) = compiled.branches
        assert len(branch.cells) == 2 and branch.labels == ((0, 1),)
        assert compiled.composition_count(Domain(n)) == 1
        assert compiled.wfomc(ONES, ONES, Domain(n))[0] == (2 ** n - 1) ** n

    def test_total_onto_sums_over_outer_labels(self):
        compiled = compile_theory(Fo2Theory.of([TOTALITY, ONTO], [F]))
        (branch,) = compiled.branches
        # f(u, v) is allowed iff sk0(u) and sk1(v): the labels are sk1's two
        # values, each of two classes.
        assert len(branch.cells) == 4 and len(branch.labels) == 2
        assert all(len(members) == 2 for members in branch.labels)
        for n in (5, 26):
            assert compiled.composition_count(Domain(n)) == n + 1


class TestTwoLabelClosedForms:
    """Theories whose closed forms are single sums over k <= n, each summed
    over the n + 1 compositions of the domain into two outer labels."""

    @staticmethod
    def _total_onto(n, w, wbar):
        """Inclusion-exclusion over the k elements without a predecessor:
        each row is wbar on their columns and not all wbar on the rest."""
        return sum((-1) ** k * math.comb(n, k)
                   * (wbar ** k * ((w + wbar) ** (n - k) - wbar ** (n - k)))
                   ** n for k in range(n + 1))

    @pytest.mark.parametrize("w, wbar", [(1, 1), (Fraction(3, 2), Fraction(1)),
                                         (2, 5)], ids=str)
    @pytest.mark.parametrize("n", [1, 6, 13, 26, 30])
    def test_total_onto(self, n, w, wbar):
        compiled = compile_theory(Fo2Theory.of([TOTALITY, ONTO], [F]))
        got = compiled.wfomc(WeightFunction({"f": w}),
                             WeightFunction({"f": wbar}), Domain(n))[0]
        want = self._total_onto(n, w, wbar)
        assert got == want and type(got) is type(want)
        assert compiled.composition_count(Domain(n)) == n + 1

    @pytest.mark.parametrize("n", range(1, 15))
    def test_marked_successor(self, n):
        # Every element has an f-successor inside p: sum over the k
        # elements of p of ((2^k - 1) 2^(n-k))^n.
        marked = ForAll(X, Exists(Y, And(Atom(F, (X, Y)), Atom(P, (Y,)))))
        compiled = compile_theory(Fo2Theory.of([marked], [P, F]))
        got = compiled.wfomc(ONES, ONES, Domain(n))[0]
        assert type(got) is int and got == sum(
            math.comb(n, k) * ((2 ** k - 1) * 2 ** (n - k)) ** n
            for k in range(n + 1))
        assert compiled.composition_count(Domain(n)) == n + 1

    def test_onto_probability_under_totality(self):
        n = 22
        d = Domain(n)
        onto = compile_theory(Fo2Theory.of([TOTALITY, ONTO], [F]))
        total = compile_theory(Fo2Theory.of([TOTALITY], [F]))
        want = Fraction(self._total_onto(n, 1, 1), (2 ** n - 1) ** n)
        assert Fraction(onto.wfomc(ONES, ONES, d)[0],
                        total.wfomc(ONES, ONES, d)[0]) == want
        assert onto.composition_count(d) == n + 1
        assert total.composition_count(d) == 1
        mln = Mln.of([(TOTALITY, math.inf)], [F])
        assert marginal(mln, ONTO, d) == float(want)
