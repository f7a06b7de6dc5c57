import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlncount import (
    And, Atom, Domain, Eq, Exists, ForAll, Iff, Implies, Not, Or,
    Predicate, TRUE, Var, free_variables, groundings, parse_formula, pretty,
)
from mlncount.logic import (
    FALSE, Truth, evaluate_bitwise, fold, ground_atoms, iter_subformulas,
    predicates_of, substitute, universal_closure,
)
from mlncount.errors import (
    FormulaSyntaxError, TooManyVariablesError, VocabularyError,
)

from helpers import (
    PossibleWorld, all_variables, count_true_groundings, evaluate,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
SMOKES = Predicate("smokes", 1)
FRIENDS = Predicate("friends", 2)
P = Predicate("p", 1)
F = Predicate("f", 2)
VOCAB = [SMOKES, FRIENDS, P, F]


def world(*atoms):
    return PossibleWorld(frozenset(atoms))


class TestParse:
    def test_smokers_formula(self):
        f = parse_formula("smokes(x) & friends(x,y) -> smokes(y)", VOCAB)
        assert isinstance(f, Implies)
        assert isinstance(f.left, And)
        assert free_variables(f) == {X, Y}

    def test_quantified_sentence(self):
        f = parse_formula("forall x exists y f(x,y)", VOCAB)
        assert isinstance(f, ForAll)
        assert isinstance(f.body, Exists)
        assert free_variables(f) == set()

    @pytest.mark.parametrize("text", [
        "f(x,y) & f(y,z)",
        "forall z f(x,y)",  # z is bound but occurs in no atom
    ], ids=["z-in-atom", "z-bound-only"])
    def test_three_variables_rejected(self, text):
        with pytest.raises(TooManyVariablesError,
                           match=r"3 distinct variables \(x, y, z\)"):
            parse_formula(text, VOCAB)

    def test_two_variables_reused_accepted(self):
        f = parse_formula("forall x exists y f(x,y) & p(x)", VOCAB)
        assert all_variables(f) == {X, Y}

    def test_arity_mismatch_rejected(self):
        with pytest.raises(VocabularyError):
            parse_formula("p(x,y)", VOCAB)

    def test_undeclared_predicate(self):
        with pytest.raises(VocabularyError):
            parse_formula("q(x)", VOCAB)

    def test_syntax_error_has_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("p(x) &", VOCAB)
        assert "column" in str(err.value) or "end of formula" in str(err.value)

    @pytest.mark.parametrize("text,column,message", [
        ("p(x) $ p(y)", 6, "unexpected character '$'"),
        ("p(x) p(y)", 6, "unexpected trailing input 'p'"),
        ("(p(x) p(y))", 7, "expected ')', found 'p'"),
        ("p(&)", 3, "expected a term, found '&'"),
        ("f(x y)", 5, "expected ',' or ')' in argument list, found 'y'"),
        ("forall (x) p(x)", 8, "expected a variable after 'forall', found '('"),
        ("p(x", 4, "unexpected end of formula"),
        ("f(x,", 5, "unexpected end of formula"),
    ])
    def test_syntax_error_names_its_column(self, text, column, message):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text, VOCAB)
        assert type(err.value) is FormulaSyntaxError
        assert str(err.value) == f"column {column}: {message}"
        assert (err.value.line, err.value.column) == (0, column)

    def test_false_literal(self):
        assert parse_formula("false", VOCAB) == FALSE
        assert parse_formula("p(x) | false", VOCAB) == Or(Atom(P, (X,)), FALSE)

    def test_named_constants_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p(Alice)", VOCAB)

    def test_integer_constants_accepted(self):
        f = parse_formula("f(0,1)", VOCAB)
        assert f == Atom(F, (0, 1))

    def test_precedence(self):
        f = parse_formula("!p(x) & p(y) | p(x) -> p(y) <-> p(x)", VOCAB)
        assert isinstance(f, Iff)
        assert isinstance(f.left, Implies)
        assert isinstance(f.left.left, Or)
        assert isinstance(f.left.left.left, And)
        assert isinstance(f.left.left.left.left, Not)

    def test_implies_right_associative(self):
        f = parse_formula("p(x) -> p(y) -> p(x)", VOCAB)
        assert isinstance(f, Implies)
        assert isinstance(f.right, Implies)


class TestFreeVariables:
    def test_open_atom(self):
        assert free_variables(Atom(F, (X, Y))) == {X, Y}

    def test_closed_sentence(self):
        f = ForAll(X, Exists(Y, Atom(F, (X, Y))))
        assert free_variables(f) == set()

    def test_repeated_variable(self):
        assert free_variables(Atom(F, (X, X))) == {X}


class TestGroundings:
    def test_two_variables(self):
        assert len(groundings(Atom(F, (X, Y)), Domain(3))) == 9

    def test_reflexive(self):
        assert len(groundings(Atom(F, (X, X)), Domain(3))) == 3

    def test_sentence_single_grounding(self):
        f = ForAll(X, Atom(P, (X,)))
        assert groundings(f, Domain(5)) == [f]

    def test_count_matches_domain_power(self):
        for f in (Atom(P, (X,)), Atom(F, (X, Y)), And(Atom(P, (X,)), Atom(P, (Y,)))):
            for n in (1, 2, 4):
                expect = n ** len(free_variables(f))
                assert len(groundings(f, Domain(n))) == expect

    def test_deterministic_lexicographic_order(self):
        gs = groundings(Atom(F, (X, Y)), Domain(2))
        assert gs == [Atom(F, (0, 0)), Atom(F, (0, 1)),
                      Atom(F, (1, 0)), Atom(F, (1, 1))]


class TestEvaluate:
    def test_ground_atom(self):
        assert evaluate(Atom(F, (0, 1)), world(Atom(F, (0, 1))), Domain(2))

    def test_forall_exists_true(self):
        f = ForAll(X, Exists(Y, Atom(F, (X, Y))))
        w = world(Atom(F, (0, 0)), Atom(F, (1, 0)))
        assert evaluate(f, w, Domain(2))

    def test_forall_exists_false(self):
        f = ForAll(X, Exists(Y, Atom(F, (X, Y))))
        assert not evaluate(f, world(Atom(F, (0, 0))), Domain(2))

    def test_equality(self):
        assert evaluate(Eq(1, 1), world(), Domain(2))
        assert not evaluate(Eq(0, 1), world(), Domain(2))

    def test_three_variable_evaluation(self):
        # functionality clause: forall x,y,z (f(x,y) & f(x,z) -> y = z)
        f = ForAll(X, ForAll(Y, ForAll(Z, Implies(
            And(Atom(F, (X, Y)), Atom(F, (X, Z))), Eq(Y, Z)))))
        assert evaluate(f, world(Atom(F, (0, 1)), Atom(F, (1, 0))), Domain(2))
        assert not evaluate(f, world(Atom(F, (0, 0)), Atom(F, (0, 1))), Domain(2))


class TestEvaluateBitwise:
    ATOMS = [Atom(P, (0,)), Atom(F, (0, 1)), Atom(F, (1, 0))]
    FORMULAS = [
        Iff(Atom(P, (0,)), Or(Atom(F, (0, 1)), Not(Atom(F, (1, 0))))),
        Implies(And(Atom(F, (0, 1)), TRUE), Atom(P, (0,))),
        Or(FALSE, Iff(TRUE, Atom(F, (1, 0)))),
    ]

    def test_bool_arrays_match_evaluate(self):
        rows = list(itertools.product((False, True), repeat=3))
        bits = np.array(rows, dtype=bool)
        leaves = {a: bits[:, k] for k, a in enumerate(self.ATOMS)}
        leaves.update({TRUE: np.True_, FALSE: np.False_})
        for f in self.FORMULAS:
            want = [evaluate(f, world(*(a for a, v in zip(self.ATOMS, row)
                                        if v)), Domain(2)) for row in rows]
            assert evaluate_bitwise(f, leaves).tolist() == want

    def test_packed_words_match_bool_arrays(self):
        # Bit i of atom k's word is bit k of assignment i.
        words = {a: np.array([sum(1 << i for i in range(8) if i >> k & 1)],
                             dtype=np.uint8)
                 for k, a in enumerate(self.ATOMS)}
        words.update({TRUE: np.array([0xFF], dtype=np.uint8),
                      FALSE: np.array([0], dtype=np.uint8)})
        bits = {a: (w[0] >> np.arange(8)) & 1 == 1 for a, w in words.items()}
        for f in self.FORMULAS:
            packed = evaluate_bitwise(f, words)[0]
            assert [(packed >> i) & 1 == 1 for i in range(8)] == \
                evaluate_bitwise(f, bits).tolist()


class TestCountTrueGroundings:
    def test_binary(self):
        w = world(Atom(F, (0, 0)), Atom(F, (0, 1)))
        assert count_true_groundings(Atom(F, (X, Y)), w, Domain(2)) == 2

    def test_reflexive_only(self):
        w = world(Atom(F, (0, 0)), Atom(F, (0, 1)))
        assert count_true_groundings(Atom(F, (X, X)), w, Domain(2)) == 1

    def test_empty_world(self):
        assert count_true_groundings(Atom(P, (X,)), world(), Domain(3)) == 0

    def test_sentence_is_indicator(self):
        f = Exists(X, Atom(P, (X,)))
        assert count_true_groundings(f, world(Atom(P, (1,))), Domain(3)) == 1
        assert count_true_groundings(f, world(), Domain(3)) == 0

    def test_equals_sum_of_evaluations(self):
        f = Implies(Atom(P, (X,)), Atom(F, (X, Y)))
        d = Domain(2)
        w = world(Atom(P, (0,)), Atom(F, (0, 1)), Atom(F, (1, 1)))
        total = sum(evaluate(g, w, d) for g in groundings(f, d))
        assert count_true_groundings(f, w, d) == total


class TestMonotonicity:
    def test_positive_atom_stays_true(self):
        d = Domain(2)
        f = Exists(X, Atom(P, (X,)))
        small = world(Atom(P, (0,)))
        large = world(Atom(P, (0,)), Atom(P, (1,)), Atom(F, (0, 0)))
        assert evaluate(f, small, d) and evaluate(f, large, d)


# -- surface-syntax round trip ------------------------------------------------

_atoms = st.sampled_from([
    Atom(P, (X,)), Atom(P, (Y,)), Atom(F, (X, Y)), Atom(F, (Y, X)),
    Atom(F, (X, X)), Atom(SMOKES, (X,)), TRUE,
])


def _formulas(depth):
    if depth == 0:
        return _atoms
    sub = _formulas(depth - 1)
    return st.one_of(
        _atoms,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(ForAll, st.sampled_from([X, Y]), sub),
        st.builds(Exists, st.sampled_from([X, Y]), sub),
    )


@settings(max_examples=200, deadline=None)
@given(_formulas(3))
def test_parse_pretty_roundtrip(f):
    assert parse_formula(pretty(f), VOCAB) == f


class TestPretty:
    # The leaves that the round-trip strategy above never draws.
    def test_nullary_atom_is_its_name(self):
        q = Predicate("q", 0)
        assert pretty(Atom(q, ())) == "q"
        assert parse_formula("q", VOCAB + [q]) == Atom(q, ())

    def test_equality_with_a_constant(self):
        assert pretty(Eq(X, 0)) == "x = 0"

    def test_variable_is_its_name(self):
        assert str(Var("x")) == "x"


# -- constant folding ---------------------------------------------------------

Q = Predicate("q", 0)
_FOLD_VOCAB = [Q, P, F]
_FOLD_ATOMS = ground_atoms(_FOLD_VOCAB, Domain(2))
_FOLD_WORLDS = [world(*(a for a, bit in zip(_FOLD_ATOMS, bits) if bit))
                for bits in itertools.product((False, True),
                                              repeat=len(_FOLD_ATOMS))]


def _folding_formulas(depth):
    leaves = st.sampled_from([TRUE, FALSE, Atom(Q, ()), Atom(P, (X,)),
                              Atom(P, (Y,)), Atom(F, (X, Y)), Atom(F, (Y, Y))])
    if depth == 0:
        return leaves
    sub = _folding_formulas(depth - 1)
    return st.one_of(
        leaves,
        st.builds(Not, sub),
        *(st.builds(op, sub, sub) for op in (And, Or, Implies, Iff)),
        *(st.builds(q, st.sampled_from([X, Y]), sub)
          for q in (ForAll, Exists)),
    )


def _is_folded(f):
    if isinstance(f, Truth):
        return True
    return all(not isinstance(g, Truth)
               and (not isinstance(g, (ForAll, Exists))
                    or g.var in free_variables(g.body))
               for g in iter_subformulas(f))


@settings(max_examples=150, deadline=None)
@given(_folding_formulas(4), st.booleans())
def test_fold_preserves_meaning(f, q_value):
    f = universal_closure(f)
    folded = fold(f)
    assert _is_folded(folded)
    q_leaf = TRUE if q_value else FALSE
    with_q = fold(f, {Atom(Q, ()): q_leaf})
    assert _is_folded(with_q)
    assert Atom(Q, ()) not in set(iter_subformulas(with_q))
    d = Domain(2)
    for w in _FOLD_WORLDS:
        assert evaluate(folded, w, d) == evaluate(f, w, d)
        if (Atom(Q, ()) in w) == q_value:
            assert evaluate(with_q, w, d) == evaluate(f, w, d)


def test_fold_drops_quantifier_left_vacuous_by_folding():
    f = ForAll(X, ForAll(Y, Or(Atom(P, (Y,)), And(Atom(F, (X, Y)), FALSE))))
    assert fold(f) == ForAll(Y, Atom(P, (Y,)))
    assert fold(Exists(X, Not(Atom(Q, ()))), {Atom(Q, ()): FALSE}) == TRUE


_Q1 = Predicate("q", 1)


@pytest.mark.parametrize("f, free, folded", [
    # The inner x shadows the outer, which binds nothing.
    (ForAll(X, Exists(X, Atom(P, (X,)))), set(), Exists(X, Atom(P, (X,)))),
    # The inner x shadows the outer in its own scope only.
    (ForAll(X, And(Atom(P, (X,)), Exists(X, Atom(_Q1, (X,))))), set(), None),
    (Exists(Y, ForAll(X, Atom(F, (X, X)))), set(), ForAll(X, Atom(F, (X, X)))),
    (ForAll(Y, Or(Atom(P, (X,)), Atom(_Q1, (Y,)))), {X}, None),
], ids=["shadowed-vacuous", "shadowed-scoped", "vacuous-outer", "open"])
def test_shadowed_and_vacuous_quantifiers(f, free, folded):
    # None: nothing is vacuous, so fold returns its input.
    assert free_variables(f) == free
    assert fold(f) is f if folded is None else fold(f) == folded


def test_rewrite_that_changes_nothing_returns_its_input():
    # No Truth leaf, no vacuous quantifier: fold and an identity
    # substitution return the node they were given, not an equal copy.
    matrix = Iff(Not(Atom(F, (X, Y))), Implies(
        Or(Atom(P, (X,)), Atom(Q, ())), And(Atom(P, (Y,)), Atom(F, (Y, 0)))))
    f = ForAll(X, Exists(Y, matrix))
    assert fold(f) is f
    assert substitute(f, {X: X, Y: Y}) is f
    assert substitute(matrix, {X: X, Y: Y}) is matrix
    swapped = substitute(matrix, {X: Y, Y: X})
    assert swapped != matrix and substitute(swapped, {X: Y, Y: X}) == matrix


def test_tree_queries_pinned():
    # z is bound but never used; 0 occurs as an atom argument and 1 in an Eq.
    f = And(Exists(Z, Atom(P, (X,))),
            Or(Eq(Y, 1), Implies(Atom(F, (Y, 0)), Atom(Q, ()))))
    assert all_variables(f) == {X, Y, Z}
    assert predicates_of(f) == {P, F, Q}
    plain = ForAll(X, Exists(Y, Atom(F, (X, Y))))
    assert all_variables(plain) == {X, Y}
    assert predicates_of(plain) == {F}
