import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from mlncount import (
    And, Atom, CompiledTheory, CountSpec, Domain, Exists, ForAll, Iff,
    Implies, Mln, Not, Or, Predicate, Var, brute_count_distribution,
    brute_mln_marginal, brute_mln_partition, count_distribution, marginal,
    partition_function, translate_mln,
)
from mlncount import lifted
from mlncount.errors import (
    InfeasibleConstraintError, NumericOverflowError, NumericResidueError,
    UnsupportedSentenceError, VocabularyError,
)
from mlncount.logic import diagonal
from mlncount.mln import as_probability

from helpers import (
    count_statistics, enumerate_worlds, random_feasible_mln, world_mass,
)

X, Y = Var("x"), Var("y")
P = Predicate("p", 1)
Q = Predicate("q", 1)
R = Predicate("r", 0)
F = Predicate("f", 2)
TOTALITY = ForAll(X, Exists(Y, Atom(F, (X, Y))))


class TestUndeclaredPredicates:
    # The fragment gate rejects a predicate missing from the vocabulary in
    # model formulas, queries and count formulas alike.
    def test_partition_function(self):
        with pytest.raises(VocabularyError, match="q/1"):
            partition_function(Mln.of([(Atom(Q, (X,)), 0.5)], [P]), Domain(2))

    def test_marginal_query(self):
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P])
        with pytest.raises(VocabularyError, match="q/1"):
            marginal(mln, Exists(X, Atom(Q, (X,))), Domain(2))

    def test_marginal_query_is_refused_before_any_count(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("counted before the query was checked")

        monkeypatch.setattr(lifted.CompiledTheory, "wfomc", no_count)
        mln = Mln.of([(TOTALITY, math.inf)], [F])
        with pytest.raises(VocabularyError, match="q/1"):
            marginal(mln, Exists(X, Atom(Q, (X,))), Domain(30))

    def test_count_distribution_formula(self):
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P])
        with pytest.raises(VocabularyError, match="q/1"):
            count_distribution(mln, CountSpec.of([Atom(Q, (X,))]), Domain(2))


class TestTranslate:
    def test_empty_mln(self):
        theory, w, wbar = translate_mln(Mln.of([], [P]))
        assert theory.sentences == ()
        assert w("p") == 1 and wbar("p") == 1

    def test_soft_atom_weighs_its_predicate(self):
        # A literal needs no indicator: its own predicate's weight counts
        # its true groundings.
        mln = Mln.of([(Atom(P, (X,)), math.log(2))], [P])
        theory, w, wbar = translate_mln(mln)
        assert theory.sentences == ()
        assert theory.vocabulary == (P,)
        assert w("p") == pytest.approx(2)
        assert wbar("p") == 1

    @pytest.mark.parametrize("formula, name, weights", [
        (Not(Atom(P, (X,))), "p", (1, 3)),
        (Atom(F, (Y, X)), "f", (3, 1)),
        (Atom(R, ()), "r", (3, 1)),
    ], ids=["negated", "swapped-binary", "nullary"])
    def test_literals_weigh_their_predicate(self, formula, name, weights):
        theory, w, wbar = translate_mln(Mln.of([(formula, math.log(3))],
                                               [P, F, R]))
        assert theory.sentences == () and theory.vocabulary == (P, F, R)
        assert (w(name), wbar(name)) == pytest.approx(weights)

    def test_soft_weights_on_one_atom_multiply(self):
        mln = Mln.of([(Atom(P, (X,)), math.log(2)), (Atom(P, (X,)),
                      math.log(3)), (Not(Atom(P, (X,))), math.log(5))], [P])
        theory, w, wbar = translate_mln(mln)
        assert theory.sentences == ()
        assert w("p") == pytest.approx(6) and wbar("p") == pytest.approx(5)

    @pytest.mark.parametrize("formula", [
        And(Atom(P, (X,)), Atom(Q, (X,))),
    ], ids=["compound"])
    def test_other_soft_formula_gets_indicator(self, formula):
        mln = Mln.of([(formula, math.log(2))], [P, Q, F])
        theory, w, wbar = translate_mln(mln)
        (sentence,) = theory.sentences
        assert isinstance(sentence, ForAll)
        assert isinstance(sentence.body, Iff)
        assert sentence.body.right == formula
        xi = sentence.body.left.pred
        assert xi.arity == 1 and theory.vocabulary == (P, Q, F, xi)
        assert w(xi.name) == pytest.approx(2)
        assert wbar(xi.name) == 1
        assert w("p") == w("f") == 1

    @pytest.mark.parametrize("formula, side", [
        (Atom(F, (X, X)), 1), (Atom(F, (Y, Y)), 1),
        (Not(Atom(F, (X, X))), 0),
    ], ids=["reflexive", "over-y", "negated"])
    def test_reflexive_soft_formula_weighs_diagonal(self, formula, side):
        # f(e, e) is the cell's bit for f: its weight needs no indicator.
        mln = Mln.of([(formula, math.log(2))], [P, F])
        theory, w, wbar = translate_mln(mln)
        assert theory.sentences == () and theory.vocabulary == (P, F)
        assert ((wbar, w)[side](diagonal(F)) == pytest.approx(2)
                and (w, wbar)[side](diagonal(F)) == 1)
        assert w("f") == wbar("f") == 1

    def test_hard_formula_is_closure_without_indicator(self):
        mln = Mln.of([(TOTALITY, math.inf)], [F])
        theory, w, wbar = translate_mln(mln)
        assert theory.sentences == (TOTALITY,)
        assert len(theory.vocabulary) == 1

    def test_weight_beyond_exp_range_is_typed(self):
        mln = Mln.of([(Atom(P, (X,)), 710.0)], [P])
        with pytest.raises(NumericOverflowError, match="weight 710"):
            translate_mln(mln)

    def test_product_of_weights_beyond_float_range_is_typed(self):
        # Each weight is within exp's range; their product on p is not.
        for literal in (Atom(P, (X,)), Not(Atom(P, (X,)))):
            mln = Mln.of([(literal, 400.0), (literal, 400.0)], [P])
            text = re.escape(str(literal))
            with pytest.raises(NumericOverflowError,
                               match=f"weight 400 of {text} "):
                translate_mln(mln)

    @pytest.mark.parametrize("weight", [math.nan, -math.inf])
    def test_weight_that_is_no_log_weight_is_refused(self, weight):
        # NaN used to reach the count and fail there as |nan**3| > 1e300.
        mln = Mln.of([(Atom(P, (X,)), weight)], [P])
        with pytest.raises(ValueError, match=f"weight {weight} of p\\(x\\)"):
            partition_function(mln, Domain(3))

    def test_constant_atom_is_refused(self):
        # A ground atom is no literal over variables: it keeps its
        # indicator, which the fragment gate refuses.
        ground = Atom(P, (0,))
        with pytest.raises(UnsupportedSentenceError, match="constants"):
            partition_function(Mln.of([(ground, 0.5)], [P]), Domain(2))
        with pytest.raises(UnsupportedSentenceError, match="constants"):
            count_distribution(Mln.of([], [P]), CountSpec.of([ground]),
                               Domain(2))

    def test_partition_after_translation(self):
        mln = Mln.of([(Atom(P, (X,)), math.log(2))], [P])
        assert partition_function(mln, Domain(3)) == pytest.approx(27)

    def test_fresh_names_skip_declared_ones(self):
        # Declared predicates take the first name of every fresh prefix:
        # xi (soft indicators), xb (count indicators), def (definitions)
        # and sk (Skolem predicates).
        xi, sk, xb, d = (Predicate("xi0", 1), Predicate("sk0", 2),
                         Predicate("xb0", 1), Predicate("def0", 1))
        xi_x, xb_x, d_x, d_y = (Atom(xi, (X,)), Atom(xb, (X,)),
                                Atom(d, (X,)), Atom(d, (Y,)))
        mln = Mln.of([
            (ForAll(X, Exists(Y, Atom(sk, (X, Y)))), math.inf),
            (Or(d_x, Exists(Y, Atom(sk, (Y, X)))), math.inf),
            (And(xi_x, xb_x), 0.3),
            (Implies(Atom(sk, (X, Y)), d_y), -0.7),
        ], [xi, sk, xb, d])
        n = Domain(3)
        compiled = lifted.compile_theory(translate_mln(mln)[0])
        assert " ".join(p.name for p in compiled.vocabulary) == \
            "xi0 sk0 xb0 def0 xi1 xi2 def1 sk1 sk2"
        assert partition_function(mln, n) == pytest.approx(
            brute_mln_partition(mln, n), rel=1e-12)
        query = Exists(X, And(xi_x, d_x))
        assert marginal(mln, query, n) == pytest.approx(
            brute_mln_marginal(mln, query, n), abs=1e-12)
        psi = [Or(xi_x, d_x)]
        dist = count_distribution(mln, CountSpec.of(psi), n)
        want = np.zeros(dist.shape)
        for counts, p in brute_count_distribution(mln, psi, n).items():
            want[counts] = p
        assert np.max(np.abs(dist.probabilities - want)) <= 1e-12


class TestPartition:
    def test_empty_unary(self):
        assert partition_function(Mln.of([], [P]), Domain(5)) == 32

    def test_big_int_term_meeting_a_float_is_typed(self):
        # f has no weight, so its pair weight is the int 4; p's weights are
        # floats, so the sum raises it as a float power, and 4^780 at n = 40
        # passes the power check.  At n = 30 (4^435) it still fits.
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P, F])
        assert partition_function(mln, Domain(30)) == pytest.approx(
            (1 + math.exp(0.5)) ** 30 * 2.0 ** 900, rel=1e-12)
        with pytest.raises(NumericOverflowError,
                           match="a weight's power exceeds MAGNITUDE_LIMIT"):
            partition_function(mln, Domain(40))

    def test_zero_weight_counts_worlds(self):
        mln = Mln.of([(Atom(P, (X,)), 0.0)], [P])
        assert partition_function(mln, Domain(4)) == pytest.approx(16)

    def test_hard_only(self):
        mln = Mln.of([(TOTALITY, math.inf)], [F])
        assert partition_function(mln, Domain(2)) == 9

    def test_zero_partition_reported(self):
        contradiction = ForAll(X, Not(Atom(P, (X,))))
        mln = Mln.of([(Exists(X, Atom(P, (X,))), math.inf),
                      (contradiction, math.inf)], [P])
        with pytest.raises(InfeasibleConstraintError):
            partition_function(mln, Domain(3))

    @pytest.mark.parametrize("query", [
        lambda mln, d: partition_function(mln, d),
        lambda mln, d: marginal(mln, Exists(X, Atom(P, (X,))), d),
        lambda mln, d: count_distribution(mln, CountSpec.of([Atom(P, (X,))]),
                                          d),
    ], ids=["partition_function", "marginal", "count_distribution"])
    def test_negative_partition_is_a_residue_error(self, query, monkeypatch):
        # A negative float count is a numeric fault, not an empty model,
        # whichever query divides by it.
        monkeypatch.setattr(CompiledTheory, "wfomc",
                            lambda *args: (-1.0, 1.0))
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P])
        with pytest.raises(NumericResidueError,
                           match="negative.*COUNT_IMAG_TOL=1e-09"):
            query(mln, Domain(3))

    def test_invariant_under_predicate_renaming(self):
        q = Predicate("zz", 1)
        a = Mln.of([(Atom(P, (X,)), 0.4)], [P])
        b = Mln.of([(Atom(q, (X,)), 0.4)], [q])
        assert partition_function(a, Domain(3)) == \
            pytest.approx(partition_function(b, Domain(3)))

    def test_invariant_under_formula_permutation(self):
        f1 = (Atom(P, (X,)), 0.3)
        f2 = (Implies(Atom(F, (X, Y)), Atom(P, (X,))), -0.2)
        a = Mln.of([f1, f2], [P, F])
        b = Mln.of([f2, f1], [P, F])
        assert partition_function(a, Domain(2)) == \
            pytest.approx(partition_function(b, Domain(2)))

    def test_matches_brute_reference(self):
        rng = random.Random(31)
        for _ in range(15):
            mln, _, d = random_feasible_mln(rng)
            lifted = partition_function(mln, d)
            brute = brute_mln_partition(mln, d)
            assert float(lifted) == pytest.approx(brute, rel=1e-9)


class TestMarginal:
    def test_uniform_exists(self):
        assert marginal(Mln.of([], [P]), Exists(X, Atom(P, (X,))),
                        Domain(1)) == pytest.approx(0.5)

    def test_uniform_forall(self):
        assert marginal(Mln.of([], [P]), ForAll(X, Atom(P, (X,))),
                        Domain(3)) == pytest.approx(1 / 8)

    def test_weighted_exists(self):
        mln = Mln.of([(Atom(P, (X,)), math.log(2))], [P])
        assert marginal(mln, Exists(X, Atom(P, (X,))), Domain(1)) == \
            pytest.approx(2 / 3)

    def test_open_query_rejected(self):
        with pytest.raises(UnsupportedSentenceError):
            marginal(Mln.of([], [P]), Atom(P, (X,)), Domain(2))

    def test_complementary_queries_sum_to_one(self):
        rng = random.Random(77)
        queries = [Exists(X, Atom(P, (X,))), ForAll(X, Atom(P, (X,))),
                   Exists(X, Exists(Y, Atom(F, (X, Y))))]
        mln = Mln.of([(Atom(P, (X,)), 0.5),
                      (Implies(Atom(F, (X, Y)), Atom(P, (Y,))), -0.3)], [P, F])
        for gamma in queries:
            total = marginal(mln, gamma, Domain(2)) + \
                marginal(mln, Not(gamma), Domain(2))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_weight_formula_changes_nothing(self):
        gamma = Exists(X, Atom(P, (X,)))
        base = Mln.of([(Atom(P, (X,)), 0.7)], [P])
        padded = Mln.of([(Atom(P, (X,)), 0.7),
                         (ForAll(X, Atom(P, (X,))), 0.0)], [P])
        assert marginal(base, gamma, Domain(3)) == \
            pytest.approx(marginal(padded, gamma, Domain(3)), abs=1e-9)

    def test_matches_brute_reference(self):
        rng = random.Random(13)
        gamma = Exists(X, Atom(P, (X,)))
        for _ in range(10):
            mln, _, d = random_feasible_mln(rng)
            if not any(p.name == "u0" for p in mln.vocabulary):
                continue
            g = Exists(X, Atom(Predicate("u0", 1), (X,)))
            assert marginal(mln, g, d) == \
                pytest.approx(brute_mln_marginal(mln, g, d), abs=1e-9)

    def test_hard_constraint_zeroes_violating_worlds(self):
        # Normalized world masses: every world violating the hard formula
        # carries zero probability in the brute reference, and the engine's
        # marginal of the hard formula itself is exactly one.
        mln = Mln.of([(TOTALITY, math.inf)], [F])
        assert marginal(mln, TOTALITY, Domain(2)) == pytest.approx(1.0)
        assert marginal(mln, Not(TOTALITY), Domain(2)) == pytest.approx(0.0)


class TestOneCompilePerUnaryQuery:
    """A ``forall x m`` or ``exists x m`` query is counted on the model's
    own compiled tables; other queries compile the model with the query."""

    @pytest.mark.parametrize("query, compiles", [
        (Exists(X, Atom(P, (X,))), 1),
        (ForAll(X, Implies(Atom(P, (X,)), Atom(F, (X, X)))), 1),
        (Not(ForAll(X, Not(Atom(F, (X, X))))), 1),
        (TOTALITY, 2),
        (ForAll(X, ForAll(Y, Atom(F, (X, Y)))), 2),
    ], ids=["exists", "forall", "negated-forall", "forall-exists", "binary"])
    def test_compile_calls(self, monkeypatch, query, compiles):
        calls = {"compile": 0, "wfomc": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lifted, "compile_theory",
                            counted("compile", lifted.compile_theory))
        monkeypatch.setattr(lifted.CompiledTheory, "wfomc",
                            counted("wfomc", lifted.CompiledTheory.wfomc))
        mln = Mln.of([(Implies(Atom(P, (X,)), Atom(F, (X, Y))), 0.7),
                      (Atom(F, (X, X)), -0.4)], [P, F])
        p = marginal(mln, query, Domain(3))
        assert calls == {"compile": compiles, "wfomc": 2}
        assert p == pytest.approx(
            brute_mln_marginal(mln, query, Domain(3)), rel=1e-9)

    @pytest.mark.parametrize("query", [
        ForAll(X, Atom(F, (X, Y))), Exists(X, Atom(P, (Y,)))])
    def test_open_unary_shaped_query_rejected(self, query):
        with pytest.raises(UnsupportedSentenceError):
            marginal(Mln.of([(Atom(P, (X,)), 0.5)], [P, F]), query,
                     Domain(2))

    @pytest.mark.parametrize("query", [
        ForAll(X, Atom(Q, (X,))), Exists(X, Or(Atom(P, (X,)), Atom(Q, (X,))))])
    def test_undeclared_unary_query_rejected(self, query):
        with pytest.raises(VocabularyError, match="q/1"):
            marginal(Mln.of([(Atom(P, (X,)), 0.5)], [P]), query, Domain(2))


class TestProbabilityRange:
    @pytest.mark.parametrize("weight,n", [(-6, 8), (-10, 30)])
    def test_skolem_cancellation_raises_instead_of_returning(self, weight, n):
        # Double-precision cancellation between the (1, -1) Skolem weights
        # drives the loop marginal of total relations to -22.7 (w = -6,
        # n = 8) and -7.0e8 (w = -10, n = 30).  The reciprocal term ties
        # f(x,y) to f(y,x), so the pair rows are not products and their
        # cells do not collapse.
        mln = Mln.of([(TOTALITY, math.inf), (Atom(F, (X, Y)), weight),
                      (And(Atom(F, (X, Y)), Atom(F, (Y, X))), 0.1)], [F])
        with pytest.raises(NumericResidueError,
                           match="outside CANCEL_LIMIT=1e\\+12"):
            marginal(mln, Exists(X, Atom(F, (X, X))), Domain(n))

    def test_cancelled_partition_function_raises(self):
        # The same model's Z is a sum of terms 9e15 times its size, so
        # double precision has no digit of it left.
        mln = Mln.of([(TOTALITY, math.inf), (Atom(F, (X, Y)), -6),
                      (And(Atom(F, (X, Y)), Atom(F, (Y, X))), 0.1)], [F])
        with pytest.raises(NumericResidueError,
                           match="outside CANCEL_LIMIT=1e\\+12"):
            partition_function(mln, Domain(8))

    def test_round_off_excursions_are_clamped(self):
        assert as_probability(-1e-12, "p") == 0.0
        assert as_probability(1 + 1e-12, "p") == 1.0
        assert as_probability(0.25, "p") == 0.25
        for bad in (-1e-8, 1 + 1e-8, float("nan")):
            with pytest.raises(NumericResidueError,
                               match="outside .*PROB_TOL=1e-09"):
                as_probability(bad, "p")


def _soft_total(weight):
    return Mln.of([(TOTALITY, math.inf), (Atom(F, (X, Y)), weight)], [F])


class TestSoftTotality:
    # Total relations with a soft f(x,y): the outer label sums the (1, -1)
    # Skolem weights inside its weight, (1 + e^w)^n - 1, so Z keeps its
    # digits where the composition sum cancelled to noise.
    @pytest.mark.parametrize("weight,n", [(w, n) for w in (-10, -6)
                                          for n in (10, 20, 30)]
                             + [(0.5, 10), (0.5, 20)])
    def test_partition_function_matches_closed_form(self, weight, n):
        a = Fraction(math.exp(weight))
        want = ((1 + a) ** n - 1) ** n
        got = partition_function(_soft_total(weight), Domain(n))
        assert got > 0
        assert abs(Fraction(got) / want - 1) <= 1e-9

    # The loop's existential is counted by its complement, so its count
    # keeps its digits at every n.
    @pytest.mark.parametrize("weight,n", [(-6, 8), (-10, 10), (-6, 30),
                                          (-10, 30), (-6, 60), (-10, 60)])
    def test_loop_marginal_matches_closed_form(self, weight, n):
        a = Fraction(math.exp(weight))
        miss = ((1 + a) ** (n - 1) - 1) / ((1 + a) ** n - 1)
        got = marginal(_soft_total(weight), Exists(X, Atom(F, (X, X))),
                       Domain(n))
        assert abs(Fraction(got) / (1 - miss ** n) - 1) <= 1e-11


class TestSoftClosedFormulas:
    # Weighted sentences go through nullary indicator predicates and
    # top-level conditioning in the lifted pipeline.
    def test_partition_matches_brute(self):
        cases = [
            Mln.of([(Exists(X, Atom(P, (X,))), 0.8)], [P]),
            Mln.of([(TOTALITY, -0.5)], [F]),
            Mln.of([(ForAll(X, Atom(P, (X,))), 1.2),
                    (Exists(X, Atom(P, (X,))), -0.7)], [P]),
        ]
        for mln in cases:
            for n in (1, 2, 3):
                lifted = float(partition_function(mln, Domain(n)))
                brute = brute_mln_partition(mln, Domain(n))
                assert lifted == pytest.approx(brute, rel=1e-9)

    def test_marginal_matches_brute(self):
        mln = Mln.of([(ForAll(X, Atom(P, (X,))), 1.2),
                      (Exists(X, Atom(P, (X,))), -0.7)], [P])
        gamma = Exists(X, Atom(P, (X,)))
        assert marginal(mln, gamma, Domain(2)) == \
            pytest.approx(brute_mln_marginal(mln, gamma, Domain(2)), abs=1e-9)


def _law(mln, psi, d, tilts):
    """The tilted count law and its normalizer, one world at a time."""
    law = {}
    for world in enumerate_worlds(mln.vocabulary, d):
        counts = count_statistics(psi, world, d)
        mass = world_mass(mln, world, d) * math.exp(
            sum(t * k for t, k in zip(tilts, counts)))
        law[counts] = law.get(counts, 0.0) + mass
    z = math.fsum(law.values())
    return {k: m / z for k, m in law.items()}, z


PX, QX = Atom(P, (X,)), Atom(Q, (X,))
FXY, FYX, FXX = Atom(F, (X, Y)), Atom(F, (Y, X)), Atom(F, (X, X))
RULE = ForAll(X, ForAll(Y, Implies(FXY, PX)))


class TestLiteralsAgainstOracle:
    """Models whose soft or count formulas are literals, counted by their
    own predicates' weights, against world-by-world references."""

    CASES = {
        "soft-negated": (
            [(Not(PX), 0.8), (Or(PX, QX), -0.4)], [P, Q],
            [QX], Exists(X, And(PX, QX)), 3),
        "two-soft-on-one-atom": (
            [(PX, 0.7), (PX, -1.1), (Not(PX), 0.4), (Implies(PX, QX), 0.5)],
            [P, Q], [PX, QX], ForAll(X, QX), 3),
        "soft-swapped-binary": (
            [(FYX, 0.6), (RULE, math.inf), (Atom(F, (X, X)), -0.3)], [P, F],
            [FXY, PX], Exists(X, Atom(F, (X, X))), 2),
        "nullary-soft": (
            [(Atom(R, ()), 1.2), (Implies(Atom(R, ()), Exists(X, PX)),
                                  math.inf)], [P, R],
            [PX, Atom(R, ())], ForAll(X, PX), 3),
        "count-atom-with-soft-weight": (
            [(FXY, -0.5), (RULE, math.inf), (PX, 0.9)], [P, F],
            [PX, FXY], Exists(X, PX), 2),
        "repeated-count-atom": (
            [(And(PX, QX), 0.5), (PX, -0.2)], [P, Q],
            [PX, PX], Exists(X, QX), 3),
        "negated-count-atom": (
            [(PX, 0.3), (Iff(PX, QX), 0.6)], [P, Q],
            [Not(PX), QX], ForAll(X, Or(PX, QX)), 3),
        "reflexive-count-weighs-diagonal": (
            [(FXX, 0.5), (FXY, -0.7)], [F],
            [FXX, FYX], Exists(X, FXX), 2),
        "negated-reflexive-soft": (
            [(Not(FXX), 0.7), (PX, -0.2), (RULE, math.inf)], [P, F],
            [Not(FXX), PX], ForAll(X, Or(PX, FXX)), 3),
        "reflexive-soft-and-count-with-binary": (
            [(FXX, 0.9), (Not(FXX), -0.3), (FXY, -0.6)], [F],
            [FXX, FXY], ForAll(X, FXX), 3),
        "reflexive-over-y": (
            [(Atom(F, (Y, Y)), 0.8), (TOTALITY, math.inf)], [F],
            [Atom(F, (Y, Y))], Exists(X, FXX), 3),
    }

    @pytest.fixture(params=list(CASES), ids=list(CASES))
    def case(self, request):
        formulas, vocab, psi, gamma, n = self.CASES[request.param]
        return Mln.of(formulas, vocab), psi, gamma, Domain(n)

    def test_partition_and_marginal(self, case):
        mln, _, gamma, d = case
        assert float(partition_function(mln, d)) == pytest.approx(
            brute_mln_partition(mln, d), rel=1e-12)
        assert marginal(mln, gamma, d) == pytest.approx(
            brute_mln_marginal(mln, gamma, d), abs=1e-12)

    @pytest.mark.parametrize("tilted", [False, True],
                             ids=["untilted", "tilted"])
    def test_count_law(self, case, tilted):
        mln, psi, _, d = case
        tilts = [0.4, -0.7][:len(psi)] if tilted else [0.0] * len(psi)
        dist = count_distribution(mln, CountSpec.of(psi), d,
                                  tilts=tilts if tilted else None)
        want, z = _law(mln, CountSpec.of(psi), d, tilts)
        grid = np.zeros(dist.shape)
        for counts, p in want.items():
            grid[counts] = p
        assert np.max(np.abs(dist.probabilities - grid)) <= 1e-12
        assert dist.normalizer == pytest.approx(z, rel=1e-12)
