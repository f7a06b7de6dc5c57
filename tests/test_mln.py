import math
import random
from fractions import Fraction

import pytest

from mlncount import (
    And, Atom, CompiledTheory, CountSpec, Domain, Exists, ForAll, Iff,
    Implies, Mln, Not, Predicate, Var, brute_mln_marginal,
    brute_mln_partition, count_distribution, marginal, partition_function,
    translate_mln,
)
from mlncount.errors import (
    InfeasibleConstraintError, NumericResidueError, UnsupportedSentenceError,
)
from mlncount.mln import as_probability

from helpers import random_feasible_mln

X, Y = Var("x"), Var("y")
P = Predicate("p", 1)
F = Predicate("f", 2)
TOTALITY = ForAll(X, Exists(Y, Atom(F, (X, Y))))


class TestTranslate:
    def test_empty_mln(self):
        theory, w, wbar = translate_mln(Mln.of([], [P]))
        assert theory.sentences == ()
        assert w("p") == 1 and wbar("p") == 1

    def test_soft_formula_gets_indicator(self):
        mln = Mln.of([(Atom(P, (X,)), math.log(2))], [P])
        theory, w, wbar = translate_mln(mln)
        (sentence,) = theory.sentences
        assert isinstance(sentence, ForAll)
        assert isinstance(sentence.body, Iff)
        xi = sentence.body.left.pred
        assert xi.arity == 1
        assert w(xi.name) == pytest.approx(2)
        assert wbar(xi.name) == 1

    def test_hard_formula_is_closure_without_indicator(self):
        mln = Mln.of([(TOTALITY, math.inf)], [F])
        theory, w, wbar = translate_mln(mln)
        assert theory.sentences == (TOTALITY,)
        assert len(theory.vocabulary) == 1

    def test_partition_after_translation(self):
        mln = Mln.of([(Atom(P, (X,)), math.log(2))], [P])
        assert partition_function(mln, Domain(3)) == pytest.approx(27)


class TestPartition:
    def test_empty_unary(self):
        assert partition_function(Mln.of([], [P]), Domain(5)) == 32

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
        monkeypatch.setattr(CompiledTheory, "wfomc", lambda *args: -1.0)
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P])
        with pytest.raises(NumericResidueError, match="negative"):
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
        with pytest.raises(NumericResidueError, match="outside"):
            marginal(mln, Exists(X, Atom(F, (X, X))), Domain(n))

    def test_round_off_excursions_are_clamped(self):
        assert as_probability(-1e-12, "p") == 0.0
        assert as_probability(1 + 1e-12, "p") == 1.0
        assert as_probability(0.25, "p") == 0.25
        for bad in (-1e-8, 1 + 1e-8, float("nan")):
            with pytest.raises(NumericResidueError):
                as_probability(bad, "p")


def _soft_total(weight):
    return Mln.of([(TOTALITY, math.inf), (Atom(F, (X, Y)), weight)], [F])


class TestSoftTotality:
    # Total relations with a soft f(x,y): the collapsed table sums the
    # (1, -1) Skolem weights inside one cell weight, (1 + e^w)^n - 1, so Z
    # keeps its digits where the composition sum cancelled to noise.
    @pytest.mark.parametrize("weight,n", [(w, n) for w in (-10, -6)
                                          for n in (10, 20, 30)]
                             + [(0.5, 10), (0.5, 20)])
    def test_partition_function_matches_closed_form(self, weight, n):
        a = Fraction(math.exp(weight))
        want = ((1 + a) ** n - 1) ** n
        got = partition_function(_soft_total(weight), Domain(n))
        assert got > 0
        assert abs(Fraction(got) / want - 1) <= 1e-9

    @pytest.mark.parametrize("weight,n", [(-6, 8), (-10, 10)])
    def test_loop_marginal_matches_closed_form(self, weight, n):
        a = Fraction(math.exp(weight))
        miss = ((1 + a) ** (n - 1) - 1) / ((1 + a) ** n - 1)
        got = marginal(_soft_total(weight), Exists(X, Atom(F, (X, X))),
                       Domain(n))
        assert got == pytest.approx(float(1 - miss ** n), rel=1e-9)


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
