import math
import random
from pathlib import Path

import numpy as np
import pytest

from mlncount import (
    And, Atom, Domain, Eq, Equals, Exists, ForAll, FunctionConstraint, Iff,
    Implies, Mln, Predicate, TautologyTrue, Var, analytic_fixed_points,
    constrained_marginal, constrained_partition, count_distribution,
    fixed_point_distribution, full_spectrum, lifted, parse_model,
    rewrite_function_constraints, spectrum,
)
from mlncount.brute import (
    brute_constrained_marginal, brute_constrained_partition,
)
from mlncount.constraints import (
    Between, CardinalityConstraint, Conjunction, CustomPredicate,
)
from mlncount.errors import (
    InfeasibleConstraintError, NumericResidueError, UnsupportedSentenceError,
)
from mlncount.spectrum import CountDistribution, CountSpec

from helpers import (
    count_true_groundings, enumerate_worlds, evaluate, random_feasible_mln,
    world_mass,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
P = Predicate("p", 1)
R = Predicate("r", 2)
TOTALITY = ForAll(X, Exists(Y, Atom(R, (X, Y))))


def literal_function_property(d):
    """Func(R) spelled out: totality plus the three-variable uniqueness
    clause, evaluated only by exhaustive enumeration."""
    uniqueness = ForAll(X, ForAll(Y, ForAll(Z, Implies(
        And(Atom(R, (X, Y)), Atom(R, (X, Z))), Eq(Y, Z)))))
    return And(TOTALITY, uniqueness)


class TestCardinalityPredicates:
    def test_equals(self):
        g = Equals(0, 3)
        assert g((3, 7)) and not g((2, 7))

    def test_between(self):
        g = Between(1, 2, 4)
        assert g((0, 2)) and g((0, 4)) and not g((0, 5))

    def test_conjunction(self):
        g = Conjunction((Equals(0, 1), Between(1, 0, 2)))
        assert g((1, 2)) and not g((1, 3)) and not g((0, 0))

    def test_tautology(self):
        assert TautologyTrue()((5, 5, 5))

    def test_custom_escape_hatch(self):
        g = CustomPredicate(lambda v: sum(v) % 2 == 0)
        assert g((1, 1)) and not g((1, 0))

    def test_dimension_checked(self):
        psi = CountSpec.of([Atom(P, (X,))])
        with pytest.raises(ValueError):
            CardinalityConstraint(psi, Equals(1, 0))


class TestConstrainedPartition:
    def test_vacuous_constraint_equals_partition(self):
        from mlncount import partition_function
        mln = Mln.of([(Atom(P, (X,)), 0.4)], [P])
        cc = CardinalityConstraint(CountSpec.of([Atom(P, (X,))]),
                                   TautologyTrue())
        assert constrained_partition(mln, cc, Domain(3)) == \
            pytest.approx(float(partition_function(mln, Domain(3))))

    @pytest.mark.parametrize("n", [3, 4])
    def test_function_count(self, n):
        mln = Mln.of([(TOTALITY, math.inf)], [R])
        cc = CardinalityConstraint(CountSpec.of([Atom(R, (X, Y))]),
                                   Equals(0, n))
        got = constrained_partition(mln, cc, Domain(n))
        assert got == pytest.approx(n ** n, rel=1e-9)

    def test_unsatisfiable_constraint_reported(self):
        mln = Mln.of([], [P])
        cc = CardinalityConstraint(CountSpec.of([Atom(P, (X,))]),
                                   Equals(0, 5))
        with pytest.raises(InfeasibleConstraintError):
            constrained_partition(mln, cc, Domain(2))

    def test_matches_brute(self):
        rng = random.Random(88)
        for _ in range(8):
            mln, psi, d = random_feasible_mln(rng)
            total = d.size ** 2
            g = Between(0, 0, rng.randint(1, total))
            cc = CardinalityConstraint(CountSpec.of(psi), g)
            try:
                engine = constrained_partition(mln, cc, d)
            except InfeasibleConstraintError:
                brute = brute_constrained_partition(mln, psi, g, d)
                assert brute == pytest.approx(0.0, abs=1e-12)
                continue
            brute = brute_constrained_partition(mln, psi, g, d)
            assert engine == pytest.approx(brute, rel=1e-8)


class TestConstrainedMarginal:
    def test_vacuous_equals_plain_marginal(self):
        from mlncount import marginal
        mln = Mln.of([(Atom(P, (X,)), 0.25)], [P])
        gamma = Exists(X, Atom(P, (X,)))
        cc = CardinalityConstraint(CountSpec.of([Atom(P, (X,))]),
                                   TautologyTrue())
        assert constrained_marginal(mln, cc, gamma, Domain(3)) == \
            pytest.approx(marginal(mln, gamma, Domain(3)), abs=1e-9)

    def test_tautological_query(self):
        mln = Mln.of([], [P])
        gamma = ForAll(X, Iff(Atom(P, (X,)), Atom(P, (X,))))
        cc = CardinalityConstraint(CountSpec.of([Atom(P, (X,))]),
                                   Between(0, 0, 3))
        assert constrained_marginal(mln, cc, gamma, Domain(2)) == \
            pytest.approx(1.0)

    def test_exact_count_forces_query(self):
        # Uniform worlds over one unary predicate, exactly one true atom:
        # both surviving worlds satisfy the existential query.
        mln = Mln.of([], [P])
        cc = CardinalityConstraint(CountSpec.of([Atom(P, (X,))]), Equals(0, 1))
        gamma = Exists(X, Atom(P, (X,)))
        assert constrained_marginal(mln, cc, gamma, Domain(2)) == \
            pytest.approx(1.0)

    def test_open_query_is_refused(self):
        # An open query's extra axis would count its true groundings, not
        # its truth; the gate of the plain marginal refuses it.
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P])
        cc = CardinalityConstraint(CountSpec.of([Atom(P, (X,))]),
                                   Between(0, 0, 3))
        with pytest.raises(UnsupportedSentenceError, match="free variables"):
            constrained_marginal(mln, cc, Atom(P, (X,)), Domain(4))

    @pytest.mark.parametrize("masses,want", [
        ([[-1e-12, 1.0]], 1.0), ([[0.5, -1e-12]], 0.0),
        ([[-0.5, 1.5]], None), ([[1.5, -0.5]], None)])
    def test_probability_range(self, monkeypatch, masses, want):
        # Grid axes: the count of p (0 or 1 at one element), then the
        # query's truth; the count-1 row is empty.
        monkeypatch.setattr(
            "mlncount.constraints.count_distribution",
            lambda *args, **kwargs: CountDistribution(
                np.array(masses + [[0.0, 0.0]])))
        mln = Mln.of([], [P])
        cc = CardinalityConstraint(CountSpec.of([Atom(P, (X,))]),
                                   CustomPredicate(lambda v: True))
        gamma = Exists(X, Atom(P, (X,)))
        if want is None:
            with pytest.raises(NumericResidueError,
                               match="outside .*PROB_TOL=1e-09"):
                constrained_marginal(mln, cc, gamma, Domain(1))
        else:
            assert constrained_marginal(mln, cc, gamma, Domain(1)) == want

    def test_matches_brute(self):
        rng = random.Random(21)
        checked = 0
        while checked < 6:
            mln, psi, d = random_feasible_mln(rng)
            unaries = [p for p in mln.vocabulary if p.arity == 1]
            if not unaries:
                continue
            gamma = Exists(X, Atom(unaries[0], (X,)))
            g = Between(0, 0, rng.randint(1, d.size ** 2))
            cc = CardinalityConstraint(CountSpec.of(psi), g)
            try:
                engine = constrained_marginal(mln, cc, gamma, d)
            except InfeasibleConstraintError:
                continue
            brute = brute_constrained_marginal(mln, psi, g, gamma, d)
            assert engine == pytest.approx(brute, abs=1e-8)
            checked += 1


class TestRewriteFunctionConstraints:
    def test_single_constraint(self):
        sentences, cc = rewrite_function_constraints(
            [FunctionConstraint(R)], Domain(3))
        assert sentences == [TOTALITY]
        assert cc.predicate == Equals(0, 3)
        assert cc.psi.formulas == (Atom(R, (X, Y)),)

    def test_empty_list(self):
        sentences, cc = rewrite_function_constraints([], Domain(3))
        assert sentences == [] and cc is None

    def test_two_constraints_conjoin(self):
        h = Predicate("h", 2)
        sentences, cc = rewrite_function_constraints(
            [FunctionConstraint(R), FunctionConstraint(h)], Domain(2))
        assert len(sentences) == 2
        assert cc.predicate == Conjunction((Equals(0, 2), Equals(1, 2)))

    def test_arity_validated(self):
        with pytest.raises(ValueError):
            FunctionConstraint(P)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rewriting_matches_literal_semantics(self, n):
        # Set equality of the two formulations, at exhaustive scale.
        d = Domain(n)
        literal = literal_function_property(d)
        mln = Mln.of([(TOTALITY, math.inf)], [R])
        satisfied = sum(
            1 for w in enumerate_worlds([R], d)
            if evaluate(literal, w, d))
        assert satisfied == n ** n


class TestFunctionEquivalenceExhaustive:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_world_sets_coincide(self, n):
        d = Domain(n)
        literal = literal_function_property(d)
        for w in enumerate_worlds([R], d):
            lhs = evaluate(literal, w, d)
            rhs = (evaluate(TOTALITY, w, d)
                   and count_true_groundings(Atom(R, (X, Y)), w, d) == n)
            assert lhs == rhs


class TestRatioPreservation:
    def test_constrained_ratios_match_unconstrained(self):
        # For worlds kept by the predicate, pairwise probability ratios are
        # untouched by constraining.
        mln = Mln.of([(Atom(P, (X,)), 0.8),
                      (Atom(R, (X, Y)), -0.3)], [P, R])
        d = Domain(2)
        psi = [Atom(P, (X,))]
        g = Between(0, 1, 2)
        mass = {w: world_mass(mln, w, d)
                for w in enumerate_worlds(mln.vocabulary, d)}
        worlds = [w for w in mass
                  if g(tuple([count_true_groundings(psi[0], w, d)]))
                  and mass[w] > 0]
        z = sum(mass.values())
        z_prime = brute_constrained_partition(mln, psi, g, d)
        for w1 in worlds[:6]:
            for w2 in worlds[:6]:
                plain = (mass[w1] / z) / (mass[w2] / z)
                constrained = (mass[w1] / z_prime) / (mass[w2] / z_prime)
                assert constrained == pytest.approx(plain, rel=1e-12)


class TestFixedPoints:
    def test_analytic_base_cases(self):
        assert analytic_fixed_points(1, 1) == 1.0
        assert analytic_fixed_points(1, 0) == 0.0
        assert [analytic_fixed_points(2, k) for k in range(3)] == \
            [0.25, 0.5, 0.25]

    def test_analytic_matches_direct_enumeration_n3(self):
        # all 27 functions on three elements, counted by fixed points
        counts = [0] * 4
        for f0 in range(3):
            for f1 in range(3):
                for f2 in range(3):
                    fixed = (f0 == 0) + (f1 == 1) + (f2 == 2)
                    counts[fixed] += 1
        for k in range(4):
            assert analytic_fixed_points(3, k) == pytest.approx(counts[k] / 27)

    @pytest.mark.parametrize("n", list(range(1, 17)))
    def test_engine_matches_analytic(self, n):
        probs = fixed_point_distribution(n)
        tol = 1e-14 if n <= 10 else 1e-12
        for k in range(n + 1):
            assert probs[k] == pytest.approx(analytic_fixed_points(n, k),
                                             abs=tol)

    def test_distribution_sums_to_one(self):
        for n in (1, 4, 10):
            assert math.fsum(fixed_point_distribution(n)) == \
                pytest.approx(1.0, abs=1e-9)

    def test_literal_untilted_construction_agrees_at_small_n(self):
        # The untilted count grid of totality, read at the row |f| = n.
        mln = Mln.of([(TOTALITY, math.inf)], [R])
        psi = CountSpec.of([Atom(R, (X, Y)), Atom(R, (X, X))])
        for n in (2, 3, 4):
            row = count_distribution(mln, psi, Domain(n)).probabilities[n]
            assert np.allclose(fixed_point_distribution(n), row / row.sum(),
                               atol=1e-9)


class TestResidueCertificate:
    """Kept mass at the transform's round-off floor raises instead of
    returning round-off."""

    def test_hard_atoms_against_empty_count(self):
        # Every world has np = 3, so nothing at np == 0 has mass.
        mln = Mln.of([(Atom(P, (X,)), math.inf)], [P])
        cc = CardinalityConstraint(CountSpec.of([Atom(P, (X,))]),
                                   Equals(0, 0))
        gamma = Exists(X, Atom(P, (X,)))
        with pytest.raises(NumericResidueError, match="RESOLVE_LIMIT=10000"):
            constrained_partition(mln, cc, Domain(3))
        with pytest.raises(NumericResidueError, match="RESOLVE_LIMIT=10000"):
            constrained_marginal(mln, cc, gamma, Domain(3))

    @pytest.mark.parametrize("n", [60, 65, 140])
    def test_unresolved_function_count_raises(self, n):
        sentences, cc = rewrite_function_constraints([FunctionConstraint(R)],
                                                     Domain(n))
        mln = Mln.of([(s, math.inf) for s in sentences], [R])
        with pytest.raises(NumericResidueError, match="RESOLVE_LIMIT=10000"):
            constrained_partition(mln, cc, Domain(n))

    def test_resolved_function_count_is_right(self):
        sentences, cc = rewrite_function_constraints([FunctionConstraint(R)],
                                                     Domain(40))
        mln = Mln.of([(s, math.inf) for s in sentences], [R])
        assert constrained_partition(mln, cc, Domain(40)) == \
            pytest.approx(40 ** 40, rel=1e-4)


class TestTiltFromKeptSet:
    """The tilt is read off the kept grid points, so predicates that keep
    the same count vectors give the same answer, bit for bit."""

    TOTAL = Mln.of([(TOTALITY, math.inf)], [R])
    SPELLINGS = [
        Equals(0, 10),
        CustomPredicate(lambda v: v[0] == 10),
        Conjunction((Between(0, 0, 100), Equals(0, 10))),
        Conjunction((Equals(0, 10), Between(0, 0, 100))),
    ]

    def test_spellings_of_one_kept_row_agree(self):
        d = Domain(10)
        gamma = Exists(X, Atom(R, (X, X)))
        answers = set()
        for g in self.SPELLINGS:
            cc = CardinalityConstraint(CountSpec.of([Atom(R, (X, Y))]), g)
            answers.add((constrained_partition(self.TOTAL, cc, d),
                         constrained_marginal(self.TOTAL, cc, gamma, d)))
        assert len(answers) == 1
        (z, p), = answers
        assert z == pytest.approx(10 ** 10, rel=1e-12)
        assert p == pytest.approx(1 - 0.9 ** 10, rel=1e-12)

    @pytest.mark.parametrize("n", [10, 40, 200])
    def test_range_past_the_axis_end_is_vacuous(self, n):
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P])
        psi = CountSpec.of([Atom(P, (X,))])
        gamma = Exists(X, Atom(P, (X,)))
        got, want = (
            (constrained_partition(mln, cc, Domain(n)),
             constrained_marginal(mln, cc, gamma, Domain(n)))
            for cc in (CardinalityConstraint(psi, Between(0, 0, 10 ** 6)),
                       CardinalityConstraint(psi, TautologyTrue())))
        assert got == want

    def test_wide_one_sided_range_is_aimed_off_its_mass(self):
        # Uniform r at n = 25: the count law peaks at 312, so the kept mass
        # of 0..150 sits at its top, while the tilt aims at the middle of
        # the span, 75; the kept rows land at the round-off floor and
        # raise.  140..150 is aimed near its mass and answers exactly.
        mln, d = Mln.of([], [R]), Domain(25)
        psi = CountSpec.of([Atom(R, (X, Y))])
        gamma = Exists(X, Atom(R, (X, X)))
        with pytest.raises(NumericResidueError, match="RESOLVE_LIMIT=10000"):
            constrained_partition(
                mln, CardinalityConstraint(psi, Between(0, 0, 150)), d)
        cc = CardinalityConstraint(psi, Between(0, 140, 150))
        z = sum(math.comb(625, k) for k in range(140, 151))
        none = sum(math.comb(600, k) for k in range(140, 151))
        assert constrained_partition(mln, cc, d) == pytest.approx(
            z, rel=1e-9)
        assert constrained_marginal(mln, cc, gamma, d) == pytest.approx(
            1 - none / z, rel=1e-9)

    def test_empty_kept_set_is_refused_before_any_count(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("compiled a theory")

        monkeypatch.setattr(spectrum, "compile_theory", fail)
        mln = Mln.of([], [P])
        cc = CardinalityConstraint(CountSpec.of([Atom(P, (X,))]),
                                   Equals(0, 5))
        with pytest.raises(InfeasibleConstraintError):
            constrained_partition(mln, cc, Domain(3))
        with pytest.raises(InfeasibleConstraintError):
            constrained_marginal(mln, cc, Exists(X, Atom(P, (X,))),
                                 Domain(3))


FUNCTIONS3 = parse_model(
    str(Path(__file__).resolve().parents[1] / "models" / "functions3.mln"))
HAS_FIX = dict(FUNCTIONS3.queries)["has_fix"]


class TestOneCountPerQuery:
    """Each count query compiles one theory and makes one weighted count:
    the normalizer is the count at frequency zero, and the tilt rides on
    the weights that count the count formulas' true groundings, their own
    predicates' for literals."""

    @pytest.mark.parametrize("query", [
        lambda m: count_distribution(m.mln, m.count_spec, m.domain),
        lambda m: full_spectrum(m.mln, m.count_spec, m.domain),
        lambda m: constrained_partition(m.mln, m.cardinality, m.domain),
        lambda m: constrained_marginal(m.mln, m.cardinality, HAS_FIX,
                                       m.domain),
        lambda m: fixed_point_distribution(7),
    ], ids=["count_distribution", "full_spectrum",
            "constrained_partition", "constrained_marginal",
            "fixed_point_distribution"])
    def test_one_compile_and_one_count(self, monkeypatch, query):
        calls = {"compile": 0, "wfomc": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for owner in (spectrum, lifted):
            monkeypatch.setattr(owner, "compile_theory",
                                counted("compile", owner.compile_theory))
        monkeypatch.setattr(lifted.CompiledTheory, "wfomc",
                            counted("wfomc", lifted.CompiledTheory.wfomc))
        query(FUNCTIONS3)
        assert calls == {"compile": 1, "wfomc": 1}
