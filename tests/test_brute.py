import math
import random

import pytest

from mlncount import (
    Atom, Domain, Eq, Exists, ForAll, Iff, Mln, Not, Or, Predicate, TRUE, Var,
    WeightFunction, brute_mln_marginal, brute_mln_partition, brute_wfomc,
    enumerate_worlds,
)
from mlncount.brute import (
    atom_count, brute_constrained_marginal, brute_count_distribution,
    world_weight,
)
from mlncount.constraints import Equals
from mlncount.errors import BruteForceCapError, InfeasibleConstraintError

from helpers import naive_wfomc, random_theory, rel_close

X, Y = Var("x"), Var("y")
P = Predicate("p", 1)
Q = Predicate("q", 1)
F = Predicate("f", 2)
ONES = WeightFunction()


class TestEnumerateWorlds:
    def test_unary_three_elements(self):
        assert len(list(enumerate_worlds([P], Domain(3)))) == 8

    def test_binary_two_elements(self):
        assert len(list(enumerate_worlds([F], Domain(2)))) == 16

    def test_cap_exceeded(self):
        with pytest.raises(BruteForceCapError) as err:
            list(enumerate_worlds([F], Domain(6)))
        assert err.value.atom_count == 36

    def test_worlds_distinct_and_ordered(self):
        worlds = list(enumerate_worlds([P], Domain(2)))
        assert len({w.true_atoms for w in worlds}) == 4
        assert worlds[0].true_atoms == frozenset()
        assert worlds[-1].true_atoms == {Atom(P, (0,)), Atom(P, (1,))}

    def test_atom_count(self):
        assert atom_count([P, Q, F], Domain(4)) == 4 + 4 + 16


class TestBruteWfomc:
    def test_unconstrained_unary(self):
        assert brute_wfomc(TRUE, ONES, ONES, Domain(3), vocab=[P]) == 8

    def test_weighted_unary(self):
        w = WeightFunction({"p": 2})
        assert brute_wfomc(TRUE, w, ONES, Domain(3), vocab=[P]) == 27

    def test_totality_sentence(self):
        gamma = ForAll(X, Exists(Y, Atom(F, (X, Y))))
        assert brute_wfomc(gamma, ONES, ONES, Domain(2), vocab=[F]) == 9

    def test_unit_weights_give_integer_model_count(self):
        gamma = ForAll(X, Or(Atom(P, (X,)), Not(Atom(Q, (X,)))))
        value = brute_wfomc(gamma, ONES, ONES, Domain(3), vocab=[P, Q])
        assert isinstance(value, int)
        assert value == 27  # 3 allowed (p,q) combos per element

    def test_multiplicative_over_disjoint_vocabularies(self):
        g1 = Exists(X, Atom(P, (X,)))
        g2 = ForAll(X, Exists(Y, Atom(F, (X, Y))))
        d = Domain(2)
        w = WeightFunction({"p": 1.5, "f": 0.5 + 0.5j})
        joint = brute_wfomc([g1, g2], w, ONES, d, vocab=[P, F])
        left = brute_wfomc(g1, w, ONES, d, vocab=[P])
        right = brute_wfomc(g2, w, ONES, d, vocab=[F])
        assert rel_close(joint, complex(left) * complex(right))

    def test_conjugation_symmetry(self):
        gamma = ForAll(X, Exists(Y, Atom(F, (X, Y))))
        w = WeightFunction({"f": 0.8 - 0.3j})
        wbar = WeightFunction({"f": 0.2 + 0.1j})
        plain = brute_wfomc(gamma, w, wbar, Domain(2), vocab=[F])
        conj = brute_wfomc(gamma, w.conjugated(), wbar.conjugated(),
                           Domain(2), vocab=[F])
        assert rel_close(conj, complex(plain).conjugate())

    def test_splitting_identity_over_one_atom(self):
        # Summing over both truth values of one fixed atom reproduces the
        # total: WFOMC(G) = WFOMC(G & a) + WFOMC(G & !a).
        gamma = Exists(X, Atom(P, (X,)))
        w = WeightFunction({"p": 0.7 + 0.2j})
        d = Domain(3)
        fixed = Atom(P, (1,))
        total = brute_wfomc(gamma, w, ONES, d, vocab=[P])
        with_true = brute_wfomc([gamma, fixed], w, ONES, d, vocab=[P])
        with_false = brute_wfomc([gamma, Not(fixed)], w, ONES, d, vocab=[P])
        assert rel_close(complex(with_true) + complex(with_false), total)

    def test_matches_naive_world_sum(self):
        rng = random.Random(2024)
        for _ in range(25):
            theory, w, wbar = random_theory(rng)
            for n in (1, 2):
                d = Domain(n)
                fast = brute_wfomc(list(theory.sentences), w, wbar, d,
                                   vocab=theory.vocabulary)
                slow = naive_wfomc(theory.sentences, w, wbar, d,
                                   theory.vocabulary)
                assert rel_close(fast, slow), (theory, n)

    def test_truth_constant_inside_ground_tree(self):
        # Grounding leaves x = y as TRUE or FALSE under the Iff.
        s = ForAll(X, ForAll(Y, Iff(Eq(X, Y), Atom(F, (X, Y)))))
        w, wbar = WeightFunction({"f": 2}), WeightFunction({"f": 3})
        for n in (1, 2, 3):
            d = Domain(n)
            assert brute_wfomc(s, w, wbar, d, vocab=[F]) == \
                naive_wfomc([s], w, wbar, d, [F]) == 2 ** n * 3 ** (n * n - n)

    def test_world_weight(self):
        w = WeightFunction({"p": 2})
        wbar = WeightFunction({"p": 3})
        from mlncount import PossibleWorld
        wd = PossibleWorld(frozenset({Atom(P, (0,))}))
        assert world_weight(wd, w, wbar, [P], Domain(2)) == 6

    def test_cap_propagates(self):
        with pytest.raises(BruteForceCapError):
            brute_wfomc(TRUE, ONES, ONES, Domain(6), vocab=[F])


class TestMlnReferences:
    def test_partition_uniform(self):
        mln = Mln.of([], [P])
        assert brute_mln_partition(mln, Domain(5)) == pytest.approx(32)

    def test_partition_weighted(self):
        mln = Mln.of([(Atom(P, (X,)), math.log(2))], [P])
        assert brute_mln_partition(mln, Domain(3)) == pytest.approx(27)

    def test_hard_constraint_excludes_worlds(self):
        mln = Mln.of([(ForAll(X, Exists(Y, Atom(F, (X, Y)))), math.inf)], [F])
        assert brute_mln_partition(mln, Domain(2)) == pytest.approx(9)

    def test_marginal_uniform(self):
        mln = Mln.of([], [P])
        got = brute_mln_marginal(mln, Exists(X, Atom(P, (X,))), Domain(1))
        assert got == pytest.approx(0.5)

    def test_count_distribution_binomial(self):
        mln = Mln.of([], [P])
        dist = brute_count_distribution(mln, [Atom(P, (X,))], Domain(2))
        assert dist[(0,)] == pytest.approx(0.25)
        assert dist[(1,)] == pytest.approx(0.5)
        assert dist[(2,)] == pytest.approx(0.25)


class TestInfeasibleQueries:
    def test_contradictory_hard_formulas(self):
        mln = Mln.of([(Exists(X, Atom(P, (X,))), math.inf),
                      (ForAll(X, Not(Atom(P, (X,)))), math.inf)], [P])
        with pytest.raises(InfeasibleConstraintError):
            brute_mln_marginal(mln, Exists(X, Atom(P, (X,))), Domain(2))

    def test_constraint_keeps_nothing(self):
        mln = Mln.of([(Atom(P, (X,)), math.inf)], [P])
        with pytest.raises(InfeasibleConstraintError):
            brute_constrained_marginal(mln, [Atom(P, (X,))], Equals(0, 0),
                                       Exists(X, Atom(P, (X,))), Domain(2))
