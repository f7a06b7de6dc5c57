import math
import random
from pathlib import Path

import pytest

from mlncount import (
    Atom, Domain, Eq, Exists, ForAll, Iff, Mln, Not, Or, Predicate, TRUE, Var,
    WeightFunction, brute, brute_mln_marginal, brute_mln_partition,
    brute_wfomc, free_variables, marginal, parse_model_text,
    partition_function, translate_mln,
)
from mlncount.brute import (
    brute_constrained_marginal, brute_constrained_partition,
    brute_count_distribution,
)
from mlncount.constraints import Between, CustomPredicate, Equals
from mlncount.logic import diagonal, ground_atoms
from mlncount.errors import (
    BruteForceCapError, InfeasibleConstraintError, VocabularyError,
)

from helpers import (
    PossibleWorld, conjugated, count_true_groundings, enumerate_worlds,
    evaluate, naive_wfomc, random_feasible_mln, random_theory, rel_close,
    world_mass, world_weight,
)

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
        assert len(ground_atoms([P, Q, F], Domain(4))) == 4 + 4 + 16


class TestBruteWfomc:
    def test_unconstrained_unary(self):
        assert brute_wfomc(TRUE, ONES, ONES, Domain(3), vocab=[P]) == 8

    def test_weighted_unary(self):
        w = WeightFunction({"p": 2})
        assert brute_wfomc(TRUE, w, ONES, Domain(3), vocab=[P]) == 27

    def test_diagonal_weight(self):
        # Each f(e, e) carries the diagonal weight on top of f's: three
        # values per diagonal atom, two per other atom, at n = 2.
        w = WeightFunction({"f": 1, diagonal(F): 2})
        assert brute_wfomc(TRUE, w, ONES, Domain(2), vocab=[F]) == 36
        # A soft f(x,x) is translated onto that weight.
        mln = Mln.of([(Not(Atom(F, (X, X))), 0.7), (Atom(F, (X, Y)), -0.3)],
                     [F])
        theory, w, wbar = translate_mln(mln)
        assert brute_wfomc(list(theory.sentences), w, wbar, Domain(3),
                           vocab=theory.vocabulary) == pytest.approx(
            brute_mln_partition(mln, Domain(3)), rel=1e-12)

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
        conj = brute_wfomc(gamma, conjugated(w), conjugated(wbar),
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


class TestUndeclaredPredicates:
    def test_mln_partition(self):
        mln = Mln.of([(Atom(Q, (X,)), 0.5)], [P])
        with pytest.raises(VocabularyError, match="q/1"):
            brute_mln_partition(mln, Domain(2))

    def test_wfomc(self):
        with pytest.raises(VocabularyError, match="q/1"):
            brute_wfomc(Exists(X, Atom(Q, (X,))), ONES, ONES, Domain(2),
                        vocab=[P])


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12)


def _existential_closure(f):
    for v in sorted(free_variables(f), key=lambda v: v.name):
        f = Exists(v, f)
    return f


class TestAgainstPerWorldDefinition:
    def test_every_reference_equals_its_world_sum(self):
        # Each reference against the model's definition summed world by
        # world: mass, true-grounding counts and query truth per world.
        rng = random.Random(1313)
        for _ in range(30):
            mln, psi, d = random_feasible_mln(rng, max_atoms=10)
            query = _existential_closure(psi[0])
            worlds = list(enumerate_worlds(mln.vocabulary, d))
            mass = [world_mass(mln, w, d) for w in worlds]
            counts = [tuple(count_true_groundings(b, w, d) for b in psi)
                      for w in worlds]
            holds = [evaluate(query, w, d) for w in worlds]
            z = math.fsum(mass)
            assert _close(brute_mln_partition(mln, d), z)
            assert _close(brute_mln_marginal(mln, query, d),
                         math.fsum(m for m, h in zip(mass, holds) if h) / z)

            by_counts = {}
            for c, m in zip(counts, mass):
                if m:
                    by_counts.setdefault(c, []).append(m)
            dist = brute_count_distribution(mln, psi, d)
            assert dist.keys() == by_counts.keys()
            for c, ms in by_counts.items():
                assert _close(dist[c], math.fsum(ms) / z)

            top = max(c[0] for c in counts)
            lo = rng.randint(0, top)
            for keep in (Between(0, lo, rng.randint(lo, top)),
                         CustomPredicate(lambda c: sum(c) % 2 == 0)):
                kept = [(m, h) for m, c, h in zip(mass, counts, holds)
                        if keep(c)]
                den = math.fsum(m for m, _ in kept)
                assert _close(brute_constrained_partition(mln, psi, keep, d),
                             den)
                if den == 0.0:
                    with pytest.raises(InfeasibleConstraintError):
                        brute_constrained_marginal(mln, psi, keep, query, d)
                    continue
                assert _close(
                    brute_constrained_marginal(mln, psi, keep, query, d),
                    math.fsum(m for m, h in kept if h) / den)


class TestReach:
    def test_smokers_at_twenty_atoms_match_the_engine(self):
        text = (Path(__file__).resolve().parents[1] / "models"
                / "smokers.mln").read_text()
        model = parse_model_text(text.replace("domain 3", "domain 4"))
        mln, d = model.mln, model.domain
        assert sum(d.size ** p.arity for p in mln.vocabulary) == 20
        assert rel_close(brute_mln_partition(mln, d),
                         partition_function(mln, d))
        for _, query in model.queries:
            assert rel_close(brute_mln_marginal(mln, query, d),
                             marginal(mln, query, d))

    def test_cap_is_checked_before_any_world_is_walked(self, monkeypatch):
        def walked(*args):
            raise AssertionError("a world was walked")

        monkeypatch.setattr(brute, "_atom_bit_arrays", walked)
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P])
        with pytest.raises(BruteForceCapError) as err:
            brute_mln_partition(mln, Domain(31))
        assert err.value.atom_count == 31
        with pytest.raises(BruteForceCapError):
            brute_wfomc(TRUE, ONES, ONES, Domain(31), vocab=[P])
