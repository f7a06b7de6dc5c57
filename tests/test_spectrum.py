import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlncount import (
    Atom, Domain, Exists, ForAll, Mln, Predicate, Var,
    brute_count_distribution, count_distribution, full_spectrum, inverse_dft,
    inverse_dft_raw, partition_function, shape_vector,
)
from mlncount.errors import NumericOverflowError
from mlncount.modelfile import parse_model_text
from mlncount.spectrum import CountSpec, Spectrum

from helpers import PossibleWorld, count_statistics, random_feasible_mln

X, Y = Var("x"), Var("y")
P = Predicate("p", 1)
Q = Predicate("q", 1)
F = Predicate("f", 2)


def world(*atoms):
    return PossibleWorld(frozenset(atoms))


class TestCountStatistics:
    PSI = CountSpec.of([Atom(F, (X, Y)), Atom(F, (X, X))])

    def test_mixed_world(self):
        w = world(Atom(F, (0, 0)), Atom(F, (0, 1)))
        assert count_statistics(self.PSI, w, Domain(2)) == (2, 1)

    def test_empty_world(self):
        assert count_statistics(self.PSI, world(), Domain(2)) == (0, 0)

    def test_full_world(self):
        w = world(*(Atom(F, (a, b)) for a in range(2) for b in range(2)))
        assert count_statistics(self.PSI, w, Domain(2)) == (4, 2)


class TestShapeVector:
    def test_sizes(self):
        psi = CountSpec.of([Atom(F, (X, Y)), Atom(F, (X, X)),
                            Exists(X, Atom(P, (X,)))])
        assert shape_vector(psi, Domain(3)) == (10, 4, 2)


class TestSpectrumPoint:
    def test_zero_frequency_is_one(self):
        mln = Mln.of([], [P])
        psi = CountSpec.of([Atom(P, (X,))])
        spec = full_spectrum(mln, psi, Domain(3))
        assert spec.values[0] == pytest.approx(1.0)

    def test_point_mass_has_unit_modulus(self):
        # Fully hard model with a single world: forall x p(x).
        mln = Mln.of([(ForAll(X, Atom(P, (X,))), math.inf)], [P])
        psi = CountSpec.of([Atom(P, (X,))])
        for g in full_spectrum(mln, psi, Domain(3)).values:
            assert abs(g) == pytest.approx(1.0)

    def test_binomial_transform_formula(self):
        mln = Mln.of([], [P])
        psi = CountSpec.of([Atom(P, (X,))])
        spec = full_spectrum(mln, psi, Domain(2))
        for k, got in enumerate(spec.values):
            want = sum(math.comb(2, j) / 4 * cmath.exp(-2j * cmath.pi * k * j / 3)
                       for j in range(3))
            assert got == pytest.approx(want)


class TestFullSpectrum:
    def test_conjugate_symmetry(self):
        mln = Mln.of([(Atom(P, (X,)), 0.4)], [P])
        psi = CountSpec.of([Atom(P, (X,))])
        spec = full_spectrum(mln, psi, Domain(3))
        m = spec.shape[0]
        for k in range(m):
            assert spec.values[(-k) % m] == \
                pytest.approx(spec.values[k].conjugate())

    def test_every_frequency_matches_transformed_brute_law(self):
        # Draw until at least four models carry a forall-exists formula, so
        # that the Skolem (1, -1) weights are exercised.
        rng = random.Random(31)
        checked = existentials = 0
        while checked < 10 or existentials < 4:
            mln, psi, d = random_feasible_mln(rng)
            checked += 1
            existentials += any(isinstance(f, ForAll) and
                                isinstance(f.body, Exists)
                                for f, _ in mln.weighted_formulas)
            spec = full_spectrum(mln, CountSpec.of(psi), d)
            law = np.zeros(spec.shape)
            for idx, p in brute_count_distribution(mln, psi, d).items():
                law[idx] = p
            assert np.max(np.abs(spec.values - np.fft.fftn(law))) <= 1e-9

    def test_zero_frequency_one_for_random_models(self):
        rng = random.Random(5)
        for _ in range(10):
            mln, psi, d = random_feasible_mln(rng)
            spec = full_spectrum(mln, CountSpec.of(psi), d)
            assert spec.values[(0,) * len(psi)] == pytest.approx(1.0, abs=1e-9)


class TestInverseDft:
    def test_point_mass_roundtrip(self):
        grid = np.zeros((4, 3))
        grid[2, 1] = 1.0
        dist = inverse_dft(Spectrum(np.fft.fftn(grid)))
        assert dist.probabilities[2, 1] == pytest.approx(1.0)
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_binomial_two_elements(self):
        mln = Mln.of([], [P])
        psi = CountSpec.of([Atom(P, (X,))])
        dist = count_distribution(mln, psi, Domain(2))
        assert np.allclose(dist.probabilities, [0.25, 0.5, 0.25])

    def test_residue_is_worst_imaginary_part_or_negative_mass(self):
        values = np.fft.fftn(np.random.default_rng(3).random((5, 4)))
        raw = inverse_dft_raw(values)
        assert inverse_dft(Spectrum(values)).residue == max(
            float(np.max(np.abs(raw.imag))), -float(raw.real.min()))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(4,), (2, 3), (5, 2), (3, 3, 2), (7,)]),
           st.integers(0, 2 ** 31 - 1))
    def test_roundtrip_identity_random_grids(self, shape, seed):
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        back = inverse_dft_raw(np.fft.fftn(grid))
        assert float(np.max(np.abs(back - grid))) <= 1e-9


class TestCountDistribution:
    def test_point_mass_model(self):
        mln = Mln.of([(ForAll(X, Atom(P, (X,))), math.inf)], [P])
        psi = CountSpec.of([Atom(P, (X,))])
        dist = count_distribution(mln, psi, Domain(3))
        assert dist.probabilities[3] == pytest.approx(1.0)
        assert dist.probabilities[:3] == pytest.approx([0, 0, 0], abs=1e-9)

    def test_binomial_ten_elements(self):
        mln = Mln.of([], [P])
        psi = CountSpec.of([Atom(P, (X,))])
        dist = count_distribution(mln, psi, Domain(10))
        for k in range(11):
            assert dist.probabilities[k] == \
                pytest.approx(math.comb(10, k) / 1024, abs=1e-9)

    def test_matches_brute_aggregation(self):
        rng = random.Random(202)
        for _ in range(8):
            mln, psi, d = random_feasible_mln(rng)
            dist = count_distribution(mln, CountSpec.of(psi), d)
            ref = brute_count_distribution(mln, psi, d)
            for idx in np.ndindex(*dist.shape):
                assert dist.probabilities[idx] == \
                    pytest.approx(ref.get(idx, 0.0), abs=1e-6)

    def test_tilt_equals_appended_soft_formulas(self):
        # Tilting count formula j by t_j weights the same worlds as adding
        # the soft formula (beta_j, t_j) to the model.
        rng = random.Random(77)
        for _ in range(12):
            mln, psi, d = random_feasible_mln(rng)
            tilts = [rng.uniform(-1.0, 1.0) for _ in psi]
            ref = Mln.of(mln.weighted_formulas + tuple(zip(psi, tilts)),
                         mln.vocabulary)
            dist = count_distribution(mln, CountSpec.of(psi), d, tilts=tilts)
            want = count_distribution(ref, CountSpec.of(psi), d)
            assert np.max(np.abs(dist.probabilities - want.probabilities)) \
                <= 1e-12
            assert dist.normalizer == pytest.approx(
                float(partition_function(ref, d)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("tilts", [[0.3], [0.3, 0.1, -0.2]],
                             ids=["shorter", "longer"])
    @pytest.mark.parametrize("query", [full_spectrum, count_distribution])
    def test_tilts_must_match_the_count_formulas(self, query, tilts):
        # A short list used to drop the later formulas' weights silently.
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P, Q])
        psi = CountSpec.of([Atom(P, (X,)), Atom(Q, (X,))])
        with pytest.raises(ValueError, match="tilts"):
            query(mln, psi, Domain(3), tilts=tilts)

    @pytest.mark.parametrize("tilt", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("query", [full_spectrum, count_distribution])
    def test_tilts_must_be_finite(self, query, tilt):
        # They used to raise only after numpy's RuntimeWarnings, on an array
        # of nan+nanj.
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P])
        with pytest.raises(ValueError, match="finite"):
            query(mln, CountSpec.of([Atom(P, (X,))]), Domain(3), tilts=[tilt])

    @pytest.mark.parametrize("tilt,message", [
        # Past exp's range: the weighting step names the count formula.
        (710.0, r"weight 710 of p\(x\) leaves the float range"),
        # Within it, the weight's third power passes the overflow limit.
        (700.0, r"exceeds MAGNITUDE_LIMIT=1e\+300")])
    def test_tilt_past_the_float_range_is_typed(self, tilt, message):
        mln = Mln.of([(Atom(P, (X,)), 0.5)], [P])
        with pytest.raises(NumericOverflowError, match=message):
            count_distribution(mln, CountSpec.of([Atom(P, (X,))]), Domain(3),
                               tilts=[tilt])

    def test_sums_to_one(self):
        rng = random.Random(404)
        for _ in range(5):
            mln, psi, d = random_feasible_mln(rng)
            dist = count_distribution(mln, CountSpec.of(psi), d)
            assert float(dist.probabilities.sum()) == pytest.approx(1.0, abs=1e-6)

    def test_integer_count_beyond_float_range_is_typed_error(self):
        # 2^1056 worlds: the exact normalizer is fine, the float sweep is not.
        model = parse_model_text("domain 32\npredicate p/1\n"
                                 "predicate f/2\ncount c : p(x)\n")
        with pytest.raises(NumericOverflowError,
                           match="weighted count exceeds MAGNITUDE_LIMIT"):
            count_distribution(model.mln, model.count_spec, model.domain)

    def test_marginalizing_extended_axis_is_consistent(self):
        mln = Mln.of([(Atom(P, (X,)), 0.3)], [P, F])
        gamma = Exists(X, Atom(F, (X, X)))
        psi = CountSpec.of([Atom(P, (X,))])
        extended = CountSpec.of([Atom(P, (X,)), gamma])
        d = Domain(2)
        q1 = count_distribution(mln, psi, d)
        q2 = count_distribution(mln, extended, d)
        assert np.allclose(q2.probabilities.sum(axis=-1), q1.probabilities,
                           atol=1e-9)

    @pytest.mark.parametrize("weight,n", [(w, n) for w in (-10, -7)
                                          for n in (8, 10)])
    def test_total_relation_size_law_with_soft_edges(self, weight, n):
        # Count law of |f| over total relations with f(x,y) weighted w:
        # c_m e^(w m) normalized, c_m the coefficients of ((1+t)^n - 1)^n.
        # The (1, -1) Skolem weights cancel inside one outer label's weight.
        tot = ForAll(X, Exists(Y, Atom(F, (X, Y))))
        mln = Mln.of([(tot, math.inf), (Atom(F, (X, Y)), weight)], [F])
        dist = count_distribution(mln, CountSpec.of([Atom(F, (X, Y))]),
                                  Domain(n))
        row = [0] + [math.comb(n, j) for j in range(1, n + 1)]
        coefficients = [1]
        for _ in range(n):
            coefficients = [sum(coefficients[i] * row[m - i]
                                for i in range(len(coefficients))
                                if 0 <= m - i < len(row))
                            for m in range(len(coefficients) + n)]
        a = Fraction(math.exp(weight))
        masses = [c * a ** m for m, c in enumerate(coefficients)]
        want = [float(q / sum(masses)) for q in masses]
        assert np.abs(dist.probabilities - want).max() <= 1e-9
