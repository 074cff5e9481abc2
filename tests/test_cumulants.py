import itertools
import math
from collections import Counter

import numpy as np
import pytest

from conftest import make_models, random_sym
from oqrisk.cumulants import (
    WeightedKernel,
    _gamma_sum,
    cumulant_finite_td,
    cumulant_rate,
    cumulant_td_discretized,
    cumulants_from_moments,
    delta_table,
    wick_moment_oracle,
)
from oqrisk.errors import GridTooLarge, OrderTooLarge
from oqrisk.gaussian import SpectralDensity
from oqrisk.matfun import trapezoid_weights
from oqrisk.quartic import mean_rate, variance_finite, variance_rate


class TestDeltaTable:
    def test_r2_single_permutation(self):
        assert delta_table(2).counts == {(): 1}

    def test_r3(self):
        assert delta_table(3).counts == {(0,): 1, (1,): 1}

    def test_r4(self):
        assert delta_table(4).counts == {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}

    def test_structural_identities_to_r8(self):
        # full r <= 11 sweep (including timing) lives in the acceptance suite
        for r in range(2, 9):
            table = delta_table(r)
            assert table.total() == math.factorial(r - 1)
            for bits, cnt in table.counts.items():
                assert table.counts[tuple(1 - b for b in bits)] == cnt

    def test_matches_permutation_enumeration(self):
        # oracle: walk all (r-1)! permutations and record each one's
        # consecutive-inversion pattern
        for r in range(2, 10):
            oracle = Counter(
                tuple(int(a > b) for a, b in zip(p, p[1:]))
                for p in itertools.permutations(range(r - 1))
            )
            assert delta_table(r).counts == dict(oracle)

    def test_r12_certified(self):
        table = delta_table(12)
        assert len(table.counts) == 2**10
        assert table.total() == math.factorial(11)

    def test_order_guard(self):
        with pytest.raises(OrderTooLarge):
            delta_table(13)
        with pytest.raises(OrderTooLarge):
            delta_table(1)


class TestCumulantRate:
    def test_r2_reproduces_variance_paper(self, paper):
        rate, _, _ = variance_rate(*paper)
        assert cumulant_rate(*paper, r=2) == pytest.approx(rate, rel=1e-4)

    def test_r2_tiny_vanishes(self, tiny):
        assert abs(cumulant_rate(tiny, np.eye(2), 2)) < 1e-10

    def test_zero_weight(self, paper):
        for r in (2, 3, 5):
            assert cumulant_rate(paper[0], np.zeros((4, 4)), r) == 0.0

    def test_r3_collapsed_form(self, paper):
        # both gamma terms integrate identically, so the rate equals
        # (4/pi) * integral Tr(Pi D Pi D Pi D(-.)') dlam
        from scipy.integrate import quad

        model, pi = paper
        sd = SpectralDensity(model)

        def single(lam):
            d0, d1 = sd.d_pair(lam)
            return np.trace(pi @ d0 @ pi @ d0 @ pi @ d1).real

        val, _ = quad(single, -np.inf, np.inf, epsabs=1e-10, epsrel=1e-9, limit=400)
        assert cumulant_rate(model, pi, 3) == pytest.approx(4.0 / np.pi * val, rel=1e-6)

    def test_integrand_reality_sampled(self, paper):
        model, pi = paper
        sd = SpectralDensity(model)
        for lam in (0.0, 0.9, 4.4, 17.0):
            d0, d1 = sd.d_pair(lam)
            val = _gamma_sum(pi, d0, d1, 4)
            assert abs(val.imag) <= 1e-10 * max(abs(val), 1.0)

    def test_integrand_equals_pattern_sum(self, paper):
        # oracle: sum over gamma of Delta_gamma times the explicit cyclic
        # product Tr(Pi D prod_j Pi D^[gamma_j] Pi D^[1])
        model8, rng = make_models(seed=5, count=1, sizes=(8,))[0]
        cases = [paper, (model8, random_sym(rng, 8, psd=True))]
        for model, pi in cases:
            sd = SpectralDensity(model)
            for lam in (0.0, 0.7, -2.525, 17.0):
                d0, d1 = sd.d_pair(lam)
                factor = (pi @ d0, pi @ d1)
                for r in range(2, 9):
                    want = 0.0 + 0.0j
                    for bits, cnt in delta_table(r).counts.items():
                        mat = factor[0]
                        for b in bits:
                            mat = mat @ factor[b]
                        want += cnt * np.trace(mat @ factor[1])
                    got = _gamma_sum(pi, d0, d1, r)
                    assert abs(got - want) <= 1e-12 * abs(want)

    def test_higher_order_runs(self, paper):
        assert np.isfinite(cumulant_rate(*paper, r=5))

    def test_order_guard(self, paper):
        with pytest.raises(OrderTooLarge):
            cumulant_rate(*paper, r=11)


class TestFiniteTimeDomain:
    def test_r2_matches_variance_finite(self):
        for model, rng in make_models(seed=61, count=3, sizes=(2,)):
            pi = random_sym(rng, 2)
            t = 2.5
            vf = variance_finite(model, pi, t)
            td = cumulant_finite_td(model, pi, 2, t, 301)
            assert td == pytest.approx(vf, rel=2e-4, abs=1e-9)

    def test_r3_tiny_vanishes(self, tiny):
        for t in (1.0, 4.0):
            assert abs(cumulant_finite_td(tiny, np.eye(2), 3, t, 41)) < 1e-10

    def test_agrees_with_direct_sum_same_grid(self):
        model, rng = make_models(seed=67, count=1, sizes=(2,))[0]
        pi = random_sym(rng, 2)
        nodes, wts = trapezoid_weights(9, 3.0)
        for r in (2, 3):
            fast = cumulant_finite_td(model, pi, r, 3.0, 9)
            direct = cumulant_td_discretized(model, pi, r, nodes, wts)
            assert fast == pytest.approx(direct, rel=1e-12)

    def test_grid_refinement_second_order(self):
        model, rng = make_models(seed=71, count=1, sizes=(2,))[0]
        pi = random_sym(rng, 2, psd=True)
        t = 3.0
        ref = cumulant_finite_td(model, pi, 3, t, 321)
        e1 = abs(cumulant_finite_td(model, pi, 3, t, 21) - ref)
        e2 = abs(cumulant_finite_td(model, pi, 3, t, 41) - ref)
        assert 3.3 <= e1 / e2 <= 4.7

    def test_long_horizon_approaches_rate(self):
        model, rng = make_models(seed=73, count=1, sizes=(2,))[0]
        pi = random_sym(rng, 2, psd=True)
        t = 20.0 / -model.spectral_abscissa
        for r, grid in ((2, 401), (3, 161)):
            rate = cumulant_rate(model, pi, r)
            td = cumulant_finite_td(model, pi, r, t, grid)
            assert abs(td / t - rate) / abs(rate) < 0.05

    def test_order_guard(self, paper):
        with pytest.raises(OrderTooLarge):
            cumulant_finite_td(*paper, r=4, t=1.0, grid=9)


class TestWickOracle:
    def test_first_moment(self, paper):
        model, pi = paper
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0.0, 2.0, 5))
        w = rng.uniform(0.1, 0.4, 5)
        val = wick_moment_oracle(model, pi, 1, times, w)
        assert val == pytest.approx(w.sum() * mean_rate(model, pi), rel=1e-12)

    def test_cumulants_match_descent_formula(self):
        # the cancellation of multi-cycle pairings is exact combinatorics:
        # oracle-derived cumulants equal the descent-weighted sums on the
        # same grid to rounding
        for seed in (5, 6):
            model, rng = make_models(seed=seed, count=1, sizes=(2,))[0]
            pi = random_sym(rng, 2, psd=True)
            times = np.sort(rng.uniform(0.0, 2.0, 6))
            w = rng.uniform(0.1, 0.5, 6)
            moments = [wick_moment_oracle(model, pi, r, times, w) for r in (1, 2, 3)]
            _, k2, k3 = cumulants_from_moments(moments)
            d2 = cumulant_td_discretized(model, pi, 2, times, w)
            d3 = cumulant_td_discretized(model, pi, 3, times, w)
            assert k2 == pytest.approx(d2, rel=1e-8)
            assert k3 == pytest.approx(d3, rel=1e-8)

    def test_grid_guard(self, paper):
        with pytest.raises(GridTooLarge):
            wick_moment_oracle(*paper, r=3, times=np.linspace(0, 1, 30),
                               weights=np.ones(30))

    def test_order_guard(self, paper):
        with pytest.raises(OrderTooLarge):
            wick_moment_oracle(*paper, r=4, times=np.zeros(2), weights=np.ones(2))


def test_weighted_kernel_conjugation(paper):
    model, pi = paper
    weighted = WeightedKernel(model, pi)
    for tau in (0.3, 1.1, 2.7):
        assert np.abs(weighted.k(-tau) - weighted.k(tau).conj().T).max() < 1e-12


class TestCumulantsFromMoments:
    def test_first(self):
        assert cumulants_from_moments([5.0]) == [5.0]

    def test_third_closed_form(self):
        k = cumulants_from_moments([1.0, 2.0, 4.0])
        assert k[2] == pytest.approx(4.0 - 3.0 * 1.0 * 2.0 + 2.0 * 1.0, abs=1e-12)

    def test_centered_symmetric(self):
        k = cumulants_from_moments([0.0, 2.5, 0.0])
        assert k == pytest.approx([0.0, 2.5, 0.0], abs=1e-12)

    def test_gaussian_fourth(self):
        # N(0, s): moments (0, s, 0, 3 s^2) -> zero fourth cumulant
        s = 1.7
        k = cumulants_from_moments([0.0, s, 0.0, 3.0 * s * s])
        assert abs(k[3]) < 1e-12
