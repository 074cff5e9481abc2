import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import congruent_n32, damped_mode, make_models, random_sym
from oqrisk import matfun
from oqrisk.deviations import (
    DeviationAnalysis,
    _FTable,
    _tail_corrected_integral,
    _tail_corrected_log_integral,
    closed_theta_star,
    cramer_bound_closed,
    envelope_log_integral,
    envelope_log_integral_closed,
    envelope_params,
)
from oqrisk.errors import EpsilonTooSmall, InvalidArgument, NotPsd, ThetaOutOfRange
from oqrisk.model import canonical_ccr, model_from_matrices

PAPER_GAMMA = np.array([
    [1.4750, -0.4852, -1.4090, -0.2636],
    [-0.4852, 0.6271, 0.2354, 0.1475],
    [-1.4090, 0.2354, 1.6303, 0.3569],
    [-0.2636, 0.1475, 0.3569, 0.2676],
])


class TestNKernel:
    def test_zero_lag_threshold_constant(self, tiny_deviation):
        # N(0) = ||sqrt(Pi)(P + i Theta) sqrt(Pi)||
        assert tiny_deviation.n0 == pytest.approx(1.0, abs=1e-12)
        assert tiny_deviation.n_kernel(0.0) == pytest.approx(tiny_deviation.n0)

    def test_tiny_exponential(self, tiny_deviation):
        for tau in (-2.0, -0.5, 0.7, 3.0):
            assert tiny_deviation.n_kernel(tau) == pytest.approx(
                np.exp(-abs(tau)), rel=1e-12, abs=0.0
            )

    def test_zero_weight(self, tiny):
        da = DeviationAnalysis(tiny, np.zeros((2, 2)))
        assert da.n_kernel(1.3) == 0.0

    def test_evenness(self, paper_deviation):
        for tau in (0.4, 1.9):
            assert paper_deviation.n_kernel(-tau) == pytest.approx(
                paper_deviation.n_kernel(tau), rel=1e-12, abs=0.0
            )

    def test_envelope_dominates(self, paper_deviation):
        env = paper_deviation.envelope
        taus = np.linspace(0.0, 30.0 / env.mu, 200)
        for tau in taus:
            assert paper_deviation.n_kernel(tau) <= env.alpha * np.exp(
                -env.mu * tau
            ) * (1.0 + 1e-9)

    def test_indefinite_weight_rejected(self, tiny):
        with pytest.raises(NotPsd):
            DeviationAnalysis(tiny, np.diag([1.0, -1.0])).n_kernel(0.5)


class TestLadderBlocks:
    """The kernel grid's lags are formed in blocks sized by bytes."""

    @pytest.mark.parametrize("case", ["paper", "tiny"])
    def test_block_size_changes_no_bit(self, case, paper, tiny, monkeypatch):
        # one lag per block against the default blocks: the grid, F(0) and
        # the numeric bounds are the same to the bit
        model, pi = paper if case == "paper" else (tiny, np.eye(2))
        runs = []
        for budget in (1, matfun._STACK_BYTES):
            monkeypatch.setattr(matfun, "_STACK_BYTES", budget)
            dev = DeviationAnalysis(model, pi)
            f0 = dev.f_infnorm()
            eps = model.n * dev.n0 * np.array([1.1, 1.3, 2.0])
            runs.append((dev._grid, f0, *dev._cramer_points(eps)))
        for one, default in zip(*runs):
            assert np.array_equal(one, default)

    @pytest.mark.parametrize("budget", [1 << 20, 1 << 22])
    def test_working_set_follows_the_budget(self, budget, monkeypatch):
        # at n = 32 a lag is a complex 32 x 16 matrix: f_infnorm's working set
        # is a few blocks of lags and the grid it keeps, whatever the grid's
        # length.  Below ~1 MiB the frequency table's own blocks (~1.4 MB)
        # set the peak instead.
        monkeypatch.setattr(matfun, "_STACK_BYTES", budget)
        model, pi = congruent_n32()
        model.eig, model.steady.thin, DeviationAnalysis(model, pi).envelope  # model facts
        dev = DeviationAnalysis(model, pi)
        tracemalloc.start()
        try:
            dev.f_infnorm()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * budget + dev._grid.nbytes


class TestFTransform:
    def test_tiny_lorentzian(self, tiny_deviation):
        for lam in (0.0, 0.5, 1.0, 4.0):
            assert tiny_deviation.f_transform(lam) == pytest.approx(
                2.0 / (1.0 + lam * lam), abs=1e-8
            )

    def test_tiny_infnorm_matches_envelope_formula(self, tiny_deviation):
        # F(0) = 2 alpha / mu for an exactly exponential kernel
        env = tiny_deviation.envelope
        assert tiny_deviation.f_infnorm() == pytest.approx(
            2.0 * env.alpha / env.mu, rel=1e-8
        )

    def test_zero_weight(self, tiny):
        da = DeviationAnalysis(tiny, np.zeros((2, 2)))
        assert da.f_transform(0.7) == 0.0

    def test_peak_at_zero_sampled(self, paper_deviation):
        f0 = paper_deviation.f_infnorm()
        for lam in np.linspace(0.1, 40.0, 25):
            assert abs(paper_deviation.f_transform(lam)) <= f0 * (1.0 + 1e-9)


class TestQefUpperRate:
    def test_zero_theta(self, paper_deviation):
        assert paper_deviation.qef_upper_rate(0.0) == 0.0

    def test_tiny_closed_value(self, tiny_deviation):
        assert tiny_deviation.qef_upper_rate(3.0 / 16.0) == pytest.approx(
            0.5, abs=1e-8
        )

    def test_tiny_boundary_limit(self, tiny_deviation):
        theta_max = 1.0 / (2.0 * tiny_deviation.f_infnorm())
        val = tiny_deviation.qef_upper_rate(theta_max * (1.0 - 1e-10))
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_range_guard(self, tiny_deviation):
        theta_max = 1.0 / (2.0 * tiny_deviation.f_infnorm())
        with pytest.raises(ThetaOutOfRange):
            tiny_deviation.qef_upper_rate(theta_max * 1.01)
        with pytest.raises(ThetaOutOfRange):
            tiny_deviation.qef_upper_rate(-0.1)

    def test_tiny_one_cut_accuracy(self, tiny_deviation):
        # qef_upper_rate(theta) = 1 - sqrt(1 - 4 theta) and the bound at eps = 4
        # is -1/4; every theta integrates over the table's panels up to
        # lam_base and its mapped tail beyond
        theta_max = 1.0 / (2.0 * tiny_deviation.f_infnorm())
        rate = tiny_deviation.qef_upper_rate(0.5 * theta_max)
        assert abs(rate - (1.0 - math.sqrt(0.5))) <= 1e-11
        bound, theta_star = tiny_deviation.cramer_bound_numeric(4.0)
        assert isinstance(rate, float) and isinstance(bound, float)
        assert abs(bound + 0.25) <= 1e-11

    def test_array_theta_is_the_scalar_calls(self, paper_deviation):
        theta_max = 1.0 / (2.0 * paper_deviation.f_infnorm())
        thetas = np.array([0.0, 0.1, 0.5, 0.9, 1.0 - 1e-9]) * theta_max
        got = paper_deviation.qef_upper_rate(thetas)
        assert got.shape == thetas.shape and not np.signbit(got[0])
        assert np.array_equal(got, [paper_deviation.qef_upper_rate(float(t)) for t in thetas])
        for bad in (np.append(thetas, np.nan), np.append(thetas, theta_max)):
            with pytest.raises(ThetaOutOfRange):
                paper_deviation.qef_upper_rate(bad)

    def test_convex_increasing(self, tiny_deviation):
        theta_max = 1.0 / (2.0 * tiny_deviation.f_infnorm())
        grid = np.linspace(0.05, 0.85, 9) * theta_max
        vals = tiny_deviation.qef_upper_rate(grid)
        assert np.all(np.diff(vals) > 0)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-8)

    def test_beat_resonance(self):
        # two modes with eigenvalues -0.05 +- 10i and -0.05 +- 12i: F beats at
        # lam = 2 (and 20..24) with width ~0.1, which a table that ignores the
        # kernel's pair poles misses by ~1e-7
        x = np.random.default_rng(3).standard_normal((4, 4))
        model = model_from_matrices(canonical_ccr(4).theta, np.diag([10.0, 12.0, 10.0, 12.0]),
                                    np.sqrt(0.05) * np.eye(4))
        da = DeviationAnalysis(model, x @ x.T + 0.1 * np.eye(4))
        thetas = np.array([0.3, 0.9]) / (2.0 * da.f_infnorm())
        got = [da.qef_upper_rate(theta) for theta in thetas]
        # reference: 16-point panels 0.01 wide within 0.5 of the beats, 0.1
        # wide elsewhere on [0, 30], geometric up to lam_base, dyadic toward
        # 0, and the library's mapped tail lam = lam_base / s beyond
        base = da._lam_base()
        edges = np.unique(np.concatenate([
            base * 2.0 ** np.arange(-40.0, -10.0), np.arange(0.0, 30.0, 0.1),
            np.arange(1.5, 2.5, 0.01), np.arange(19.5, 24.5, 0.01),
            np.geomspace(30.0, base, 60), [base]]))
        x, w = np.polynomial.legendre.leggauss(16)
        half, s = 0.5 * np.diff(edges)[:, None], 0.5 * (1.0 + x)
        nodes = np.append(edges[:-1, None] + half * (1.0 + x), base / s)
        weights = np.append(half * w, 0.5 * w * base / s**2)
        fine = _FTable(nodes=nodes, weights=weights, fvals=da.f_transform(nodes),
                       f0=da.f_infnorm())
        want = [-model.n / (4.0 * math.pi) * _tail_corrected_log_integral(fine, theta, da.n0)
                for theta in thetas]
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("name", ["tiny", "paper"])
    def test_mapped_tail_is_cut_independent(self, name, tiny, paper, monkeypatch):
        # the table's panels end at lam_base and its tail lam = lam_base / s
        # takes the rest; a table whose panels run 8 times as far agrees
        model, pi = {"tiny": (tiny, np.eye(2)), "paper": paper}[name]
        da, far = DeviationAnalysis(model, pi), DeviationAnalysis(model, pi)
        monkeypatch.setattr(far, "_lam_base", lambda: 8.0 * da._lam_base())
        thetas = np.array([0.3, 0.9]) / (2.0 * da.f_infnorm())
        assert da.qef_upper_rate(thetas) == pytest.approx(far.qef_upper_rate(thetas),
                                                          rel=5e-14, abs=0.0)


class TestCramerNumeric:
    def test_tiny_closed_case(self, tiny_deviation):
        bound, theta_star = tiny_deviation.cramer_bound_numeric(4.0)
        assert bound == pytest.approx(-0.25, abs=1e-6)
        assert theta_star == pytest.approx(3.0 / 16.0, abs=1e-6)

    def test_zero_slack_boundary(self, tiny_deviation):
        eps0 = tiny_deviation.model.n * tiny_deviation.n0
        bound, theta_star = tiny_deviation.cramer_bound_numeric(eps0)
        assert bound == 0.0
        assert theta_star == 0.0

    def test_epsilon_guard(self, tiny_deviation):
        with pytest.raises(EpsilonTooSmall):
            tiny_deviation.cramer_bound_numeric(1.0)

    def test_degenerate_weight_sentinel(self, tiny):
        da = DeviationAnalysis(tiny, np.zeros((2, 2)))
        bound, theta_star = da.cramer_bound_numeric(1.0)
        assert bound == -np.inf and theta_star == np.inf
        assert da.cramer_bound_numeric(0.0) == (0.0, 0.0)

    def test_tiny_weight_scales(self, paper):
        # N(0) ~ 1e-300 squares below the double range in the Gram of the
        # grid's singular values; the grid samples N / 2^e, so F(0) is
        # positive and the rate is the 1e-150 weight's (F scales out of it)
        model, pi = paper
        tiny, small = DeviationAnalysis(model, 1e-300 * pi), DeviationAnalysis(model, 1e-150 * pi)
        assert tiny.f_infnorm() > 0.0
        rate = [da.qef_upper_rate(0.3 / (2.0 * da.f_infnorm())) for da in (tiny, small)]
        assert rate[0] == pytest.approx(rate[1], rel=1e-13, abs=0.0)
        eps = model.n * tiny.envelope.alpha * np.array([1.5, 3.0])
        assert sorted(c.method for c in tiny.bound_curve(eps)) == ["closed_form", "numeric"]

    def test_large_weight_scales(self, paper):
        # the symmetry test of sqrt(Pi) squares no entry of a 1e200 weight, so
        # N(0) and F(0) scale with it and the rate at 0.3 theta_max is the
        # unit weight's (theta F is scale-free)
        model, pi = paper
        big, unit = DeviationAnalysis(model, 1e200 * pi), DeviationAnalysis(model, pi)
        assert big.n0 == pytest.approx(1e200 * unit.n0, rel=1e-14, abs=0.0)
        assert big.f_infnorm() == pytest.approx(1e200 * unit.f_infnorm(), rel=1e-14, abs=0.0)
        rate = [da.qef_upper_rate(0.3 / (2.0 * da.f_infnorm())) for da in (big, unit)]
        assert rate[0] == pytest.approx(rate[1], rel=1e-13, abs=0.0)

    def test_huge_weight_bounds_scale(self, paper):
        # at 1e300 Pi the derivative near theta_max leaves the double range and
        # reads +inf, above every eps: the bounds at 1e300 eps are the unit
        # weight's at eps, and theta* scales by 1e-300
        model, pi = paper
        eps = np.array([300.0, 500.0, 900.0])
        unit = DeviationAnalysis(model, pi).bound_curve(eps)[-1]
        huge = DeviationAnalysis(model, 1e300 * pi).bound_curve(1e300 * eps)[-1]
        assert huge.bound == pytest.approx(unit.bound, rel=1e-13, abs=0.0)
        assert 1e300 * huge.theta_star == pytest.approx(unit.theta_star, rel=1e-13, abs=0.0)

    def test_weight_near_overflow_bounds_scale(self, paper):
        # at 1e305 Pi, F(0) is 1.6e307: the Filon sums and the derivative's
        # integrand F / (1 - 2 theta F) run on F 2^-e, so nothing overflows
        # before the bounds at 1e305 eps, the unit weight's at eps
        model, pi = paper
        eps = np.array([300.0, 500.0, 900.0])
        unit = DeviationAnalysis(model, pi).bound_curve(eps)[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = DeviationAnalysis(model, 1e305 * pi).bound_curve(1e305 * eps)[-1]
        assert huge.bound == pytest.approx(unit.bound, rel=1e-13, abs=0.0)
        assert 1e305 * huge.theta_star == pytest.approx(unit.theta_star, rel=1e-13, abs=0.0)

    def test_one_bracket_pass_and_one_halving_loop(self, paper):
        # both bracket tops in one pass, then 34 halvings of every eps at once,
        # with the largest eps past the derivative at theta_max (1 - 1e-6)
        da = DeviationAnalysis(*paper)
        eps = da.model.n * da.n0 * np.array([1.5, 10.0, 1000.0])
        theta_max = 1.0 / (2.0 * da.f_infnorm())
        assert da._derivs(np.array([theta_max * (1.0 - 1e-6)]))[0] < eps[-1]
        passes, derivs = [], da._derivs
        da._derivs = lambda thetas: passes.append(thetas.size) or derivs(thetas)
        da._cramer_points(eps)
        assert passes == [2] + [3] * 34

    def test_never_above_closed_form(self, paper_deviation):
        # the true kernel sits below its envelope, so the optimized numeric
        # bound can only improve on the closed form
        env = paper_deviation.envelope
        n = paper_deviation.model.n
        for eps in np.array([1.01, 1.5, 2.5]) * n * env.alpha:
            numeric, _ = paper_deviation.cramer_bound_numeric(eps)
            closed = cramer_bound_closed(env.mu, env.alpha, n, eps)
            assert numeric <= closed + 1e-8

    def test_deriv_increases_toward_theta_max(self, paper_deviation):
        # the peak of 1 / (1 - 2 theta F) at lam = 0 narrows like
        # sqrt(1 - theta / theta_max); a rule that misses it reads a
        # derivative below its theta = 0 value n N(0)
        theta_max = 1.0 / (2.0 * paper_deviation.f_infnorm())
        derivs = paper_deviation._derivs(theta_max * (1.0 - 10.0 ** -np.arange(1.0, 10.0)))
        assert np.all(np.diff(derivs) > 0)
        assert derivs[0] > paper_deviation.model.n * paper_deviation.n0

    def test_bound_near_theta_max(self, paper_deviation):
        # eps = 1e6 puts theta* within 1e-6 of theta_max
        eps = 1e6
        n = paper_deviation.model.n
        env = paper_deviation.envelope
        bound, theta_star = paper_deviation.cramer_bound_numeric(eps)
        assert theta_star * (n * paper_deviation.n0 - eps) <= bound
        assert bound <= cramer_bound_closed(env.mu, env.alpha, n, eps) + 1e-8


class TestEnvelopeParams:
    def test_paper_values(self, paper_deviation):
        env = paper_deviation.envelope
        assert env.mu == pytest.approx(0.5532, abs=1e-3)
        assert env.alpha == pytest.approx(69.6784, rel=1e-2)
        assert np.abs(env.gamma - PAPER_GAMMA).max() < 5e-3 * np.abs(PAPER_GAMMA).max()

    def test_tiny_identity(self, tiny_deviation):
        env = tiny_deviation.envelope
        assert env.mu == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(env.gamma, np.eye(2), atol=1e-12)
        assert env.alpha == pytest.approx(1.0, abs=1e-10)

    def test_scalar_drift(self):
        from oqrisk.model import model_from_matrices

        c = 3.0
        # A = -cI arises from R = 0 with coupling sqrt(c/2) * I2 rotated:
        # easier to check through the generic constructor on TINY scaled
        model = model_from_matrices(
            0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]]),
            np.zeros((2, 2)),
            np.sqrt(c) * np.eye(2),
        )
        assert np.allclose(model.a, -c * np.eye(2), atol=1e-12)
        env = envelope_params(model, np.eye(2))
        assert env.mu == pytest.approx(c, abs=1e-10)
        assert np.allclose(env.gamma, np.eye(2), atol=1e-10)

    def test_lyapunov_inequality_random(self):
        for model, rng in make_models(seed=83, count=10):
            env = envelope_params(model, random_sym(rng, model.n, psd=True))
            ali = model.a @ env.gamma + env.gamma @ model.a.T + 2 * env.mu * env.gamma
            assert np.linalg.eigvalsh(ali).max() <= 1e-8 * np.linalg.norm(env.gamma, 2)

    def test_alpha_reproducible(self, paper_deviation):
        from oqrisk.matfun import inv_sqrt_psd, opnorm2, sqrt_psd

        env = paper_deviation.envelope
        root_pi = sqrt_psd(paper_deviation.pi)
        alpha = opnorm2(root_pi @ sqrt_psd(env.gamma)) * opnorm2(
            inv_sqrt_psd(env.gamma) @ paper_deviation.quantum @ root_pi
        )
        assert env.alpha == pytest.approx(alpha, rel=1e-12, abs=0.0)

    def test_defective_drift(self):
        # A = [[-0.5, 0], [-1, -0.5]]: the double eigenvalue -0.5 is defective,
        # so the envelope retreats to mu = 0.45 on a shifted Lyapunov solve and
        # the kernel grid steps by one exponential
        model = model_from_matrices(canonical_ccr(2).theta, np.diag([1.0, 0.0]),
                                    np.sqrt(0.5) * np.eye(2))
        assert model.eig.inverse is None
        da = DeviationAnalysis(model, np.diag([1.0, 2.0]))
        env = da.envelope
        assert env.mu == pytest.approx(0.45, rel=1e-12, abs=0.0)
        for tau in np.linspace(0.0, 60.0, 31):
            assert da.n_kernel(tau) <= env.alpha * np.exp(-env.mu * tau)
        da.f_infnorm()
        gaps = [abs(vals[k] / da._unit - da.n_kernel(start + k * step))
                for start, step, vals in da._segments for k in (0, 1, vals.size // 2, vals.size - 1)]
        assert max(gaps) <= 1e-13 * da.n0
        for eps in model.n * da.n0 * np.array([1.1, 2.0]):
            assert np.all(np.isfinite(da.cramer_bound_numeric(eps)))


class TestClosedBound:
    def test_zero_at_threshold(self):
        assert cramer_bound_closed(1.0, 1.0, 2, 2.0) == 0.0

    def test_tiny_arithmetic(self):
        assert cramer_bound_closed(1.0, 1.0, 2, 4.0) == pytest.approx(-0.25)
        assert closed_theta_star(1.0, 1.0, 2, 4.0) == pytest.approx(3.0 / 16.0)

    def test_epsilon_guard(self):
        with pytest.raises(EpsilonTooSmall):
            cramer_bound_closed(1.0, 1.0, 2, 1.9)

    @pytest.mark.parametrize("mu, alpha", [(np.nan, 1.0), (-1.0, 1.0), (np.inf, 1.0),
                                           (1.0, 0.0), (1.0, np.nan), (1.0, -1.0)])
    @pytest.mark.parametrize("closed", [cramer_bound_closed, closed_theta_star])
    def test_invalid_envelope_refused(self, closed, mu, alpha):
        # checked before the eps test: alpha = nan would fail that one too
        with pytest.raises(InvalidArgument):
            closed(mu, alpha, 2, 4.0)

    def test_paper_curve_shape(self, paper_deviation):
        env = paper_deviation.envelope
        n = 4
        scale = n * env.alpha
        eps = np.linspace(scale, 5.0 * scale, 30)
        vals = cramer_bound_closed(env.mu, env.alpha, n, eps)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(vals[1:] < 0)
        assert np.all(np.diff(vals) < 0)  # decreasing past the zero

    @pytest.mark.parametrize("closed", [cramer_bound_closed, closed_theta_star])
    def test_grid_is_the_scalar_calls(self, paper_deviation, closed):
        env = paper_deviation.envelope
        eps = np.linspace(1.0, 3.0, 7) * 4 * env.alpha
        got = closed(env.mu, env.alpha, 4, eps)
        assert np.array_equal(got, [closed(env.mu, env.alpha, 4, float(e)) for e in eps])
        assert isinstance(closed(env.mu, env.alpha, 4, float(eps[3])), float)
        with pytest.raises(EpsilonTooSmall):
            closed(env.mu, env.alpha, 4, np.insert(eps, 3, 2 * env.alpha))


@pytest.mark.parametrize("bound", [
    lambda da, eps: da.cramer_bound_numeric(eps),
    lambda da, eps: cramer_bound_closed(da.envelope.mu, da.envelope.alpha, 4, eps),
    lambda da, eps: closed_theta_star(da.envelope.mu, da.envelope.alpha, 4, eps),
    lambda da, eps: DeviationAnalysis(da.model, np.zeros((4, 4))).cramer_bound_numeric(eps),
], ids=["numeric", "closed", "closed-theta-star", "numeric-zero-weight"])
def test_nan_epsilon_raises(paper_deviation, bound):
    # NaN fails every threshold comparison, so it must fail the guard too
    with pytest.raises(EpsilonTooSmall):
        bound(paper_deviation, float("nan"))


class TestBoundCurve:
    def test_tiny_three_points(self, tiny):
        curves = DeviationAnalysis(tiny, np.eye(2)).bound_curve([2.0, 3.0, 4.0])
        closed = next(c for c in curves if c.method == "closed_form")
        # (n mu / 4)(2 - n a/eps - eps/(n a)) at eps = 2, 3, 4 with n = 2,
        # mu = alpha = 1
        assert closed.bound == pytest.approx([0.0, -1.0 / 12.0, -0.25], abs=1e-12)
        numeric = next(c for c in curves if c.method == "numeric")
        assert numeric.bound[2] == pytest.approx(-0.25, abs=1e-6)

    def test_empty_grid(self, tiny):
        curves = DeviationAnalysis(tiny, np.eye(2)).bound_curve([])
        assert all(c.epsilon.size == 0 for c in curves)

    def test_paper_zero_at_threshold(self, paper_deviation):
        env = paper_deviation.envelope
        eps0 = 4.0 * env.alpha
        curves = paper_deviation.bound_curve([eps0])
        closed = next(c for c in curves if c.method == "closed_form")
        assert abs(closed.bound[0]) < 1e-6


def _one_point(da, eps):
    """``(bound, theta_star, delta)`` by a bisection of the derivative
    equation for one ``eps``, one theta at a time: the oracle of the batched
    solve.  ``delta`` is where the bracket stopped short of theta_max."""
    if eps <= da.model.n * da.n0 * (1.0 + 1e-14):
        return 0.0, 0.0, None
    theta_max = 1.0 / (2.0 * da.f_infnorm())

    def deriv(theta):
        val = _tail_corrected_integral(da._table, lambda f: f / (1.0 - 2.0 * theta * f), 1.0, da.n0)
        return da.model.n / (2.0 * math.pi) * val

    delta = 1e-6
    hi = theta_max * (1.0 - delta)
    while deriv(hi) < eps:
        delta *= 1e-2
        hi = theta_max * (1.0 - delta)
    lo = 0.0
    while hi - lo > 1e-10 * theta_max:
        mid = 0.5 * (lo + hi)
        if deriv(mid) < eps:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return da.qef_upper_rate(theta) - theta * eps, theta, delta


class TestBatchedCurve:
    """One bisection over every epsilon of a curve against a bisection per
    epsilon: bit-equal bounds and theta*."""

    # the threshold n N(0), then points up to the paper's 24-point curve,
    # then an eps past the derivative at theta_max (1 - 1e-6), whose bracket
    # must shrink to 1e-8
    CASES = {"paper": (np.linspace(280.0, 900.0, 24), 1e6),
             "tiny": (np.array([2.5, 3.0, 4.0, 8.0, 40.0]), 1e4),
             "damped": (np.array([3.03, 4.5, 9.0, 30.0]), 1e4)}

    @pytest.fixture(scope="class", params=sorted(CASES))
    def case(self, request, paper, tiny):
        model, pi = {"paper": paper, "tiny": (tiny, np.eye(2)),
                     "damped": (damped_mode(), np.diag([1.0, 2.0]))}[request.param]
        da = DeviationAnalysis(model, pi)
        points, far = self.CASES[request.param]
        return da, np.concatenate([[model.n * da.n0], points, [far]])

    def test_matches_per_epsilon_bisection(self, case):
        da, eps = case
        want = [_one_point(da, e) for e in eps]
        assert want[0][2] is None and want[-1][2] < 1e-6  # threshold; shrunk bracket
        bound, theta_star = da._cramer_points(eps)
        assert np.array_equal(bound, [w[0] for w in want])
        assert np.array_equal(theta_star, [w[1] for w in want])
        assert (bound[0], theta_star[0]) == (0.0, 0.0)
        for e, (b, t, _) in zip(eps, want):
            assert da.cramer_bound_numeric(e) == (b, t)

    def test_curve_is_the_batched_solve(self, case):
        da, eps = case
        grid = eps[eps >= da.model.n * da.envelope.alpha]  # the closed form's domain
        numeric = next(c for c in da.bound_curve(grid) if c.method == "numeric")
        bound, theta_star = da._cramer_points(grid)
        assert np.array_equal(numeric.bound, bound)
        assert np.array_equal(numeric.theta_star, theta_star)

    def test_threshold_keeps_positive_zero(self, case):
        # eps = n N(0) among live eps: theta* 0 and the bound +0.0, which the
        # CSV prints as 0, not -0
        da, eps = case
        bound, theta_star = da._cramer_points(eps)
        assert bound[0] == theta_star[0] == 0.0
        assert not np.signbit(bound[0]) and not np.signbit(theta_star[0])
        assert np.all(theta_star[1:] > 0.0)

    def test_empty_grid(self, case):
        bound, theta_star = case[0]._cramer_points(np.array([]))
        assert bound.shape == theta_star.shape == (0,)

    def test_one_epsilon_below_threshold_refuses_the_grid(self, case):
        da, eps = case
        low = np.insert(eps, 2, 0.5 * da.model.n * da.n0)
        with pytest.raises(EpsilonTooSmall):
            da._cramer_points(low)


def test_one_transform_call_per_analysis(paper, monkeypatch):
    # F(0) is the first entry of the table's one transform, on its nodes
    da = DeviationAnalysis(*paper)
    calls, transform = [], da.f_transform
    monkeypatch.setattr(da, "f_transform", lambda lam: calls.append(lam) or transform(lam))
    theta_max = 1.0 / (2.0 * da.f_infnorm())
    da.bound_curve(np.linspace(280.0, 900.0, 4))
    da.qef_upper_rate(0.5 * theta_max)
    assert len(calls) == 1 and calls[0].size == da._table.nodes.size + 1
    assert calls[0][0] == 0.0 and np.array_equal(calls[0][1:], da._table.nodes)


@pytest.mark.parametrize("call", [
    lambda da: da.bound_curve([[300.0, 400.0]]),
    lambda da: da.bound_curve([300.0, np.inf]),
    lambda da: da.bound_curve(300.0),
    lambda da: da.cramer_bound_numeric(np.array([300.0])),
    lambda da: da.cramer_bound_numeric(-np.inf),
], ids=["2d-grid", "inf-in-grid", "scalar-grid", "array-eps", "inf-eps"])
def test_malformed_epsilon_refused_before_transform(paper, call, monkeypatch):
    da = DeviationAnalysis(*paper)
    monkeypatch.setattr(da, "f_transform", lambda lam: pytest.fail("the transform ran"))
    with pytest.raises(InvalidArgument):
        call(da)


class TestEnvelopeCrosscheck:
    def test_numeric_matches_closed_form(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            alpha = rng.uniform(0.2, 60.0)
            mu = rng.uniform(0.1, 4.0)
            theta = rng.uniform(0.05, 0.95) * 0.25 * mu / alpha
            num = envelope_log_integral(alpha, mu, theta)
            closed = envelope_log_integral_closed(alpha, mu, theta)
            assert num == pytest.approx(closed, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("theta", [10.0, np.nan, -1.0], ids=["past-end", "nan", "negative"])
    @pytest.mark.parametrize("integral", [envelope_log_integral, envelope_log_integral_closed])
    def test_theta_guard_is_shared(self, integral, theta):
        # the domain is [0, mu / (4 alpha)) = [0, 1/4) for both routes
        with pytest.raises(ThetaOutOfRange):
            integral(1.0, 1.0, theta)
