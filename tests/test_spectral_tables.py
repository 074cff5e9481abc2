"""The batched spectral tables against independent per-entry oracles: the
blocked Filon transform against direct cosine and sine sums, the graded
kernel grid against ``n_kernel`` (``expm`` and an SVD norm) or an exact
propagator and its transform against a one-step grid, and the stacked
descent table against Eulerian numbers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import congruent_n32, damped_mode
from oqrisk.cumulants import delta_table
from oqrisk.deviations import FILON_SERIES, DeviationAnalysis, _filon, _top_singular_value
from oqrisk.matfun import expm_ladder


def _filon_weights(th):
    """Filon's ``alpha, beta, gamma`` at ``th = lam h``: below ``|th| = 1`` as
    exact rational sums of 20 terms of the sine and cosine series of
    ``alpha t^3 = t^2 + (t/2) sin 2t + cos 2t - 1``, ``beta t^3 = 3t + t cos 2t
    - 2 sin 2t`` and ``gamma t^3 = 4 (sin t - t cos t)``; above, the closed forms."""
    if abs(th) >= 1.0:
        s, c = math.sin(th), math.cos(th)
        return ((th * th + th * s * c - 2.0 * s * s) / th**3,
                2.0 * (th * (1.0 + c * c) - 2.0 * s * c) / th**3, 4.0 * (s - th * c) / th**3)
    t = Fraction(th)

    def term(k, c, power):  # (-1)^k c t^power, c an exact rational
        return (-1) ** k * c * t**power

    def inv(j):
        return Fraction(1, math.factorial(j))

    alpha = sum(term(k, 4**k * inv(2 * k) - 4 ** (k - 1) * inv(2 * k - 1), 2 * k - 3)
                for k in range(3, 23))
    beta = sum(term(k, 4**k * inv(2 * k) - 4 ** (k + 1) * inv(2 * k + 1), 2 * k - 2)
               for k in range(1, 21))
    gamma = sum(term(k, 4 * inv(2 * k + 1) - 4 * inv(2 * k), 2 * k - 2) for k in range(1, 21))
    return float(alpha), float(beta), float(gamma)


def _filon_direct(fvals, h, lam):
    """Filon's cosine and sine rules at one frequency, written out with
    ``np.cos`` and ``np.sin`` over the whole grid ``t_k = k h``, as the
    complex ``int f(t) e^{i lam t} dt``."""
    grid = h * np.arange(fvals.size)
    alpha, beta, gamma = _filon_weights(lam * h)
    ct, st = np.cos(lam * grid), np.sin(lam * grid)
    cos_even = fvals[0::2] @ ct[0::2] - 0.5 * (fvals[0] + fvals[-1] * ct[-1])
    sin_even = fvals[0::2] @ st[0::2] - 0.5 * fvals[-1] * st[-1]
    cos = alpha * fvals[-1] * st[-1] + beta * cos_even + gamma * (fvals[1::2] @ ct[1::2])
    sin = -alpha * (fvals[-1] * ct[-1] - fvals[0]) + beta * sin_even + gamma * (fvals[1::2] @ st[1::2])
    return h * (cos + 1j * sin)


def _t2_exp_integral(lam, end):
    """``int_0^end t^2 e^{i lam t} dt``: power series below ``lam end = 1``,
    closed forms of the cosine and sine parts above."""
    x = lam * end
    if abs(x) < 1.0:
        cos = [(-1) ** j * x ** (2 * j) / (math.factorial(2 * j) * (2 * j + 3))
               for j in range(12)]
        sin = [(-1) ** j * x ** (2 * j + 1) / (math.factorial(2 * j + 1) * (2 * j + 4))
               for j in range(12)]
        return end**3 * complex(math.fsum(cos), math.fsum(sin))
    cos = (end**2 * math.sin(x) / lam + 2.0 * end * math.cos(x) / lam**2
           - 2.0 * math.sin(x) / lam**3)
    sin = (-end**2 * math.cos(x) / lam + 2.0 * end * math.sin(x) / lam**2
           + 2.0 * (math.cos(x) - 1.0) / lam**3)
    return complex(cos, sin)


class TestBlockedFilon:
    def test_matches_direct_sum(self, paper_deviation):
        da = paper_deviation
        table, base = da._table, da._lam_base()
        segments = da._segments
        lams = np.concatenate((
            # the series branch and its edge, on the first and on a later segment
            np.array([0.0, 1e-6, 1e-4, 0.01, 0.1, 1.0, 1.001]) * FILON_SERIES / segments[0][1],
            np.array([0.1, 1.0, 1.001]) * FILON_SERIES / segments[4][1],
            base * 2.0 ** np.array([-40, -20, -4, -3]),  # the pseudo-pole's ladder at 0
            base / 8.0 * np.array([1, 2, 5]),
            # interior nodes, picked by their fraction of the table
            table.nodes[(np.array([0.1, 0.3, 0.5, 0.7, 0.9]) * table.nodes.size).astype(int)],
            [base],  # the tail cut
            table.nodes[-2:],  # the table top
        ))
        got = _filon(segments, lams)
        want = np.array([sum(np.exp(1j * lam * start) * _filon_direct(vals, step, lam)
                             for start, step, vals in segments) for lam in lams])
        scale = sum(step * np.abs(vals).sum() for _, step, vals in segments)  # int |f|
        assert np.abs(got - want).max() <= 1e-13 * scale

    # lam h = 1.5e-4 (lam = 0.03) is where closed-form weights would lose
    # ~eps / (lam h)^2, 1e-8 relative; lam h = 0.5 (lam = 100) is the series edge
    @pytest.mark.parametrize("lam", [0.0, 0.003, 0.01, 0.03, 2.5, 40.0, 100.0, 100.02, 400.0])
    def test_exact_on_quadratic(self, lam):
        # Filon's rules interpolate f by a quadratic on each panel pair, so
        # f = t^2 is integrated exactly at any frequency, on one step, on a
        # graded grid whose step doubles from segment to segment, and on one
        # segment at the grid's 200_001-sample cap, folded 512 wide and 391
        # tall, whose phases are the longest products of unit phases (17)
        end = 10.0
        want = _t2_exp_integral(lam, end)
        h = end / 2000
        uniform = [(0.0, h, (h * np.arange(2001)) ** 2)]
        graded = [(a, (b - a) / (2 * pairs), np.linspace(a, b, 2 * pairs + 1) ** 2)
                  for a, b, pairs in [(0.0, 2.0, 200), (2.0, 5.0, 150), (5.0, end, 125)]]
        capped = [(0.0, end / 200_000, (end / 200_000 * np.arange(200_001)) ** 2)]
        for segments in (uniform, graded, capped):
            got = _filon(segments, np.array([lam]))[0]
            assert abs(got.real - want.real) <= 1e-12 * end**3 / 3.0
            assert abs(got.imag - want.imag) <= 1e-12 * end**3 / 3.0

    @pytest.mark.parametrize("case", ["paper", "damped"])
    def test_single_frequencies_match_the_table(self, case, paper_deviation):
        # a frequency's F hardly depends on the block it is summed in: the
        # products and sums of a one-frequency call round as the table's do,
        # up to the order of the matrix product's sums
        da = paper_deviation if case == "paper" else DeviationAnalysis(damped_mode(),
                                                                       np.diag([1.0, 2.0]))
        table = da._table
        picks = np.linspace(0, table.nodes.size - 1, 16).astype(int)
        singles = np.array([da.f_transform(lam) for lam in table.nodes[picks]])
        assert da.f_transform(0.0) == pytest.approx(table.f0, rel=4 * np.finfo(float).eps)
        assert np.abs(singles - table.fvals[picks]).max() <= 4 * np.finfo(float).eps * table.f0


def _grid_sample(model, pi):
    """The kernel grid at the first two and last two samples of every
    segment (both sides of each boundary) and at each segment's middle,
    with their lags; the grid holds ``N`` times ``da._unit``."""
    da = DeviationAnalysis(model, pi)
    da._build_grid()
    picks = [(start + k * step, vals[k] / da._unit) for start, step, vals in da._segments
             for k in (0, 1, vals.size // 2, vals.size - 2, vals.size - 1)]
    taus, samples = np.array(picks).T
    return da, samples, taus


def _paper_or_random_n32(case, paper):
    return paper if case == "paper" else congruent_n32()


class TestKernelGrid:
    @pytest.mark.parametrize("case", ["paper", "random-n32"])
    def test_matches_n_kernel(self, case, paper):
        model, pi = _paper_or_random_n32(case, paper)
        assert model.is_hurwitz
        da, samples, taus = _grid_sample(model, pi)
        assert len(da._segments) > 1
        oracle = np.array([da.n_kernel(tau) for tau in taus])
        assert np.abs(samples - oracle).max() <= 1e-13 * da.n0

    def test_damped_mode(self):
        # e^{tau A} = e^{-0.003 tau} (rotation by 10 tau) exactly; that is the
        # oracle here, as the grid reaches tau ~ 1.7e4, where n_kernel's
        # expm(tau A) is off by ~1e-11 (2e-13 already at ||tau A|| = 100)
        model, pi = damped_mode(), np.diag([1.0, 2.0])
        da, samples, taus = _grid_sample(model, pi)
        c, s = np.cos(10.0 * taus), np.sin(10.0 * taus)
        props = np.exp(-0.003 * taus)[:, None, None] * np.stack(
            [np.stack([c, s], -1), np.stack([-s, c], -1)], -2)
        exact = np.linalg.norm(da.root_pi @ props @ da.quantum @ da.root_pi, 2, axis=(-2, -1))
        assert np.abs(samples - exact).max() <= 1e-13 * da.n0

    @pytest.mark.parametrize("case", ["paper", "random-n32"])
    def test_transform_matches_one_step_grid(self, case, paper):
        # the one-step grid the graded grid replaced, written out: the
        # a priori step h for the budget eps_f over [0, tau*], with 2001 to
        # 200_001 samples, and N from the full (not thin) factor Q R
        model, pi = _paper_or_random_n32(case, paper)
        da = DeviationAnalysis(model, pi)
        mu, alpha = da.envelope.mu, da.envelope.alpha
        f0_est = max(2.0 * alpha / mu, 1e-3)
        tau_star = math.log(max(2.0 * alpha / mu, 1e-6) / (1e-13 * max(f0_est, 1.0))) / mu
        omega = np.linalg.norm(model.a, 2) + mu
        h = (180.0 * 1e-8 * max(f0_est, 0.1) / (max(alpha, 1e-6) * omega**4 * tau_star)) ** 0.25
        npts = int(np.clip(math.ceil(tau_star / h), 2001, 200_001)) | 1  # odd
        step = tau_star / (npts - 1)
        samples = expm_ladder(model.a, model.eig, step, npts, left=da.root_pi,
                              right=da.quantum @ da.root_pi, reduce=_top_singular_value)
        if case == "paper":
            assert npts == 28_419
        lams = da._table.nodes
        one_step = 2.0 * _filon([(0.0, step, samples)], lams).real
        assert np.abs(da.f_transform(lams) - one_step).max() <= 1e-9 * da.f_infnorm()


def test_grid_is_built_on_first_transform(paper):
    # perfbench times deviations.grid_s through _build_grid while _grid is None
    da = DeviationAnalysis(*paper)
    assert da._grid is None
    da.f_transform(0.0)
    assert isinstance(da._grid, np.ndarray)
    assert da._grid.size <= 28_419 // 4  # a quarter of the one-step grid


class TestDescentTableEulerian:
    def test_r12_pattern_sums_are_eulerian(self):
        # sum of Delta_{12, gamma} over the patterns with k descents counts
        # the permutations of 11 elements with k descents: A(11, k)
        r = 12
        by_descents = [0] * (r - 1)
        for pattern, count in delta_table(r).counts.items():
            by_descents[sum(pattern)] += count
        eulerian = [sum((-1) ** j * math.comb(r, j) * (k + 1 - j) ** (r - 1) for j in range(k + 2))
                    for k in range(r - 1)]
        assert by_descents == eulerian


class TestFTransformShape:
    def test_scalar_gives_float(self, paper_deviation):
        assert type(paper_deviation.f_transform(0.5)) is float
        assert type(paper_deviation.f_transform(np.float64(0.5))) is float

    def test_array_keeps_shape(self, paper_deviation):
        # 600 frequencies span three blocks; each entry is its scalar value
        lams = np.linspace(0.0, 60.0, 600).reshape(20, 30)
        vals = paper_deviation.f_transform(lams)
        assert isinstance(vals, np.ndarray) and vals.shape == lams.shape
        singles = np.array([paper_deviation.f_transform(lam) for lam in lams.ravel()[::37]])
        assert np.abs(vals.ravel()[::37] - singles).max() <= 1e-14 * paper_deviation.f_infnorm()
        assert paper_deviation.f_transform(np.array([])).shape == (0,)

    def test_degenerate_weight_gives_zeros(self, tiny):
        da = DeviationAnalysis(tiny, np.zeros((2, 2)))
        assert da.f_transform(0.7) == 0.0 and type(da.f_transform(0.7)) is float
        vals = da.f_transform(np.ones((2, 3)))
        assert vals.shape == (2, 3) and not vals.any()
