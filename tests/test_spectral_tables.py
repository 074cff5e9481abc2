"""The batched spectral tables against independent per-entry oracles: the
blocked degree-4 Filon transform against direct panel sums with its own
weights, the graded kernel grid against ``n_kernel`` (``expm`` and an SVD
norm) or an exact propagator and its transform against a one-step grid
and against Filon-Simpson at a quarter step, and the stacked descent table
against Eulerian numbers."""

import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from conftest import congruent_n32, damped_mode
from oqrisk.cumulants import delta_table
from oqrisk.deviations import FILON_SERIES, DeviationAnalysis, _filon, _top_singular_value
from oqrisk.errors import InvalidArgument
from oqrisk.matfun import expm_ladder


def _lagrange_basis():
    """Monomial coefficients (low to high) of the quartic Lagrange basis on
    the nodes 0 .. 4, one row per node."""
    nodes = np.arange(5.0)
    return np.array([P.polyfromroots(np.delete(nodes, j)) / np.prod(j - np.delete(nodes, j))
                     for j in range(5)])


_GAUSS = np.polynomial.legendre.leggauss(16)


def _filon_weights(th):
    """The degree-4 Filon weights ``w_j = int_0^4 L_j(s) e^{i th s} ds`` of the
    five nodes of a panel, at ``th = lam h``: below ``|th| = 8`` by 16-point
    Gauss-Legendre on each unit step of the panel (exact to rounding there:
    the integrand's Taylor tail at degree 32 is below 1e-16), above from the
    moments ``int_0^4 s^k e^{i th s} ds``, by parts, which lose ~``eps 4^k k! /
    th^k`` there."""
    if abs(th) < 8.0:
        x, g = _GAUSS
        s = np.add.outer(np.arange(4.0), 0.5 * (x + 1.0)).ravel()
        g = np.tile(0.5 * g, 4)
        basis = [np.prod([(s - k) / (j - k) for k in range(5) if k != j], axis=0)
                 for j in range(5)]
        return (np.array(basis) * np.exp(1j * th * s)) @ g
    edge = np.exp(4j * th)
    moments = [(edge - 1.0) / (1j * th)]
    for k in range(1, 5):
        moments.append((4.0**k * edge - k * moments[-1]) / (1j * th))
    return _lagrange_basis() @ np.array(moments)


def _filon_direct(fvals, h, lam):
    """The degree-4 Filon rule at one frequency, panel by panel, with each
    panel's phase ``e^{i lam t_{4p}}`` from ``np.cos`` and ``np.sin`` of its
    start on the grid ``t_k = k h``: ``h sum_p e^{i lam t_{4p}} sum_j w_j
    f_{4p+j}``, the complex ``int f(t) e^{i lam t} dt``."""
    panels = fvals[4 * np.arange((fvals.size - 1) // 4)[:, None] + np.arange(5)]
    starts = 4.0 * h * np.arange(panels.shape[0])
    phases = np.cos(lam * starts) + 1j * np.sin(lam * starts)
    return h * (phases @ (panels @ _filon_weights(lam * h)))


def _simpson_weights(th):
    """Filon-Simpson's ``alpha, beta, gamma`` (Abramowitz & Stegun 25.4.47) at
    each of the 1-D ``th``: below ``|th| = 1`` as 20 terms of the sine and
    cosine series of ``alpha t^3 = t^2 + (t/2) sin 2t + cos 2t - 1``, ``beta
    t^3 = 3t + t cos 2t - 2 sin 2t`` and ``gamma t^3 = 4 (sin t - t cos t)``;
    above, the closed forms."""
    t = np.where(np.abs(th) < 1.0, th, 0.0)
    inv = [1.0 / math.factorial(j) for j in range(46)]
    alpha = sum((-1) ** k * (4**k * inv[2 * k] - 4 ** (k - 1) * inv[2 * k - 1]) * t ** (2 * k - 3)
                for k in range(3, 23))
    beta = sum((-1) ** k * (4**k * inv[2 * k] - 4 ** (k + 1) * inv[2 * k + 1]) * t ** (2 * k - 2)
               for k in range(1, 21))
    gamma = sum((-1) ** k * (4 * inv[2 * k + 1] - 4 * inv[2 * k]) * t ** (2 * k - 2)
                for k in range(1, 21))
    with np.errstate(divide="ignore", invalid="ignore"):
        s, c, cube = np.sin(th), np.cos(th), th**3
        closed = ((th * th + th * s * c - 2.0 * s * s) / cube,
                  2.0 * (th * (1.0 + c * c) - 2.0 * s * c) / cube, 4.0 * (s - th * c) / cube)
    return [np.where(np.abs(th) < 1.0, series, form)
            for series, form in zip((alpha, beta, gamma), closed)]


def _simpson(fvals, h, lams):
    """Filon-Simpson's ``int f(t) e^{i lam t} dt`` on the grid ``t_k = k h``
    (an odd sample count) at each of the 1-D ``lams``, from cosine and sine
    tables of the whole grid."""
    args = np.multiply.outer(lams, h * np.arange(fvals.size))
    ct, st = np.cos(args), np.sin(args)
    alpha, beta, gamma = _simpson_weights(lams * h)
    end = fvals[-1] * (ct[:, -1] + 1j * st[:, -1])
    even = (ct[:, 0::2] + 1j * st[:, 0::2]) @ fvals[0::2] - 0.5 * (fvals[0] + end)
    odd = (ct[:, 1::2] + 1j * st[:, 1::2]) @ fvals[1::2]
    return h * (-1j * alpha * (end - fvals[0]) + beta * even + gamma * odd)


def _power_exp_integral(p, lam, end):
    """``int_0^end t^p e^{i lam t} dt``: its power series below ``|lam end| =
    2``, and above the antiderivative ``e^{i lam t} sum_k (-1)^k p! / (p - k)!
    t^(p-k) / (i lam)^(k+1)``, which cancels at most ~100-fold there."""
    x = lam * end
    if abs(x) < 2.0:
        return end ** (p + 1) * sum((1j * x) ** j / (math.factorial(j) * (p + j + 1))
                                    for j in range(40))

    def antiderivative(t):
        return np.exp(1j * lam * t) * sum((-1) ** k * math.perm(p, k) * t ** (p - k)
                                          / (1j * lam) ** (k + 1) for k in range(p + 1))
    return complex(antiderivative(end) - antiderivative(0.0))


EXACTNESS_LAMS = [0.0, 0.003, 0.01, 0.03, 2.5, 40.0, 100.0, 100.02, 300.0, 300.06, 400.0,
                  1200.0]


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

    # lam h = 1.5e-4 (lam = 0.03) is where moment-built weights would lose
    # ~10 eps / (lam h)^3, 7e-4 relative; lam h = 0.5 (lam = 100) is inside
    # the series branch, lam h = 1.5 (lam = 300) is its edge, and lam = 400
    # and 1200 are past it
    @pytest.mark.parametrize("lam", EXACTNESS_LAMS)
    def test_exact_on_quadratic(self, lam):
        _exact_on_power(2, lam)

    @pytest.mark.parametrize("lam", EXACTNESS_LAMS)
    def test_exact_on_quartic(self, lam):
        _exact_on_power(4, lam)

    @pytest.mark.parametrize("case", ["paper", "damped"])
    def test_single_frequencies_match_the_table(self, case, paper_deviation):
        # a frequency's F does not depend on the block it is summed in: every
        # matrix product runs on a full block, and the rest is elementwise
        da = paper_deviation if case == "paper" else DeviationAnalysis(damped_mode(),
                                                                       np.diag([1.0, 2.0]))
        table = da._table
        picks = np.linspace(0, table.nodes.size - 1, 16).astype(int)
        singles = np.array([da.f_transform(lam) for lam in table.nodes[picks]])
        assert da.f_transform(0.0) == table.f0
        assert np.array_equal(singles, table.fvals[picks])

    @pytest.mark.parametrize("case", ["tiny", "paper"])
    def test_batch_does_not_move_a_frequency(self, case, tiny, paper):
        # bit for bit, alone or in a batch of 700 (three blocks, the last
        # padded), at any BLAS thread count the suite runs with
        da = DeviationAnalysis(tiny, np.eye(2)) if case == "tiny" else DeviationAnalysis(*paper)
        rng = np.random.default_rng(0)
        batch = rng.uniform(0.0, 60.0, 700)
        picks = rng.choice(batch.size, 60, replace=False)
        whole = da.f_transform(batch)
        assert np.array_equal([da.f_transform(lam) for lam in batch[picks]], whole[picks])

    def test_sample_counts_must_be_one_mod_four(self):
        with pytest.raises(InvalidArgument, match="1 mod 4"):
            _filon([(0.0, 0.1, np.ones(7))], np.array([1.0]))

    def test_steps_must_be_the_shortest_times_a_power_of_two(self):
        # steps (b - a) / (4 panels) over the stretches of the graded layout
        # round to four mantissas, and two steps 10/3 apart are no power of two apart
        for layout in ([(0.0, 2.0, 100), (2.0, 6.0, 100), (6.0, 8.72, 34), (8.72, 9.36, 4),
                        (9.36, 10.0, 2)], [(0.0, 3.0, 100), (3.0, 10.0, 70)]):
            segments = [(a, (b - a) / (4 * panels), np.linspace(a, b, 4 * panels + 1))
                        for a, b, panels in layout]
            with pytest.raises(InvalidArgument, match="power of two"):
                _filon(segments, np.array([1.0]))


def _exact_on_power(p, lam):
    # the degree-4 rule interpolates f by a quartic on each panel of four
    # steps, so f = t^p, p <= 4, is integrated exactly at any frequency: on
    # one step; on a graded grid laid as _build_grid lays it (segment s has
    # the step h 2^s exactly and starts at 4 h K, K its lag in units of 4 h),
    # whose segments read one table of unit phases; and on one segment at the
    # grid's 200_001-sample cap, folded 512 wide and 391 tall, whose phases
    # are the longest products of unit phases (17)
    end = 10.0
    want = _power_exp_integral(p, lam, end)
    h = end / 2000
    uniform = [(0.0, h, (h * np.arange(2001)) ** p)]
    graded, lags = [], 0
    for s, panels in enumerate([100, 100, 34, 4, 2]):  # stretches ending at 2, 6, 8.72, 9.36, 10
        start, step = 4.0 * h * lags, h * 2**s
        graded.append((start, step, (start + step * np.arange(4 * panels + 1)) ** p))
        lags += panels * 2**s
    capped = [(0.0, end / 200_000, (end / 200_000 * np.arange(200_001)) ** p)]
    for segments in (uniform, graded, capped):
        got = _filon(segments, np.array([lam]))[0]
        assert abs(got.real - want.real) <= 1e-12 * end ** (p + 1) / (p + 1)
        assert abs(got.imag - want.imag) <= 1e-12 * end ** (p + 1) / (p + 1)


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
        # 200_001 samples (a multiple of 4 steps), and N from the full (not
        # thin) factor Q R
        model, pi = _paper_or_random_n32(case, paper)
        da = DeviationAnalysis(model, pi)
        mu, alpha = da.envelope.mu, da.envelope.alpha
        f0_est = max(2.0 * alpha / mu, 1e-3)
        tau_star = math.log(max(2.0 * alpha / mu, 1e-6) / (1e-13 * max(f0_est, 1.0))) / mu
        omega = np.linalg.norm(model.a, 2) + mu
        h = (472.5 * 1e-8 * max(f0_est, 0.1) / (max(alpha, 1e-6) * omega**6 * tau_star)) ** (1 / 6)
        steps = 4 * math.ceil((np.clip(math.ceil(tau_star / h), 2001, 200_001) - 1) / 4)
        step = tau_star / steps
        samples = expm_ladder(model.a, model.eig, step, steps + 1, left=da.root_pi,
                              right=da.quantum @ da.root_pi, reduce=_top_singular_value)
        if case == "paper":
            assert steps + 1 == 6_417
        lams = da._table.nodes
        one_step = 2.0 * _filon([(0.0, step, samples)], lams).real
        assert np.abs(da.f_transform(lams) - one_step).max() <= 1e-9 * da.f_infnorm()

    # measured: 5.1e-11 F(0) on the paper fixture, 1.4e-12 on random-n32
    @pytest.mark.parametrize("case, tol", [("paper", 1e-10), ("random-n32", 1e-11)])
    def test_transform_matches_simpson_at_a_quarter_step(self, case, tol, paper):
        # F against Filon-Simpson on the same segments at a quarter of each
        # step (Simpson's error there is ~(h/4)^4 M4 / 180, far below the
        # degree-4 rule's at h), with N from the full factor Q R and every
        # phase a cosine or sine of the whole grid
        model, pi = _paper_or_random_n32(case, paper)
        da = DeviationAnalysis(model, pi)
        lams = da._table.nodes
        want = np.zeros(lams.size, dtype=complex)
        for start, step, vals in da._segments:
            fine = expm_ladder(model.a, model.eig, step / 4, 4 * vals.size - 3, left=da.root_pi,
                               right=da.quantum @ da.root_pi, reduce=_top_singular_value,
                               start=start)
            for lo in range(0, lams.size, 128):
                part = lams[lo:lo + 128]
                want[lo:lo + 128] += (np.exp(1j * part * start)
                                      * _simpson(fine, step / 4, part))
        err = np.abs(da.f_transform(lams) - 2.0 * want.real).max()
        assert err <= tol * da.f_infnorm()


def test_grid_is_built_on_first_transform(paper):
    # perfbench times deviations.grid_s through _build_grid while _grid is None
    da = DeviationAnalysis(*paper)
    assert da._grid is None
    da.f_transform(0.0)
    assert isinstance(da._grid, np.ndarray)
    # the 2001-sample floor binds (a priori ~1770), plus each segment's ceiling
    assert da._grid.size <= 2_009


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
        assert np.array_equal(vals.ravel()[::37], singles)
        assert paper_deviation.f_transform(np.array([])).shape == (0,)

    def test_degenerate_weight_gives_zeros(self, tiny):
        da = DeviationAnalysis(tiny, np.zeros((2, 2)))
        assert da.f_transform(0.7) == 0.0 and type(da.f_transform(0.7)) is float
        vals = da.f_transform(np.ones((2, 3)))
        assert vals.shape == (2, 3) and not vals.any()
