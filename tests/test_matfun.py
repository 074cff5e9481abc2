import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oqrisk

from conftest import by_blocks, damped_mode, paper_example_model
from oqrisk.deviations import GRADE_DEPTH, DeviationAnalysis
from oqrisk.errors import (
    NoConvergence,
    NotHurwitz,
    NotPsd,
    NumericalDefect,
    ThetaOutOfRange,
)
from oqrisk.matfun import (
    RULE_ORDER,
    _frequency_rule,
    _kronrod,
    _legendre,
    _logdet_i_minus,
    _panels,
    _resonance_edges,
    _rule_layout,
    eig_basis,
    expm,
    expm_ladder,
    integrate_frequency,
    lyap_solve,
    opnorm2,
    sqrt_psd,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def kron_lyap(a, q):
    """Reference oracle: the Lyapunov equation as a dense n^2 x n^2 system."""
    n = a.shape[0]
    kron = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    return np.linalg.solve(kron, -q.flatten(order="F")).reshape((n, n), order="F")


def random_hurwitz(rng, n):
    a = rng.standard_normal((n, n))
    return a - (np.linalg.eigvals(a).real.max() + rng.uniform(0.2, 2.0)) * np.eye(n)


class TestExpm:
    def test_zero_time_is_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(expm(a, 0.0), np.eye(2))

    def test_diagonal(self):
        out = expm(-np.eye(2), 1.0)
        assert np.allclose(out, np.exp(-1.0) * np.eye(2), atol=1e-14)

    def test_rotation_quarter_turn(self):
        # e^{tau J2} = [[cos, sin], [-sin, cos]]
        out = expm(J2, np.pi / 2)
        assert np.abs(out - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-12

    def test_semigroup_on_random_stable(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
            s, t = rng.uniform(0.1, 2.0, 2)
            lhs = expm(a, s + t)
            rhs = expm(a, s) @ expm(a, t)
            assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(lhs).max()

    def test_overflow_guard(self):
        from oqrisk.errors import NumericalDefect

        with pytest.raises(NumericalDefect):
            expm(np.diag([1000.0, -1.0]), 1.0)

    def test_expm_multi_matches_pointwise(self):
        # batched lag ladder against pointwise expm: a diagonalizable drift
        # (eigenvector route) and a Jordan block (stepping fallback)
        rng = np.random.default_rng(3)
        jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
        for a in (rng.standard_normal((3, 3)) - 2.0 * np.eye(3), jordan):
            basis = eig_basis(a)
            assert (basis.inverse is None) == (a is jordan)
            eye = np.eye(len(a))
            batch = expm_ladder(a, basis, 0.3, 7, left=eye, right=eye, reduce=lambda b: b)
            assert batch.shape == (7, len(a), len(a))
            for k in range(7):
                assert np.abs(batch[k] - expm(a, 0.3 * k)).max() < 1e-11
            # a later start: the eigenvector phases, or the stepping from expm(1.1 a)
            late = expm_ladder(a, basis, 0.3, 7, left=eye, right=eye, reduce=lambda b: b,
                               start=1.1)
            for k in range(7):
                assert np.abs(late[k] - expm(a, 1.1 + 0.3 * k)).max() < 1e-11

    def test_ladder_factors_and_chunks(self, monkeypatch):
        import oqrisk.matfun as matfun

        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        left = rng.standard_normal((2, 3))
        right = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        # a budget of exactly three complex 2 x 3 lags
        monkeypatch.setattr(matfun, "_LADDER_BYTES", 3 * 2 * 3 * 16)
        sizes = []
        batch = expm_ladder(a, eig_basis(a), 0.2, 8, left=left, right=right,
                            reduce=lambda block: sizes.append(len(block)) or block)
        assert sizes == [3, 3, 2]
        for k in range(8):
            assert np.abs(batch[k] - left @ expm(a, 0.2 * k) @ right).max() < 1e-11


class TestLyap:
    def test_closed_form_diagonal(self):
        x = lyap_solve(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(x, np.eye(2), atol=1e-13)

    def test_tiny_gramian(self):
        x = lyap_solve(-np.eye(2), J2 @ J2.T)
        assert np.allclose(x, 0.5 * np.eye(2), atol=1e-13)

    def test_residual_on_random_hurwitz(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            a = random_hurwitz(rng, n)
            q = rng.standard_normal((n, n))
            q = q @ q.T
            x = lyap_solve(a, q)
            res = np.linalg.norm(a @ x + x @ a.T + q)
            scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
            assert res <= 1e-10 * scale

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(12)
        for n in (2, 4, 6, 8):
            for _ in range(20):
                a = random_hurwitz(rng, n)
                q = rng.standard_normal((n, n))
                x, ref = lyap_solve(a, q), kron_lyap(a, q)
                assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_residual_certified_at_n48(self):
        rng = np.random.default_rng(13)
        a = random_hurwitz(rng, 48)
        q = rng.standard_normal((48, 48))
        q = q @ q.T
        x = lyap_solve(a, q)
        res = np.linalg.norm(a @ x + x @ a.T + q)
        assert res <= 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q))

    def test_symmetry_inherited(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        q = rng.standard_normal((3, 3))
        qs = q + q.T
        x = lyap_solve(a, qs)
        assert np.abs(x - x.T).max() < 1e-12 * np.abs(x).max()

    def test_complex_drift(self):
        # the shape of the classical rates' closed loop A + F X: the damped
        # mode (-0.003 +- 10i) with a complex Hermitian feedback F; the
        # equation is AX + XA^H + Q = 0 and a Hermitian Q gives a Hermitian X
        model = damped_mode()
        a = model.a - model.b @ model.omega @ model.b.T @ np.diag([1.0, 2.0])
        assert np.linalg.eigvals(a).real.max() < -1e-3
        q = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        x = lyap_solve(a, q)
        res = np.linalg.norm(a @ x + x @ a.conj().T + q)
        assert res <= 1e-12 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q))
        assert np.abs(x - x.conj().T).max() <= 1e-15 * np.abs(x).max()
        kron = np.kron(np.eye(2), a) + np.kron(a.conj(), np.eye(2))
        ref = np.linalg.solve(kron, -q.flatten(order="F")).reshape((2, 2), order="F")
        assert np.abs(x - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_real_drift_with_complex_q(self):
        # the twin's Gramian theta Sigma: a real A with the complex Hermitian
        # Q = theta B Omega B' of the paper fixture solves as its complex cast
        model, _ = paper_example_model()
        a, q = model.a, 0.001 * model.b @ model.omega @ model.b.T
        x = lyap_solve(a, q)
        assert np.array_equal(x, lyap_solve(a.astype(complex), q))
        res = np.linalg.norm(a @ x + x @ a.T + q)
        assert res <= 1e-12 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q))

    def test_rejects_non_hurwitz(self):
        with pytest.raises(NotHurwitz):
            lyap_solve(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(NotHurwitz):
            lyap_solve(np.diag([-1.0, 1e-12]), np.eye(2))


class TestOpnorm:
    def test_rotation_norm_one(self):
        assert opnorm2(J2) == pytest.approx(1.0, abs=1e-12)

    def test_projector(self):
        k = 0.5 * (np.eye(2) + 1j * J2)  # Hermitian with eigenvalues {0, 1}
        assert opnorm2(k) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert opnorm2(np.zeros((3, 3))) == 0.0


class TestSqrtPsd:
    def test_identity(self):
        assert np.array_equal(sqrt_psd(np.eye(3)), np.eye(3))

    def test_scaled_identity(self):
        assert np.allclose(sqrt_psd(4.0 * np.eye(2)), 2.0 * np.eye(2))

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            b = rng.standard_normal((n, n))
            k = b @ b.T
            root = sqrt_psd(k)
            assert np.abs(root @ root - k).max() <= 1e-10 * max(1.0, np.abs(k).max())

    def test_clips_rounding_band(self):
        k = np.diag([1.0, -1e-14])
        root = sqrt_psd(k)
        assert root[1, 1] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            sqrt_psd(np.diag([1.0, -0.5]))


def _stacked_psd(rng, count, n, complex_):
    """``count`` random PSD ``n x n`` matrices of unit operator norm, real or
    Hermitian, stacked."""
    g = rng.standard_normal((count, n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((count, n, n))
    w = g @ g.conj().swapaxes(-1, -2)
    return w / np.linalg.norm(w, 2, axis=(-2, -1))[:, None, None]


class TestLogdetIMinus:
    """``_logdet_i_minus``: ``ln det(I - X)`` as ``sum log1p(-s_j)`` with its
    Cholesky factor, accurate to the last digits however small ``X`` is."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("scale", [1e-14, 1e-9, 1e-4, 0.5])
    def test_matches_log1p_of_the_eigenvalues(self, complex_, scale):
        # one sign per stack: the eigenvalues' terms do not cancel, so the
        # relative gap is the two forms' rounding (a few eps each)
        rng = np.random.default_rng(3)
        for sign in (1.0, -1.0):
            x = sign * scale * _stacked_psd(rng, 5, 6, complex_)
            got, chol = _logdet_i_minus(x)
            ref = np.log1p(-np.linalg.eigvalsh(x)).sum(-1)
            assert got.shape == (5,)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
            eye = np.eye(6)
            assert np.abs(chol @ chol.conj().swapaxes(-1, -2) - (eye - x)).max() <= 1e-15
            assert np.array_equal(chol, np.linalg.cholesky(eye - x))

    def test_diagonal_closed_form(self):
        # a diagonal X has s_j = x_jj exactly, down to 1e-300
        d = np.array([[1e-300, 1e-14, -3e-9, 0.25], [0.0, 0.0, 0.0, 0.0]])
        got, _ = _logdet_i_minus(d[:, :, None] * np.eye(4))
        assert np.array_equal(got, np.log1p(-d).sum(-1))
        assert got[0] != 0.0 and got[1] == 0.0

    @pytest.mark.parametrize("off", [3e-8, 2e-8 - 1e-8j])
    def test_two_by_two_closed_form(self, off):
        # det(I - X) = (1 - a)(1 - c) - |b|^2 for X = [[a, conj b], [b, c]]
        a, c = 1e-9, -4e-10
        x = np.array([[a, np.conj(off)], [off, c]])
        got, _ = _logdet_i_minus(x)
        exact = np.log1p(-a) + np.log1p(-c) + np.log1p(-abs(off) ** 2 / ((1 - a) * (1 - c)))
        assert got == pytest.approx(exact, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("top", [1.0, 1.5])
    def test_refuses_a_non_positive_i_minus_x(self, top):
        x = np.stack([np.diag([0.5, 1e-3]), np.diag([top, 0.0])])
        with pytest.raises(ThetaOutOfRange):
            _logdet_i_minus(x)
        with pytest.raises(ThetaOutOfRange):
            _logdet_i_minus(1j * 0.0 + x[1])

    def test_refuses_a_nan(self):
        x = np.diag([0.1, np.nan])
        with pytest.raises(NumericalDefect):
            _logdet_i_minus(x)
        with pytest.raises(NumericalDefect):
            _logdet_i_minus(np.stack([np.eye(2) * 0.1, x]))


def lorentzian(lam, centre, width):
    return width / np.pi / ((lam - centre) ** 2 + width**2)


class TestQuadrature:
    """The frequency rule, integrate_frequency."""

    def test_lorentzian_over_line(self):
        # widths 1 and 1e-3 at +-10, each of unit mass over the line: the
        # sum is even, so the half line carries half of the mass 4
        def f(lam):
            return sum(lorentzian(lam, c, w) for c in (-10.0, 10.0) for w in (1.0, 1e-3))

        poles = [-1.0 + 10j, -1.0 - 10j, -1e-3 + 10j, -1e-3 - 10j]
        assert integrate_frequency(by_blocks(f), poles) == pytest.approx(2.0, rel=1e-12, abs=0.0)

    def test_matrix_valued(self):
        def f(lam):
            lam = lam[:, None, None]
            one, two = 1.0 + lam**2, 4.0 + lam**2
            return np.block([[1.0 / one, 1.0 / one**2], [lam**2 / one**2, 2.0 / two]])

        out = integrate_frequency(by_blocks(f), [-1.0, -2.0])
        assert out.shape == (2, 2)
        assert np.abs(out - np.pi / 2 * np.array([[1.0, 0.5], [0.5, 1.0]])).max() < 1e-12

    def test_zero_integrand(self):
        assert integrate_frequency(by_blocks(np.zeros_like), [-1.0 + 3j, -1.0 - 3j]) == 0.0

    def test_slow_decay_rejected(self):
        # 1/|lam| tails are not integrable: the tail panels never settle
        with pytest.raises(NoConvergence):
            integrate_frequency(by_blocks(lambda lam: 1.0 / (1.0 + np.abs(lam))), [-1.0])

    def test_missing_narrow_pole_is_refused(self):
        # the rule is graded for width-1 resonances only: halving cannot
        # resolve the width-1e-3 one within the fixed depth
        def f(lam):
            return lorentzian(lam, 10.0, 1.0) + lorentzian(lam, 10.0, 1e-3)

        with pytest.raises(NoConvergence):
            integrate_frequency(by_blocks(f), [-1.0 + 10j, -1.0 - 10j])

    def test_table_is_the_gauss_half_of_the_rule(self, paper):
        # the tail bounds' table keeps the Gauss nodes of the rule's Kronrod
        # panels: 16-point Legendre panels on the resonance edges of the pair
        # poles and the pseudo-pole at 0, then the mapped tail, bit for bit
        da = DeviationAnalysis(*paper)
        base, mu = da._lam_base(), da.model.eig.values
        poles = np.append(np.add.outer(mu, mu.conj()), -base * 2.0**-GRADE_DEPTH)
        edges = _resonance_edges(poles, base)
        x, w = np.polynomial.legendre.leggauss(16)
        half, s = 0.5 * np.diff(edges)[:, None], 0.5 * (1.0 + x)
        assert np.array_equal(da._table.nodes, np.concatenate(
            [(edges[:-1, None] + half * (1.0 + x)).ravel(), base / s]))
        assert np.array_equal(da._table.weights, np.concatenate(
            [(half * w).ravel(), 0.5 * w * base / s**2]))
        # the Legendre nodes are computed once per order and shared read-only
        cached = _legendre(16)
        assert _legendre(16) is cached
        with pytest.raises(ValueError):
            cached[0][0] = 0.0

    def test_kronrod_extends_the_gauss_rule(self):
        # the 33-node Kronrod rule keeps the 16 Gauss nodes, has positive
        # weights, integrates x^k exactly for k <= 3 * 16 + 1 and embeds the
        # Gauss weights at the Gauss nodes
        x, wk, wg = _kronrod(16)
        xg, w16 = _legendre(16)
        assert x.size == wk.size == wg.size == 33
        assert np.abs(np.subtract.outer(xg, x)).min(axis=1).max() <= 1e-15
        assert np.all(wk > 0.0) and np.all(np.abs(x) < 1.0)
        assert np.array_equal(wg[np.isin(x, xg)], w16) and np.count_nonzero(wg) == 16
        for k in range(50):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(wk @ x**k - exact) <= 1e-14, k
            assert abs(wg @ x**k - exact) <= 1e-14 or k >= 32, k

    def test_kronrod_rule_cached_read_only(self):
        cached = _kronrod(16)
        assert _kronrod(16) is cached
        for a in cached:
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_layout_cached_per_pole_set(self):
        # the rule's panels lie on the fresh _resonance_edges, bit for bit, its
        # nodes are read-only, and each pole set and upper end has its own
        layouts = []
        for poles in (paper_example_model()[0].eig.values, damped_mode().eig.values):
            span = 2.0 * np.abs(poles).max() + 1.0
            nodes = _frequency_rule(poles, span, 0)[0]
            mid = _panels(_resonance_edges(poles, span), *_kronrod(RULE_ORDER))[0]
            assert np.array_equal(nodes[:mid.size], mid)
            with pytest.raises(ValueError):
                nodes[0] = 1.0
            assert _frequency_rule(poles, span, 0)[0] is nodes
            assert not np.array_equal(_frequency_rule(poles, 2.0 * span, 0)[0][:mid.size], mid)
            layouts.append(nodes)
        assert layouts[0].size != layouts[1].size or not np.array_equal(*layouts)

    def test_rule_cached_per_pole_set_and_level(self):
        # nodes and weights are built once per pole set, upper end and level,
        # read-only, and equal a fresh build bit for bit
        poles = paper_example_model()[0].eig.values
        span = 2.0 * np.abs(poles).max() + 1.0
        for level in (0, 1):
            nodes, weights = _frequency_rule(poles, span, level)
            assert _frequency_rule(list(poles), span, level)[0] is nodes
            fresh = _rule_layout.__wrapped__(poles.tobytes(), span, level)
            assert np.array_equal(nodes, fresh[0]) and np.array_equal(weights, fresh[1])
            for a in (nodes, weights):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    def test_panels_no_wider_than_pole_distance(self):
        poles = np.array([-0.003 + 10j, -0.003 - 10j, -2.0])
        span = 2.0 * np.abs(poles).max() + 1.0  # integrate_frequency's upper end
        edges = _resonance_edges(poles, span)
        assert edges[0] == 0.0 and edges[-1] == span
        centres = np.concatenate([poles.imag, -poles.imag])
        depths = np.abs(np.concatenate([poles.real, poles.real]))
        for a, b in zip(edges[:-1], edges[1:]):
            gap = np.maximum(np.maximum(a - centres, centres - b), 0.0)
            assert b - a <= np.hypot(gap, depths).min()

    def test_array_ladder_matches_per_centre_ladders(self):
        # a spectrum like the n = 32 benchmark model's (frequencies 0.5..3,
        # dampings 0.45..1, randomly paired) and its pair poles mu_i +
        # conj(mu_j), Im >= 0, with the tail-bound table's pseudo-pole at 0
        rng = np.random.default_rng(32)
        freqs, damps = np.linspace(0.5, 3.0, 16), rng.permutation(np.linspace(0.45, 1.0, 16))
        mu = np.concatenate([-damps + 1j * freqs, -damps - 1j * freqs])
        pairs = np.add.outer(mu, mu.conj()).ravel()
        pairs = np.append(pairs[pairs.imag >= 0.0], -70.0 * 2.0**-40)
        for poles, upper in ((mu, 2.0 * np.abs(mu).max() + 1.0), (pairs, 70.0 * 2.0**3)):
            assert np.array_equal(_resonance_edges(poles, upper),
                                  _per_centre_edges(poles, upper))


def _per_centre_edges(poles, upper):
    """The frequency rule's edges with each centre's dyadic ladder built in a
    loop of its own, to its own first rung past ``2 upper``."""
    centres = np.concatenate([poles.imag, -poles.imag])
    depths = np.abs(np.concatenate([poles.real, poles.real]))
    cands = [np.array([0.0, upper])]
    for c, d in zip(centres, depths):
        steps = d / 8.0 * 2.0 ** np.arange(int(np.ceil(np.log2(16.0 * upper / d))) + 1)
        cands.append(c + np.concatenate(([0.0], steps, -steps)))
    cands = np.unique(np.concatenate(cands))
    cands = cands[(cands >= 0.0) & (cands <= upper)]
    picked = [0]
    while picked[-1] < cands.size - 1:
        # scan ahead in blocks of 256 candidates to the first that does not fit
        a, lo = cands[picked[-1]], picked[-1] + 1
        while lo < cands.size:
            b = cands[lo:lo + 256]
            gap = np.maximum(np.maximum(a - centres[:, None], centres[:, None] - b), 0.0)
            misfit = np.flatnonzero(b - a > np.hypot(gap, depths[:, None]).min(axis=0))
            if misfit.size:
                lo += misfit[0]
                break
            lo += b.size
        picked.append(max(lo - 1, picked[-1] + 1))  # a panel spans at least one step
    return cands[picked]


def test_import_leaves_scipy_integrate_out():
    # every frequency integral goes through integrate_frequency; a second
    # integration path would pull scipy.integrate in
    env = dict(os.environ, PYTHONPATH=str(Path(oqrisk.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, oqrisk; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
