"""Cramer-type tail bounds for the running quadratic cost.

Everything is driven by the scalar kernel ``N(tau) = ||sqrt(Pi) S(tau)
sqrt(Pi)||`` (operator norm) and its cosine transform ``F``.  For risk
parameters ``0 <= theta < 1/(2 F(0))`` the exponential-cost growth rate is
bounded by

    qef_upper_rate(theta) = -(n / 4 pi) * integral ln(1 - 2 theta F(lam)) dlam,

and Legendre transformation of that bound yields a tail estimate for
``phi(t)/t`` above a scale ``eps``.  Two evaluation routes are provided:

* numeric: ``F`` from high-order product (Filon) cosine quadrature of the
  sampled kernel, tabulated once on a graded composite Gauss-Legendre rule;
  the frequency integrals are weighted sums over that table with an
  analytically corrected tail, and the optimal ``theta`` comes from
  bisection on the monotone derivative equation;
* closed form: the exponential envelope ``N(tau) <= alpha e^{-mu |tau|}``
  certified by a Lyapunov inequality, for which every integral is explicit
  and the bound is ``(n mu / 4)(2 - n alpha / eps - eps / (n alpha))``.

``|F(lam)| <= F(0)`` holds because ``N >= 0``:
``|F(lam)| = |2 int N cos| <= 2 int N = F(0)``; tests sample this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DefectiveAndUnstableShift,
    EpsilonTooSmall,
    NoConvergence,
    NotHurwitz,
    NumericalDefect,
    ThetaOutOfRange,
)
from .gaussian import gramian_steady
from .matfun import expm, expm_ladder, inv_sqrt_psd, lyap_solve, opnorm2, sqrt_psd
from .model import OqhoModel
from .quartic import _as_weight

__all__ = [
    "EnvelopeParams",
    "TailBoundCurve",
    "DeviationAnalysis",
    "envelope_params",
    "cramer_bound_closed",
    "closed_theta_star",
    "envelope_log_integral",
    "envelope_log_integral_closed",
]


@dataclass(frozen=True)
class EnvelopeParams:
    """Exponential-envelope certificate ``N(tau) <= alpha e^{-mu tau}``.

    ``gamma`` solves the Lyapunov inequality ``A G + G A' <= -2 mu G``;
    ``alpha`` is the induced amplitude from the weighted norms.
    """

    mu: float
    gamma: np.ndarray
    alpha: float


@dataclass(frozen=True)
class TailBoundCurve:
    """Tail-bound values over a grid of scale parameters."""

    epsilon: np.ndarray
    bound: np.ndarray
    theta_star: np.ndarray
    method: str  # "closed_form" | "numeric"


def envelope_params(model: OqhoModel, pi) -> EnvelopeParams:
    """Decay-rate certificate for the kernel envelope.

    For diagonalizable drifts (eigenvector condition number below 1e8)
    takes ``mu`` as the negated spectral abscissa and ``Gamma = U U*``
    from unit-norm eigenvectors (real by conjugate pairing, which is
    asserted).  Otherwise retreats to ``mu' = 0.9 mu`` and solves the
    shifted Lyapunov equation ``(A + mu' I) G + G (A + mu' I)' = -I``;
    any valid pair is admissible, at a modest decay-rate sacrifice.
    """
    if not model.is_hurwitz:
        raise NotHurwitz("the envelope needs a Hurwitz drift")
    pi = _as_weight(pi)
    a = model.a
    mu = -model.spectral_abscissa
    if model.eig.inverse is not None:
        vecs = model.eig.vectors
        gamma_c = vecs @ vecs.conj().T
        if np.abs(gamma_c.imag).max() > 1e-10 * max(opnorm2(gamma_c.real), 1e-300):
            raise NumericalDefect("eigenvector Gram matrix has an imaginary part")
        gamma = gamma_c.real
    else:
        mu = 0.9 * mu
        shifted = a + mu * np.eye(model.n)
        if np.linalg.eigvals(shifted).real.max() >= 0.0:
            raise DefectiveAndUnstableShift(
                "shifted drift is not Hurwitz; no envelope certificate")
        gamma = lyap_solve(shifted, np.eye(model.n))
    gamma = 0.5 * (gamma + gamma.T)
    ali = a @ gamma + gamma @ a.T + 2.0 * mu * gamma
    wmax = np.linalg.eigvalsh(ali)[-1]
    if wmax > 1e-8 * opnorm2(gamma):
        raise NumericalDefect(f"Lyapunov inequality residual {wmax:.3e} too large")
    root_pi = model.weight_facts(pi).root
    quantum = gramian_steady(model).quantum_cov
    alpha = opnorm2(root_pi @ sqrt_psd(gamma)) * opnorm2(inv_sqrt_psd(gamma) @ quantum @ root_pi)
    return EnvelopeParams(mu=mu, gamma=gamma, alpha=float(alpha))


def _filon_cos(fvals: np.ndarray, h: float, lam: float, grid: np.ndarray) -> float:
    """integral f(t) cos(lam t) dt over the uniform grid (odd point count),
    exact for piecewise-quadratic f at any frequency."""
    th = lam * h
    if abs(th) > 1e-4:
        s, c = math.sin(th), math.cos(th)
        alpha = (th * th + th * s * c - 2.0 * s * s) / th**3
        beta = 2.0 * (th * (1.0 + c * c) - 2.0 * s * c) / th**3
        gamma = 4.0 * (s - th * c) / th**3
    else:
        t2 = th * th
        alpha = th * t2 * (2.0 / 45 - t2 * (2.0 / 315 - t2 * (2.0 / 4725)))
        beta = 2.0 / 3 + t2 * (2.0 / 15 - t2 * (4.0 / 105 - t2 * (2.0 / 567)))
        gamma = 4.0 / 3 - t2 * (2.0 / 15 - t2 * (1.0 / 210 - t2 / 11340))
    ct = np.cos(lam * grid)
    even = fvals[0::2] @ ct[0::2] - 0.5 * (fvals[0] * ct[0] + fvals[-1] * ct[-1])
    odd = fvals[1::2] @ ct[1::2]
    ends = alpha * (fvals[-1] * math.sin(lam * grid[-1]) - fvals[0] * math.sin(0.0))
    return float(h * (ends + beta * even + gamma * odd))


# 24 Gauss-Legendre nodes per panel: F has features of width ~ mu (kinks of
# the norm N), which 16 nodes resolve only to ~1e-7 in the bounds.  Panels
# halve toward lam = 0 down to lam_base 2^-GRADE_DEPTH, resolving the peak of
# 1 / (1 - 2 theta F) (width ~ sqrt(1 - theta/theta_max)) up to
# theta = theta_max (1 - 1e-10).  The tail cut is lam_base 2^j, j <= MAX_CUT.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
GRADE_DEPTH = 40
MAX_CUT = 6


@dataclass(frozen=True)
class _FTable:
    """``F`` at the nodes of a composite Gauss-Legendre rule on [0, top], and
    ``fcut[j] = F(base 2^j)`` at the cuts up to ``top``, all panel edges."""

    base: float
    nodes: np.ndarray
    weights: np.ndarray
    fvals: np.ndarray
    fcut: np.ndarray


def _tail_cut(fcut, base, c3, tol):
    """First ``j`` at which the cubic tail term ``c3 c^3 / (5 lam^5)`` of the
    cut ``lam = base 2^j`` (``F ~ c / lam^2``) is below ``tol / 10``; ``None``
    if there is none."""
    lam = base * 2.0 ** np.arange(len(fcut))
    small = np.abs(c3 * (fcut * lam**2) ** 3 / (5.0 * lam**5)) <= 0.1 * tol
    return int(np.argmax(small)) if small.any() else None


def _tabulate(ffun, base, tol) -> _FTable:
    """Tabulate ``ffun`` (peak ``ffun(0)``) on [0, base 2^-GRADE_DEPTH],
    dyadic panels up to ``base / 8``, then panels of width ``base / 8`` up to
    the cut needed at ``theta_max``, which bounds the cut at every theta."""
    fcut = np.array([ffun(base * 2.0**j) for j in range(MAX_CUT + 1)])
    s = 1.0 / ffun(0.0)
    top = _tail_cut(fcut, base, max(s**3 / 3.0, s**2), tol)
    top = MAX_CUT if top is None else top  # thetas past it raise when integrated
    edges = np.concatenate(([0.0], base * 2.0 ** np.arange(-GRADE_DEPTH, -3),
                            base / 8.0 * np.arange(1, 2 ** (top + 3) + 1)))
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + half * (1.0 + _GL_X)).ravel()
    return _FTable(base=base, nodes=nodes, weights=(half * _GL_W).ravel(),
                   fvals=np.array([ffun(lam) for lam in nodes]), fcut=fcut[:top + 1])


def _two_theta_f(theta, fvals):
    arg = 2.0 * theta * fvals
    if arg.max() >= 1.0:
        raise NoConvergence("1 - 2 theta F crossed zero inside the integration range; "
                            "theta is too close to the boundary for the numeric route")
    return arg


def _tail_corrected_integral(table: _FTable, g, coef, n0, tol):
    """integral over R of g(F) for ``g(F) = coef[0] F + coef[1] F^2 +
    coef[2] F^3 + ...``: weighted sums over the table up to the cut; the
    [lam_cut, inf) tail uses the exact identity int_0^inf F = pi N(0) for
    the linear term and the F ~ c / lam^2 asymptote for the quadratic and
    cubic terms."""
    j = _tail_cut(table.fcut, table.base, coef[2], tol)
    if j is None:
        raise NoConvergence("tail corrections did not settle")
    lam_cut = table.base * 2.0**j
    k = np.searchsorted(table.nodes, lam_cut)
    w, f = table.weights[:k], table.fvals[:k]
    c_inf = table.fcut[j] * lam_cut**2
    tail = (coef[0] * (math.pi * n0 - w @ f) + coef[1] * c_inf**2 / (3.0 * lam_cut**3)
            + coef[2] * c_inf**3 / (5.0 * lam_cut**5))
    return 2.0 * (w @ g(f) + tail)


def _tail_corrected_log_integral(table: _FTable, theta, n0, tol):
    """integral over R of ln(1 - 2 theta F)."""
    s = 2.0 * theta
    return _tail_corrected_integral(table, lambda f: np.log1p(-_two_theta_f(theta, f)),
                                    (-s, -s**2 / 2.0, -s**3 / 3.0), n0, tol)


class DeviationAnalysis:
    """Shared state for the deviation bounds of one ``(model, Pi)`` pair.

    Builds the kernel sampler lazily on first transform use: the kernel is
    tabulated on a uniform grid long enough for the certified envelope to
    push the truncation error below the working tolerance, and ``F`` is
    then a pair of weighted dot products per frequency (memoized).  The
    bounds tabulate ``F`` once on the frequency rule of :func:`_tabulate`.
    """

    def __init__(self, model: OqhoModel, pi, tol: float = 1e-9):
        if not model.is_hurwitz:
            raise NotHurwitz("deviation bounds need a Hurwitz drift")
        self.model = model
        self.pi = _as_weight(pi)
        self.tol = float(tol)
        self.root_pi = model.weight_facts(self.pi).root
        self.quantum = gramian_steady(model).quantum_cov
        self.n0 = float(opnorm2(self.root_pi @ self.quantum @ self.root_pi))
        self.degenerate = not np.any(self.pi)
        self.envelope = None if self.degenerate else envelope_params(model, self.pi)
        self._grid = None
        self._f_memo = {}

    def n_kernel(self, tau: float) -> float:
        """``N(tau)``; even in ``tau`` by construction."""
        e = expm(self.model.a, abs(tau))
        return float(opnorm2(self.root_pi @ e @ self.quantum @ self.root_pi))

    def _build_grid(self):
        if self._grid is not None or self.degenerate:
            return
        env = self.envelope
        mu, alpha = env.mu, env.alpha
        f0_est = max(2.0 * alpha / mu, 1e-3)
        tail_tol = 1e-13 * max(f0_est, 1.0)
        tau_star = math.log(max(2.0 * alpha / mu, 1e-6) / tail_tol) / mu
        omega = opnorm2(self.model.a) + mu
        eps_f = 1e-8 * max(f0_est, 0.1)
        h = (180.0 * eps_f / (max(alpha, 1e-6) * omega**4 * tau_star)) ** 0.25
        npts = int(np.clip(math.ceil(tau_star / h), 2001, 200_001))
        if npts % 2 == 0:
            npts += 1
        grid = np.linspace(0.0, tau_star, npts)
        step = grid[1] - grid[0]
        nvals = expm_ladder(self.model.a, self.model.eig, step, npts, left=self.root_pi,
                            right=self.quantum @ self.root_pi,
                            reduce=lambda block: np.linalg.svd(block, compute_uv=False)[:, 0])
        self._grid, self._nvals, self._step = grid, nvals, step

    def f_transform(self, lam: float) -> float:
        """``F(lam) = 2 int_0^inf N(tau) cos(lam tau) dtau``."""
        if self.degenerate:
            return 0.0
        key = float(lam)
        if key not in self._f_memo:
            self._build_grid()
            self._f_memo[key] = 2.0 * _filon_cos(self._nvals, self._step, key, self._grid)
        return self._f_memo[key]

    def f_infnorm(self) -> float:
        """``||F||_inf = F(0)`` (valid since ``N >= 0``)."""
        return self.f_transform(0.0)

    def _lam_base(self) -> float:
        return max(50.0, 20.0 * (opnorm2(self.model.a) + self.envelope.mu))

    @cached_property
    def _table(self) -> _FTable:
        # F depends on neither theta nor eps: one table serves every bound
        return _tabulate(self.f_transform, self._lam_base(), self.tol)

    def qef_upper_rate(self, theta: float) -> float:
        """Upper bound on the exponential-cost growth rate; zero at
        ``theta = 0`` and finite up to ``1 / (2 F(0))`` exclusive."""
        if theta < 0:
            raise ThetaOutOfRange("theta must be nonnegative")
        if theta == 0.0 or self.degenerate:
            return 0.0
        theta_max = 1.0 / (2.0 * self.f_infnorm())
        if theta >= theta_max:
            raise ThetaOutOfRange(f"theta = {theta} outside [0, {theta_max:.6e})")
        val = _tail_corrected_log_integral(self._table, theta, self.n0, self.tol)
        return -self.model.n / (4.0 * math.pi) * val

    def _deriv(self, theta: float) -> float:
        # integral over R of F / (1 - 2 theta F)
        s = 2.0 * theta
        val = _tail_corrected_integral(self._table, lambda f: f / (1.0 - _two_theta_f(theta, f)),
                                       (1.0, s, s**2), self.n0, self.tol)
        return self.model.n / (2.0 * math.pi) * val

    def cramer_bound_numeric(self, epsilon: float) -> tuple[float, float]:
        """Optimized tail bound ``inf_theta (qef_upper_rate - theta eps)``.

        The minimizer solves the strictly increasing derivative equation;
        bisection runs to a 1e-10 relative theta tolerance.  Returns
        ``(bound, theta_star)``.  For the zero-cost degenerate weight the
        objective is unbounded below and ``(-inf, inf)`` is returned as a
        documented sentinel.
        """
        n = self.model.n
        if self.degenerate or self.f_infnorm() == 0.0:
            return (0.0, 0.0) if epsilon == 0.0 else (-math.inf, math.inf)
        threshold = n * self.n0
        if epsilon < threshold * (1.0 - 1e-12):
            raise EpsilonTooSmall(f"epsilon = {epsilon} below the threshold n*N(0) = {threshold}")
        if epsilon <= threshold * (1.0 + 1e-14):
            return 0.0, 0.0
        theta_max = 1.0 / (2.0 * self.f_infnorm())
        # stop the bracket short of theta_max by more than the transform's
        # noise floor, so 1 - 2 theta F stays numerically positive
        delta = 1e-6
        hi = theta_max * (1.0 - delta)
        while self._deriv(hi) < epsilon:
            delta *= 1e-2
            if delta < 1e-9:
                raise NoConvergence("derivative equation has no bracketable root below "
                                    "the numerically safe end of the theta interval")
            hi = theta_max * (1.0 - delta)
        lo = 0.0
        while hi - lo > 1e-10 * theta_max:
            mid = 0.5 * (lo + hi)
            if self._deriv(mid) < epsilon:
                lo = mid
            else:
                hi = mid
        theta_star = 0.5 * (lo + hi)
        bound = self.qef_upper_rate(theta_star) - theta_star * epsilon
        return float(bound), float(theta_star)

    def bound_curve(self, eps_grid) -> list[TailBoundCurve]:
        """Closed-form curve over the grid, plus the numeric curve whenever
        the transform admits one."""
        eps = np.asarray(eps_grid, dtype=float)
        env, n = self.envelope, self.model.n
        curves = []
        if env is not None:
            curves.append(TailBoundCurve(
                epsilon=eps,
                bound=np.array([cramer_bound_closed(env.mu, env.alpha, n, e) for e in eps]),
                theta_star=np.array([closed_theta_star(env.mu, env.alpha, n, e) for e in eps]),
                method="closed_form"))
        if not self.degenerate and self.f_infnorm() > 0.0:
            pairs = np.array([self.cramer_bound_numeric(e) for e in eps]).reshape(-1, 2)
            curves.append(TailBoundCurve(epsilon=eps, bound=pairs[:, 0],
                                         theta_star=pairs[:, 1], method="numeric"))
        return curves


def cramer_bound_closed(mu: float, alpha: float, n: int, epsilon: float) -> float:
    """Envelope tail bound ``(n mu / 4)(2 - n alpha / eps - eps / (n alpha))``,
    zero at ``eps = n alpha`` and decreasing beyond."""
    scale = n * alpha
    if epsilon < scale * (1.0 - 1e-12):
        raise EpsilonTooSmall(f"epsilon = {epsilon} below n*alpha = {scale}")
    return 0.25 * n * mu * (2.0 - scale / epsilon - epsilon / scale)


def closed_theta_star(mu: float, alpha: float, n: int, epsilon: float) -> float:
    """Minimizer of the envelope bound, ``(mu/4 alpha)(1 - (n alpha/eps)^2)``."""
    scale = n * alpha
    if epsilon < scale * (1.0 - 1e-12):
        raise EpsilonTooSmall(f"epsilon = {epsilon} below n*alpha = {scale}")
    return 0.25 * mu / alpha * (1.0 - (scale / epsilon) ** 2)


def envelope_log_integral(alpha: float, mu: float, theta: float, tol=1e-10) -> float:
    """Numeric ``-integral ln(1 - 2 theta Fhat)`` for the analytic envelope
    transform ``Fhat = 2 alpha mu / (lam^2 + mu^2)``; crosscheck target for
    the closed form ``2 pi (mu - sqrt(mu^2 - 4 theta alpha mu))``."""
    if not 0 <= theta < 0.25 * mu / alpha:
        raise ThetaOutOfRange("theta outside the envelope interval [0, mu/(4 alpha))")

    def fhat(lam):
        return 2.0 * alpha * mu / (lam * lam + mu * mu)

    table = _tabulate(fhat, max(50.0, 20.0 * mu), tol)
    return -_tail_corrected_log_integral(table, theta, alpha, tol)


def envelope_log_integral_closed(alpha: float, mu: float, theta: float) -> float:
    return 2.0 * math.pi * (mu - math.sqrt(mu * mu - 4.0 * theta * alpha * mu))

