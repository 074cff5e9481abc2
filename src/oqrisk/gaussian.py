"""Second-moment structure of the oscillator in its invariant regime.

Provides the steady covariance ``P`` (with quantum covariance ``P + i*Theta``),
the finite-horizon covariance ``Sigma(t) = P - e^{tA} P e^{tA'}``, the
stationary kernel ``S(tau) = e^{tau A} (P + i*Theta)`` for ``tau >= 0``,
``S(-tau) = S(tau)*``, with real and imaginary parts ``V`` and ``Lambda``
(formed only by :meth:`CovarianceKernel.s`, which on the lag matrix
``t_j - t_k`` gives the multi-point covariance ``[S(t_j - t_k)]``), the
two-point covariance ``C(s, tau) = e^{(s-tau)A} Sigma(tau)``, the
inverse-transform residual of the spectral density ``D(lam) = G(i lam)
Omega G(i lam)*`` of ``S`` (transfer function ``G(s) = (sI - A)^{-1} B``,
evaluated by :meth:`OqhoModel.density_pair`), and one-/multi-point
quasi-characteristic functions of the state.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    InvalidInitialState,
    NegativeTime,
    NumericalDefect,
    UnsortedTimes,
)
from .matfun import expm, integrate_frequency
from .model import OqhoModel, SteadyState

__all__ = [
    "SteadyState",
    "CovarianceKernel",
    "gramian_steady",
    "gramian_finite",
    "qcf_onepoint",
    "qcf_multipoint_steady",
]


def gramian_steady(model: OqhoModel) -> SteadyState:
    """Steady Gramian solving ``AP + PA' + BB' = 0``, with the uncertainty
    constraint certified (the quantum covariance must be PSD up to a 1e-8
    rounding band); computed once per model and cached on it."""
    return model.steady


def gramian_finite(model: OqhoModel, t: float) -> np.ndarray:
    """Finite-horizon Gramian ``Sigma(t) = P - e^{tA} P e^{tA'}``.

    Exact for the linear dynamics (no ODE stepping); ``Sigma(0) = 0`` and
    ``Sigma(t) -> P`` monotonically in the PSD order.
    """
    if t < 0:
        raise NegativeTime(f"horizon must be nonnegative, got {t}")
    p = gramian_steady(model).p
    e = expm(model.a, t)
    sig = p - e @ p @ e.T
    return 0.5 * (sig + sig.T)


class CovarianceKernel:
    """Evaluator bundle for the stationary kernels of one model.

    Holds the steady state and exposes ``v``, ``lam``, ``s``, ``sigma`` and
    ``c``; immutable and cheap to share.
    """

    def __init__(self, model: OqhoModel):
        self.model = model
        self.steady = gramian_steady(model)

    def s(self, tau) -> np.ndarray:
        """``S(tau)`` for a scalar lag, or stacked on the lag axes for an array
        of lags: one ``e^{|tau| A} (P + i Theta)`` per distinct ``|tau|``,
        conjugate-transposed where ``tau < 0``.  A non-finite lag raises
        :class:`InvalidArgument`."""
        tau = np.asarray(tau, dtype=float)
        if not np.all(np.isfinite(tau)):
            raise InvalidArgument("lags must be finite")
        distinct, index = np.unique(np.abs(tau), return_inverse=True)
        blocks = np.array([expm(self.model.a, t) @ self.steady.quantum_cov for t in distinct])
        blocks = blocks.reshape(-1, *self.steady.p.shape)[index.reshape(tau.shape)]
        return np.where((tau < 0)[..., None, None], blocks.conj().swapaxes(-1, -2), blocks)

    def v(self, tau) -> np.ndarray:
        return self.s(tau).real

    def lam(self, tau) -> np.ndarray:
        return self.s(tau).imag

    def sigma(self, t: float) -> np.ndarray:
        return gramian_finite(self.model, t)

    def c(self, s: float, tau: float) -> np.ndarray:
        """Two-point covariance; transposition handles ``s < tau``."""
        if s < 0 or tau < 0:
            raise NegativeTime("two-point covariance needs nonnegative times")
        if s < tau:
            return self.c(tau, s).T
        return expm(self.model.a, s - tau) @ self.sigma(tau)


def _check_initial_cov(p0: np.ndarray, theta: np.ndarray):
    p0 = np.asarray(p0, dtype=float)
    if np.linalg.norm(p0 - p0.T) > 1e-12 * max(1.0, np.linalg.norm(p0)):
        raise InvalidInitialState("initial covariance must be symmetric")
    wmin = np.linalg.eigvalsh(p0 + 1j * theta)[0]
    scale = max(np.linalg.norm(p0, 2), np.linalg.norm(theta, 2), 1e-300)
    if wmin < -1e-8 * scale:
        raise InvalidInitialState(
            f"P0 + i*Theta has eigenvalue {wmin:.3e}; uncertainty principle violated"
        )
    return p0


def qcf_onepoint(model: OqhoModel, p0, s: float, t: float, u) -> complex:
    """One-point quasi-characteristic function at time ``t``.

    The state starts Gaussian with real covariance ``p0`` at time zero;
    the value is assembled through the propagation identity anchored at an
    intermediate time ``s`` (any ``0 <= s <= t`` yields the same number):

        Phi(t, u) = Phi(s, e^{(t-s)A'} u) * exp(-||u||^2_{Sigma(t-s)} / 2).
    """
    if not 0 <= s <= t:
        raise NegativeTime(f"need 0 <= s <= t, got s={s}, t={t}")
    p0 = _check_initial_cov(p0, model.theta)
    u = np.asarray(u, dtype=float)
    es = expm(model.a, s)
    p_at_s = es @ p0 @ es.T + gramian_finite(model, s)
    v = expm(model.a, t - s).T @ u
    sig = gramian_finite(model, t - s)
    exponent = 0.5 * (v @ p_at_s @ v) + 0.5 * (u @ sig @ u)
    return complex(np.exp(-exponent))


def qcf_multipoint_steady(model: OqhoModel, times, vectors) -> complex:
    """Multi-point quasi-characteristic function in the invariant regime.

    Evaluates ``exp(-0.5 * sum_{j,k} v_j' V(t_j - t_k) v_k)``.  The
    exponent is accumulated with the full complex kernel ``S``; the
    commutator contributions must cancel pairwise, and that cancellation
    is asserted (residual below 1e-12 of scale) rather than assumed.
    """
    times = np.asarray(times, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if times.ndim != 1 or vectors.shape != (times.size, model.n):
        raise DimensionMismatch("need N times and an N x n array of vectors")
    if np.any(np.diff(times) < 0):
        raise UnsortedTimes("times must be nondecreasing")
    # the blocks v_j' S(t_j - t_i) v_i of vec' S vec, summed
    blocks = CovarianceKernel(model).s(np.subtract.outer(times, times))
    exponent = (vectors[:, None, None, :] @ blocks @ vectors[None, :, :, None]).sum()
    scale = max(abs(exponent), 1.0)
    if abs(exponent.imag) > 1e-12 * scale:
        raise NumericalDefect(
            f"multi-point exponent has imaginary residue {exponent.imag:.3e}"
        )
    return complex(np.exp(-0.5 * exponent.real))


def spectral_identity_residual(model: OqhoModel) -> float:
    """Max-abs defect of ``(1/2pi) integral D(lam) dlam = P + i*Theta``.

    Diagnostic used by tests and reports; integrates the density, with the
    resolvent evaluated exactly at every node, on the half-line frequency
    rule folded as ``D(lam) + D(-lam)``, where ``D(-lam)`` is the conjugate
    of the pair's ``D(-lam)'``."""
    def folded(lams):
        d0, d1 = model.density_pair(lams)
        return d0 + d1.conj()

    val = integrate_frequency(folded, model.eig.values)
    return float(np.abs(val / (2.0 * np.pi) - gramian_steady(model).quantum_cov).max())
