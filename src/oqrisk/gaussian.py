"""Second-moment structure of the oscillator in its invariant regime.

Provides the steady covariance ``P`` (with quantum covariance ``P + i*Theta``),
the finite-horizon covariance ``Sigma(t) = P - e^{tA} P e^{tA'}``, the
stationary kernels

    V(tau) = e^{tau A} P,   Lambda(tau) = e^{tau A} Theta,
    S(tau) = V(tau) + i*Lambda(tau)          (tau >= 0, S(-tau) = S(tau)*),

the two-point covariance ``C(s, tau) = e^{(s-tau)A} Sigma(tau)``, the
inverse-transform residual of the spectral density ``D(lam) = G(i lam)
Omega G(i lam)*`` of ``S`` (transfer function ``G(s) = (sI - A)^{-1} B``,
evaluated by :meth:`OqhoModel.density_pair`), and one-/multi-point
quasi-characteristic functions of the state.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
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

    def v(self, tau: float) -> np.ndarray:
        if tau >= 0:
            return expm(self.model.a, tau) @ self.steady.p
        return self.v(-tau).T

    def lam(self, tau: float) -> np.ndarray:
        if tau >= 0:
            return expm(self.model.a, tau) @ self.model.theta
        return -self.lam(-tau).T

    def s(self, tau: float) -> np.ndarray:
        if tau >= 0:
            return expm(self.model.a, tau) @ self.steady.quantum_cov
        return self.s(-tau).conj().T

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


def _multipoint_cov(model: OqhoModel, times) -> np.ndarray:
    """The ``(N, N, n, n)`` stack of ``S(t_i - t_j)``: the quantum covariance
    of the multi-point state ``(X(t_1), ..., X(t_N))`` in block form.

    ``S`` is evaluated once per distinct lag ``|t_i - t_j|``; a negative lag
    takes the conjugate transpose, as :meth:`CovarianceKernel.s` does."""
    times = np.asarray(times, dtype=float)
    lags = np.subtract.outer(times, times)
    kern = CovarianceKernel(model)
    distinct, index = np.unique(np.abs(lags), return_inverse=True)
    blocks = np.array([kern.s(tau) for tau in distinct]).reshape(-1, model.n, model.n)
    blocks = blocks[index.reshape(lags.shape)]
    return np.where((lags < 0)[:, :, None, None], blocks.conj().swapaxes(-1, -2), blocks)


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
    exponent = (vectors[:, None, None, :] @ _multipoint_cov(model, times)
                @ vectors[None, :, :, None]).sum()
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
