"""Second-moment structure of the oscillator in its invariant regime.

Provides the finite-horizon covariance ``Sigma(t) = P - e^{tA} P e^{tA'}``,
the multi-point quasi-characteristic function of the state, and the
inverse-transform residual of the spectral density.  They read facts the
model owns and caches: the steady covariance ``P`` with the quantum
covariance ``P + i*Theta`` (``OqhoModel.steady``, also returned by
:func:`gramian_steady`), the stationary kernel ``S(tau) = e^{tau A}
(P + i*Theta)``, ``S(-tau) = S(tau)*`` (:meth:`OqhoModel.kernel`, which on
the lag matrix ``t_j - t_k`` gives the multi-point covariance
``[S(t_j - t_k)]``), and its Fourier transform ``D(lam) = G(i lam) Omega
G(i lam)*``, ``G(s) = (sI - A)^{-1} B`` (:meth:`OqhoModel.density_pair`).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NumericalDefect
from .matfun import RULE_BLOCK, expm, integrate_frequency
from .model import OqhoModel

__all__ = [
    "gramian_steady",
    "gramian_finite",
    "qcf_multipoint_steady",
]


def gramian_steady(model: OqhoModel):
    """``model.steady``: ``P`` solving ``AP + PA' + BB' = 0``, and ``P + i*Theta`` certified."""
    return model.steady


def gramian_finite(model: OqhoModel, t: float) -> np.ndarray:
    """Finite-horizon Gramian ``Sigma(t) = P - e^{tA} P e^{tA'}``.

    Exact for the linear dynamics (no ODE stepping); ``Sigma(0) = 0`` and
    ``Sigma(t) -> P`` monotonically in the PSD order.
    """
    if not 0 <= t < np.inf:
        raise InvalidArgument(f"horizon must be nonnegative and finite, got {t}")
    p = model.steady.p
    e = expm(model.a, t)
    sig = p - e @ p @ e.T
    return 0.5 * (sig + sig.T)


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
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(vectors))):
        raise InvalidArgument("times and vectors must be finite")
    if np.any(np.diff(times) < 0):
        raise InvalidArgument("times must be nondecreasing")
    # the blocks v_j' S(t_j - t_i) v_i of vec' S vec, summed
    blocks = model.kernel(np.subtract.outer(times, times))
    exponent = (vectors[:, None, None, :] @ blocks @ vectors[None, :, :, None]).sum()
    scale = max(abs(exponent), 1.0)
    if abs(exponent.imag) > 1e-12 * scale:
        raise NumericalDefect(
            f"multi-point exponent has imaginary residue {exponent.imag:.3e}"
        )
    return complex(np.exp(-0.5 * exponent.real))


def spectral_identity_residual(model: OqhoModel) -> float:
    """Max-abs defect of ``(1/2pi) integral D(lam) dlam = P + i*Theta``.

    Acceptance criterion 07's oracle; integrates the density, with the
    resolvent evaluated exactly at every node, on the half-line frequency
    rule folded as ``D(lam) + D(-lam)``, where ``D(-lam)`` is the conjugate
    of the pair's ``D(-lam)'``."""
    def folded(level, nodes):
        for lo in range(0, nodes.size, RULE_BLOCK):
            d0, d1 = model.density_pair(nodes[lo:lo + RULE_BLOCK])
            yield d0 + d1.conj()

    val = integrate_frequency(folded, model.eig.values)
    return float(np.abs(val / (2.0 * np.pi) - model.steady.quantum_cov).max())
