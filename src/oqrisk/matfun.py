"""Shared numerical kernel: matrix functions, Lyapunov solves, quadrature.

All analysis modules go through these routines so accuracy policies live in
one place.  Conventions:

* Lyapunov equations are solved by the Bartels-Stewart method (Schur forms
  and a triangular Sylvester solve, O(n^3)) through SciPy, then certified:
  Hurwitz drift, eigenvalue-sum gap and residual are checked on every call.
* The matrix exponential delegates to SciPy's scaling-and-squaring Pade-13
  implementation (backward stable).  Uniform lag ladders ``e^{k h A}`` go
  through the eigendecomposition when ``A`` is comfortably diagonalizable
  and step by one exponential otherwise (:func:`expm_ladder`).
* Integrals over the whole real line are truncated symmetrically using an
  explicit tail-decay hint, or a sampled decay estimate when no hint is
  given, and then handed to adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
from scipy.integrate import quad_vec

from .errors import (
    EigenFailure,
    IllConditioned,
    MissingTailBound,
    NoConvergence,
    NotHurwitz,
    NotPsd,
    Overflow,
)

__all__ = [
    "QuadratureSpec",
    "TailHint",
    "expm",
    "EigBasis",
    "eig_basis",
    "expm_ladder",
    "lyap_solve",
    "opnorm2",
    "sqrt_psd",
    "inv_sqrt_psd",
    "integrate_line",
    "integrate_realline",
    "trapezoid_weights",
]

#: Drift eigenvalues must lie strictly left of this abscissa to count as
#: Hurwitz; marginal systems are rejected by steady-state code paths.
HURWITZ_TOL = -1e-10


@dataclass(frozen=True)
class TailHint:
    """Decay model ``|f| <= c * lam**-rate`` (algebraic, default) or
    ``|f| <= c * exp(-rate * lam)`` (exponential) used to truncate
    real-line integrals."""

    c: float
    rate: float
    kind: str = "algebraic"  # "algebraic" | "exponential"


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy contract for the adaptive quadrature routines."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    tail_decay_hint: Optional[TailHint] = None

    def __post_init__(self):
        if not (0.0 < self.abs_tol < 1.0 and 0.0 < self.rel_tol < 1.0):
            raise ValueError("quadrature tolerances must lie in (0, 1)")
        if self.max_subdivisions < 16:
            raise ValueError("max_subdivisions must be at least 16")


def _require_finite(a, name):
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")


def expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(t*a)`` via scaling-and-squaring (Pade 13).

    Raises
    ------
    Overflow
        If ``exp(t*a)`` leaves the double-precision range.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm expects a square matrix")
    _require_finite(a, "matrix")
    with np.errstate(over="ignore"):  # converted to an error below
        out = scipy.linalg.expm(t * a)
    if not np.all(np.isfinite(out)):
        raise Overflow("exp(t*A) overflowed double precision")
    return out


#: Eigenvector condition number from which a drift counts as nearly
#: defective: eigenvalue-based formulas lose accuracy there.
DIAG_COND = 1e8

#: Lags per block of :func:`expm_ladder`.
LADDER_CHUNK = 65536


@dataclass(frozen=True)
class EigBasis:
    """Eigendecomposition ``A = V diag(values) V^-1`` with the condition
    number of ``V``; ``inverse`` is ``None`` when ``cond >= DIAG_COND``."""

    values: np.ndarray
    vectors: np.ndarray
    cond: float
    inverse: Optional[np.ndarray]


def eig_basis(a: np.ndarray) -> EigBasis:
    """Eigenvalues and eigenvectors of ``a`` with the eigenvector condition
    number; raises :class:`EigenFailure` if LAPACK does not converge."""
    try:
        lam, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenFailure("eigenvalue iteration did not converge") from exc
    cond = float(np.linalg.cond(vecs))
    inverse = np.linalg.inv(vecs) if np.isfinite(cond) and cond < DIAG_COND else None
    return EigBasis(values=lam, vectors=vecs, cond=cond, inverse=inverse)


def expm_ladder(a, basis: EigBasis, step: float, count: int, left=None, right=None,
                reduce=None) -> np.ndarray:
    """``left @ exp(k*step*a) @ right`` for ``k = 0 .. count-1`` (count >= 1),
    stacked along the first axis; missing factors are identities.

    Lags are formed in blocks of at most ``LADDER_CHUNK``; ``reduce``, when
    given, maps each block to its per-lag result before the next block is
    formed, which bounds peak memory by one block.  Goes through
    ``basis = eig_basis(a)`` when it is well conditioned, and otherwise
    steps by ``exp(step*a)``.
    """
    a = np.asarray(a, dtype=float)
    eye = np.eye(a.shape[0])
    left = eye if left is None else np.asarray(left)
    right = eye if right is None else np.asarray(right)
    if basis.inverse is not None:
        lv, wr = left @ basis.vectors, basis.inverse @ right
        real = not (np.iscomplexobj(left) or np.iscomplexobj(right))
    else:
        estep, prop = expm(a, step), eye
    out = []
    for lo in range(0, count, LADDER_CHUNK):
        lags = np.arange(lo, min(lo + LADDER_CHUNK, count))
        if basis.inverse is not None:
            phases = np.exp(np.multiply.outer(step * lags, basis.values))
            block = np.einsum("ij,kj,jl->kil", lv, phases, wr)
            block = block.real if real else block
        else:
            block = np.empty((lags.size, left.shape[0], right.shape[1]),
                             dtype=np.result_type(left, right))
            for k in range(lags.size):
                block[k] = left @ prop @ right
                prop = estep @ prop
        out.append(block if reduce is None else reduce(block))
    return np.concatenate(out)


def lyap_solve(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve the continuous algebraic Lyapunov equation ``AX + XA' + Q = 0``.

    Bartels-Stewart (SciPy): Schur reduction of ``A`` and a triangular
    Sylvester solve, O(n^3) flops.  ``Q`` need not be symmetric; for
    symmetric ``Q`` the solution is symmetric up to rounding only, so
    callers that need exact symmetry symmetrize.

    Raises
    ------
    NotHurwitz
        If ``A`` has an eigenvalue with real part above the Hurwitz band.
    IllConditioned
        If eigenvalue sums of ``A`` nearly vanish, or the residual check
        fails after the solve.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q)
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise ValueError("lyap_solve expects square matrices of equal size")
    _require_finite(a, "A")
    _require_finite(q, "Q")
    lam = np.linalg.eigvals(a)
    if lam.real.max() >= HURWITZ_TOL:
        raise NotHurwitz(
            f"spectral abscissa {lam.real.max():.3e} is not below {HURWITZ_TOL}"
        )
    gap = np.abs(lam[:, None] + lam[None, :]).min()
    if gap < 1e-12:
        raise IllConditioned(f"eigenvalue-sum gap {gap:.3e} below 1e-12")
    x = scipy.linalg.solve_continuous_lyapunov(a, -q)
    res = np.linalg.norm(a @ x + x @ a.T + q)
    scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
    if res > 1e-10 * scale:
        raise IllConditioned(f"Lyapunov residual {res:.3e} exceeds 1e-10 * {scale:.3e}")
    return x


def opnorm2(k: np.ndarray) -> float:
    """Largest singular value (l2-induced operator norm)."""
    k = np.asarray(k)
    _require_finite(k, "matrix")
    if k.size == 0 or not np.any(k):
        return 0.0
    return float(np.linalg.norm(k, 2))


def _psd_eig(k: np.ndarray):
    k = np.asarray(k)
    herm_res = np.linalg.norm(k - k.conj().T)
    if herm_res > 1e-12 * max(1.0, np.linalg.norm(k)):
        raise ValueError("sqrt_psd expects a symmetric/Hermitian matrix")
    w, v = np.linalg.eigh(k)
    scale = max(abs(w[0]), abs(w[-1]), 0.0)
    if w[0] < -1e-10 * scale:
        raise NotPsd(f"eigenvalue {w[0]:.3e} below -1e-10 * {scale:.3e}")
    return np.clip(w, 0.0, None), v


def sqrt_psd(k: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix, clipping the rounding band
    of slightly negative eigenvalues to zero."""
    w, v = _psd_eig(k)
    out = (v * np.sqrt(w)) @ v.conj().T
    return out.real if not np.iscomplexobj(np.asarray(k)) else out


def inv_sqrt_psd(k: np.ndarray) -> np.ndarray:
    """Inverse principal square root of a positive definite matrix."""
    w, v = _psd_eig(k)
    if w[0] <= 0.0:
        raise NotPsd("matrix is singular; inverse square root undefined")
    out = (v / np.sqrt(w)) @ v.conj().T
    return out.real if not np.iscomplexobj(np.asarray(k)) else out


def integrate_line(
    f: Callable[[float], object],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
    points=None,
):
    """Adaptive quadrature of a scalar- or matrix-valued integrand on [a, b].

    The integrand may return real or complex scalars or arrays; the result
    has the same shape.  ``points`` forces subdivision at interior
    breakpoints (needed on very wide intervals whose mass concentrates in
    a narrow region, where the initial rule would otherwise see zero).
    Raises :class:`NoConvergence` when the error estimate exceeds the
    requested tolerance by more than an order of magnitude.
    """
    spec = spec or QuadratureSpec()
    probe = np.asarray(f(a + 0.5 * (b - a)))
    scalar = probe.ndim == 0
    val, err = quad_vec(
        lambda x: np.asarray(f(x)),
        a,
        b,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        points=points,
    )
    bound = max(spec.abs_tol, spec.rel_tol * float(np.linalg.norm(np.atleast_1d(val))))
    if err > 10.0 * bound:
        raise NoConvergence(f"quadrature error estimate {err:.3e} exceeds {bound:.3e}")
    if scalar:
        return complex(val) if np.iscomplexobj(val) else float(val)
    return val


def _truncation_radius(hint: TailHint, abs_tol: float) -> float:
    # choose L so that the hinted tail bound beyond L contributes < abs_tol/10
    budget = 0.1 * abs_tol
    if hint.kind == "exponential":
        if hint.rate <= 0:
            raise MissingTailBound("exponential tail hint needs a positive rate")
        return max(10.0, np.log(max(hint.c, budget) / (budget * hint.rate)) / hint.rate)
    if hint.rate <= 1.0:
        raise MissingTailBound("algebraic tail hint needs a decay exponent > 1")
    lam = (10.0 * hint.c / (abs_tol * (hint.rate - 1.0))) ** (1.0 / (hint.rate - 1.0))
    return max(10.0, lam)


def _estimate_tail(f, spec: QuadratureSpec) -> TailHint:
    # sampled decay estimate: |f| at a dyadic ladder of frequencies
    lams = 16.0 * 2.0 ** np.arange(6)
    mags = np.array([np.linalg.norm(np.atleast_1d(np.asarray(f(l)))) for l in lams])
    if mags.max() == 0.0:
        return TailHint(c=0.0, rate=np.inf)
    ratios = mags[:-1] / np.maximum(mags[1:], 1e-300)
    p = np.log2(np.maximum(ratios, 1e-300)).mean()
    if p < 1.5:
        raise MissingTailBound(
            f"sampled decay exponent {p:.2f} is slower than 1/lam^2; "
            "pass an explicit tail_decay_hint"
        )
    c = float(mags[-1] * lams[-1] ** p)
    return TailHint(c=c, rate=float(p))


def integrate_realline(f, spec: QuadratureSpec | None = None):
    """Integrate an absolutely integrable function over the whole real line.

    Truncates to ``[-L, L]`` with ``L`` chosen so the hinted (or estimated)
    tail bound contributes less than a tenth of the absolute tolerance,
    then integrates adaptively.  Raises :class:`MissingTailBound` when no
    hint is given and the sampled decay is slower than ``1/lam^2``.
    """
    spec = spec or QuadratureSpec()
    hint = spec.tail_decay_hint or _estimate_tail(f, spec)
    if hint.c == 0.0 and not np.isfinite(hint.rate):
        lam = 16.0
    else:
        lam = _truncation_radius(hint, spec.abs_tol)
    # force subdivision around the origin: on a wide truncation interval the
    # initial quadrature rule would otherwise sample only the far tails
    core = min(100.0, 0.01 * lam)
    points = [-core, 0.0, core] if lam > 1e3 else None
    return integrate_line(f, -lam, lam, spec, points=points)


def trapezoid_weights(count: int, upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and composite-trapezoid weights on ``[0, upper]``."""
    if count < 2:
        raise ValueError("need at least 2 nodes")
    nodes = np.linspace(0.0, upper, count)
    h = upper / (count - 1)
    w = np.full(count, h)
    w[0] = w[-1] = 0.5 * h
    return nodes, w
