"""Shared numerical kernel: matrix functions, Lyapunov solves, quadrature.

All analysis modules go through these routines so accuracy policies live in
one place.  Conventions:

* Lyapunov equations are solved by the Bartels-Stewart method (Schur forms
  and a triangular Sylvester solve, O(n^3)) through SciPy, then certified:
  Hurwitz drift and residual are checked on every call.
* The matrix exponential delegates to SciPy's scaling-and-squaring Pade-13
  implementation (backward stable).  The lag ladder ``e^{(a + k h) A}`` of
  each segment of the tail-bound kernel grid goes through the
  eigendecomposition when ``A`` is comfortably diagonalizable, with the
  phases at the segment start ``a`` formed directly, and otherwise steps by
  one exponential from ``e^{a A}`` (:func:`expm_ladder`).
* Frequency integrals go through one rule on the half line ``lam >= 0``
  (:func:`integrate_frequency`): composite Gauss-Kronrod panels graded
  toward the resonances of the integrand's poles, one algebraic tail, and
  the embedded Gauss rule as certificate.  An integral over the whole line
  is the half-line integral of ``f(lam) + f(-lam)``; the callers whose
  integrands are even in ``lam`` (the cumulant rates) need no fold.  The
  tail bounds' table of ``F`` takes the rule's panels, with Gauss nodes.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    EigenFailure,
    IllConditioned,
    InvalidArgument,
    NoConvergence,
    NotHurwitz,
    NotPsd,
    NotSymmetric,
    Overflow,
)

__all__ = [
    "expm",
    "EigBasis",
    "eig_basis",
    "expm_ladder",
    "lyap_solve",
    "opnorm2",
    "sqrt_psd",
    "inv_sqrt_psd",
    "gauss_panels",
    "integrate_frequency",
    "trapezoid_weights",
]

#: Drift eigenvalues must lie strictly left of this abscissa to count as
#: Hurwitz; marginal systems are rejected by steady-state code paths.
HURWITZ_TOL = -1e-10


def _require_finite(a, name):
    if not np.all(np.isfinite(a)):
        raise InvalidArgument(f"{name} contains non-finite entries")


def _require_integers(**values) -> None:
    """:class:`InvalidArgument` unless every named value is an integer (a
    Python or numpy integer); run before a range check compares them."""
    bad = {name: v for name, v in values.items() if not isinstance(v, numbers.Integral)}
    if bad:
        raise InvalidArgument(f"need integers, got {bad}")


def expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(t*a)`` via scaling-and-squaring (Pade 13).

    Raises
    ------
    InvalidArgument
        If ``a`` or ``t`` is not finite.
    Overflow
        If ``exp(t*a)`` leaves the double-precision range.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("expm expects a square matrix")
    _require_finite(a, "matrix")
    _require_finite(t, "time")
    with np.errstate(over="ignore"):  # converted to an error below
        out = scipy.linalg.expm(t * a)
    if not np.all(np.isfinite(out)):
        raise Overflow("exp(t*A) overflowed double precision")
    return out


#: Eigenvector condition number from which a drift counts as nearly
#: defective: eigenvalue-based formulas lose accuracy there.
DIAG_COND = 1e8

#: Lags per block of :func:`expm_ladder`.
LADDER_CHUNK = 1024


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


def expm_ladder(a, basis: EigBasis, step: float, count: int, left, right, reduce,
                start: float = 0.0) -> np.ndarray:
    """``reduce(left @ exp((start + k*step)*a) @ right)`` for ``k = 0 ..
    count-1`` (count >= 1), stacked along the first axis.

    Lags are formed in blocks of at most ``LADDER_CHUNK``, and ``reduce``
    maps each block to its per-lag result before the next block is formed,
    which bounds peak memory by one block.  Goes through ``basis =
    eig_basis(a)`` when it is well conditioned, with the phases
    ``exp((start + k*step) mu)`` of the eigenvalues ``mu`` formed directly,
    and otherwise steps by ``exp(step*a)`` from ``exp(start*a)``.  A late
    ``start`` is never folded into ``right`` as ``exp(start*a)`` on the
    eigenvector route: Pade ``expm`` of a lightly damped mode is already
    1e-11 off at ``start = 831``.
    """
    a = np.asarray(a, dtype=float)
    if basis.inverse is not None:
        # left V diag(e^{t mu}) V^-1 right = sum_j e^{t mu_j} (left V)[:, j] (V^-1 right)[j, :]:
        # the rank-one terms are flattened into the rows of ``terms``, so a
        # block of lags is one (lags x n) @ (n x rows cols) product
        lv, wr = left @ basis.vectors, basis.inverse @ right
        terms = (lv.T[:, :, None] * wr[:, None, :]).reshape(a.shape[0], -1)
    else:
        estep, prop = expm(a, step), expm(a, start)
    out = []
    for lo in range(0, count, LADDER_CHUNK):
        lags = np.arange(lo, min(lo + LADDER_CHUNK, count))
        if basis.inverse is not None:
            phases = np.exp(np.multiply.outer(start + step * lags, basis.values))
            block = (phases @ terms).reshape(lags.size, lv.shape[0], wr.shape[1])
        else:
            block = np.empty((lags.size, left.shape[0], right.shape[1]),
                             dtype=np.result_type(left, right))
            for k in range(lags.size):
                block[k] = left @ prop @ right
                prop = estep @ prop
        out.append(reduce(block))
    return np.concatenate(out)


def lyap_solve(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve the Lyapunov equation ``AX + XA^H + Q = 0`` for a real or complex ``A``.

    Bartels-Stewart (SciPy): Schur reduction of ``A`` and a triangular
    Sylvester solve, O(n^3) flops.  ``Q`` need not be Hermitian; for
    Hermitian ``Q`` the solution is Hermitian up to rounding only, so
    callers that need exact symmetry symmetrize.

    Raises
    ------
    NotHurwitz
        If ``A`` has an eigenvalue with real part above the Hurwitz band (below
        it every ``lam_i + conj(lam_j)`` is at least 2e-10 from zero).
    IllConditioned
        If the residual check fails after the solve.
    """
    a = np.asarray(a)
    q = np.asarray(q)
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise DimensionMismatch("lyap_solve expects square matrices of equal size")
    _require_finite(a, "A")
    _require_finite(q, "Q")
    abscissa = np.linalg.eigvals(a).real.max()
    if abscissa >= HURWITZ_TOL:
        raise NotHurwitz(f"spectral abscissa {abscissa:.3e} is not below {HURWITZ_TOL}")
    x = scipy.linalg.solve_continuous_lyapunov(a, -q)
    res = np.linalg.norm(a @ x + x @ a.conj().T + q)
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
        raise NotSymmetric("sqrt_psd expects a symmetric/Hermitian matrix")
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


#: Gauss-Legendre nodes per panel; a Kronrod panel adds ``RULE_ORDER + 1`` more.
RULE_ORDER = 16
#: The Kronrod and the embedded Gauss value of the frequency rule agree to
#: this fraction of the integral of ``|f|`` before the Kronrod one is returned.
RULE_TOL = 1e-12
#: Halvings of every panel after which the frequency rule gives up.
RULE_DEPTH = 6
#: Frequencies per integrand call (and per block of the deviation bounds' Filon
#: sums): bounds their working memory.
RULE_BLOCK = 256


@functools.cache
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on ``[-1, 1]``, computed
    once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _kronrod(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Gauss-Kronrod extension of ``_legendre(order)``, once per
    order: the Gauss nodes and the zeros of the Stieltjes polynomial (``P_0
    .. P_order``-orthogonal under the weight ``P_order``), Kronrod weights
    exact on ``P_0 .. P_{2 order}``, and Gauss weights (0 at added nodes)."""
    leg = np.polynomial.legendre
    xg, wg = _legendre(order)
    x, w = leg.leggauss(2 * order + 8)
    p = leg.legvander(x, order + 1)
    gram = (p[:, :order + 1] * (w * p[:, order])[:, None]).T @ p
    stieltjes = np.append(np.linalg.solve(gram[:, :-1], -gram[:, -1]), 1.0)
    nodes = np.concatenate([xg, leg.legroots(stieltjes)])
    wk = np.linalg.solve(leg.legvander(nodes, nodes.size - 1).T, 2.0 * np.eye(nodes.size)[0])
    wg = np.concatenate([wg, np.zeros(order + 1)])
    nodes.flags.writeable = wk.flags.writeable = wg.flags.writeable = False
    return nodes, wk, wg


def _panels(edges, x, *weights):
    """Nodes ``x`` on ``[-1, 1]`` mapped onto each panel between consecutive
    ``edges``, with each of ``weights`` scaled to match."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    return ((edges[:-1, None] + half * (1.0 + x)).ravel(), *((half * w).ravel() for w in weights))


def gauss_panels(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite ``order``-point Gauss-Legendre rule
    on the panels between consecutive ``edges``."""
    return _panels(edges, *_legendre(order))


def _resonance_edges(poles, upper: float) -> np.ndarray:
    """Panel edges on ``[0, upper]`` for an integrand with poles at ``lam =
    +-Im(mu) -+ i Re(mu)``: candidates sit at each distinct centre ``+-Im(mu)``
    and at dyadic offsets ``|Re(mu)| 2^j / 8`` from it (one array, to the
    shallowest centre's first rung past ``2 upper``, which leaves a centre in
    ``[-upper, upper]`` no other rung in ``[0, upper]``), merged greedily into
    the widest panels no wider than their distance to the nearest pole (of
    either centre, so a resonance on the negative axis grades panels by 0)."""
    poles = np.asarray(poles, dtype=complex).ravel()
    if poles.size and poles.real.max() >= 0.0:
        raise NotHurwitz("the frequency rule needs poles with negative real parts")
    both = np.unique(np.concatenate([poles, poles.conj()]))
    centres, depths = both.imag, -both.real
    rungs = int(np.ceil(np.log2(16.0 * upper / depths.min(initial=upper)))) + 1
    steps = np.multiply.outer(depths / 8.0, 2.0 ** np.arange(rungs))
    cands = np.unique(np.concatenate([[0.0, upper], centres, (centres[:, None] + steps).ravel(),
                                      (centres[:, None] - steps).ravel()]))
    cands = cands[(cands >= 0.0) & (cands <= upper)]

    def fits(a, b):
        gap = np.maximum(np.maximum(a - centres, centres - b), 0.0)
        return b - a <= np.hypot(gap, depths).min(initial=np.inf)

    picked = [0]
    while picked[-1] < cands.size - 1:
        # the last b that fits, in closed form: b - a is |Re| for a centre x <=
        # |Re| ahead, (x^2 + Re^2) / 2x for one further ahead and hypot(x, Re)
        # for one behind; fits, monotone in b, settles the rounding
        a, x = cands[picked[-1]], centres - cands[picked[-1]]
        ahead = np.where(depths >= x, depths, (x * x + depths**2) / (2.0 * np.maximum(x, depths)))
        reach = a + np.where(x > 0.0, ahead, np.hypot(x, depths)).min(initial=np.inf)
        k = max(int(np.searchsorted(cands, reach, "right")) - 1, picked[-1] + 1)
        while k + 1 < cands.size and fits(a, cands[k + 1]):
            k += 1
        while k > picked[-1] + 1 and not fits(a, cands[k]):
            k -= 1
        picked.append(k)
    return cands[picked]


@functools.lru_cache(maxsize=64)
def _pole_layout(key: bytes) -> tuple[float, np.ndarray]:
    """``(span, edges)`` of :func:`integrate_frequency` for the poles whose
    complex bytes are ``key``: ``span = 2 max|mu| + 1`` and the read-only
    :func:`_resonance_edges` up to it, laid out once per pole set."""
    poles = np.frombuffer(key, dtype=complex)
    span = 2.0 * np.abs(poles).max(initial=0.0) + 1.0
    edges = _resonance_edges(poles, span)
    edges.flags.writeable = False
    return span, edges


def _frequency_rule(edges, span, level):
    """Nodes and stacked Kronrod and Gauss weights on every panel of ``edges``
    and of the tail ``lam = span / s``, ``s in (0, 1]``, cut in ``2^level``."""
    def split(e):
        return np.interp(np.arange((e.size - 1) * 2**level + 1) / 2**level, np.arange(e.size), e)

    mid, *w_mid = _panels(split(edges), *_kronrod(RULE_ORDER))
    s, *w_s = _panels(split(np.array([0.0, 1.0])), *_kronrod(RULE_ORDER))
    return np.concatenate([mid, span / s]), np.stack(
        [np.concatenate([w, ws * span / s**2]) for w, ws in zip(w_mid, w_s)])


def integrate_frequency(f: Callable[[np.ndarray], np.ndarray], poles):
    """``integral over [0, inf) of f(lam) dlam`` for an integrand that decays
    like ``1/lam^2`` or faster, with poles ``lam = +-Im(mu) -+ i Re(mu)`` for
    ``mu`` in ``poles`` (the eigenvalues of ``A`` for ``(i lam - A)^{-1}``).
    The integral over the whole line is this one for ``f(lam) + f(-lam)``:
    a caller whose integrand is not even folds it so; an even one is
    integrated at half the nodes of a whole-line rule.

    ``f`` maps a block of at most ``RULE_BLOCK`` frequencies to the stacked
    values (scalars or arrays) at them.  The rule is :func:`_kronrod` on the
    panels of :func:`_resonance_edges` up to ``span = 2 max|mu| + 1`` (laid
    out once per pole set, :func:`_pole_layout`), plus a tail on ``lam =
    span / s``; one pass over its nodes gives the Kronrod
    and the Gauss value and ``integral |f|``.  The Kronrod value is returned
    once the two agree to ``RULE_TOL`` times that integral; otherwise every
    panel is halved, up to ``RULE_DEPTH`` times, then :class:`NoConvergence`."""
    span, edges = _pole_layout(np.asarray(poles, dtype=complex).ravel().tobytes())
    for level in range(RULE_DEPTH + 1):
        nodes, weights = _frequency_rule(edges, span, level)
        pair = mass = 0.0
        for lo in range(0, nodes.size, RULE_BLOCK):
            vals = np.asarray(f(nodes[lo:lo + RULE_BLOCK]))
            pair = pair + np.tensordot(weights[:, lo:lo + RULE_BLOCK], vals, axes=1)
            mass = mass + np.tensordot(weights[0, lo:lo + RULE_BLOCK], np.abs(vals), axes=1)
        gap = np.abs(pair[0] - pair[1]).max()
        if gap <= RULE_TOL * np.max(mass):
            return pair[0]
    raise NoConvergence(f"Kronrod and Gauss values differ by {gap:.3e} after {RULE_DEPTH} "
                        f"halvings, more than {RULE_TOL:g} of {np.max(mass):.3e}")


def trapezoid_weights(count: int, upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and composite-trapezoid weights on ``[0, upper]``."""
    _require_integers(count=count)
    if count < 2:
        raise InvalidArgument("need at least 2 nodes")
    _require_finite(upper, "upper limit")
    nodes = np.linspace(0.0, upper, count)
    h = upper / (count - 1)
    w = np.full(count, h)
    w[0] = w[-1] = 0.5 * h
    return nodes, w
