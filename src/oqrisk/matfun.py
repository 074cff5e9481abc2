"""Shared numerical kernel: matrix functions, Lyapunov and Riccati solves,
log-determinants, quadrature.

All analysis modules go through these routines so accuracy policies live in
one place.  This is the one module that may import SciPy, and it does so
only inside a function, for a hard case: the default path runs on numpy
alone.  Conventions:

* Lyapunov equations are solved in the eigenbasis of the drift, then
  certified: Hurwitz drift and residual are checked on every call.  A
  (nearly) defective drift, or a solution that fails its certificate, falls
  back to SciPy's Bartels-Stewart method (Schur forms and a triangular
  Sylvester solve, O(n^3)), certified the same way (:func:`lyap_solve`).
* The stabilising Riccati solution comes from the stable eigenvectors of
  its Hamiltonian and one Kleinman step, certified by its residual; an
  ordered Schur form (SciPy) gives the stable subspace when that route
  fails (:func:`_care`).
* An exponential moment's ``ln det(I - X)`` is summed from ``log1p`` of
  Cholesky pivots, never from the log of a number near 1, so a small ``X``
  keeps its relative accuracy; a non-positive ``I - X`` is an infinite
  moment, :class:`ThetaOutOfRange` (:func:`_logdet_i_minus`).
* The matrix exponential is scaling and squaring with a Pade approximant of
  degree 3 to 13 (Higham 2005, backward stable), in numpy.  The lag ladder
  ``e^{(a + k h) A}`` of each segment of the tail-bound kernel grid goes
  through the eigendecomposition when ``A`` is comfortably diagonalizable,
  with the phases at the segment start ``a`` formed directly, and otherwise
  steps by one exponential from ``e^{a A}`` (:func:`expm_ladder`).
* Frequency integrals go through one rule on the half line ``lam >= 0``
  (:func:`_frequency_rule`): composite Gauss-Kronrod panels graded toward
  the resonances of the integrand's poles up to an upper end, laid out once
  per pole set and upper end, and one algebraic tail beyond.
  :func:`integrate_frequency` certifies the Kronrod value with the
  embedded Gauss one, on values its caller yields block by block and level
  by level, so a level can be served from values already held (the
  cumulant rates' shared state).  An integral over the whole line is the
  half-line integral of ``f(lam) + f(-lam)``; the callers whose integrands
  are even in ``lam`` (the cumulant rates) need no fold.  The tail bounds'
  table of ``F`` is the Gauss half of the rule: the nodes whose Gauss
  weight is nonzero.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NoConvergence,
    NotHurwitz,
    NotPsd,
    NotSymmetric,
    NumericalDefect,
    ThetaOutOfRange,
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
    "integrate_frequency",
]

#: Drift eigenvalues must lie strictly left of this abscissa to count as
#: Hurwitz; marginal systems are rejected by steady-state code paths.
HURWITZ_TOL = -1e-10


def _require_finite(a, name):
    if not np.all(np.isfinite(a)):
        raise InvalidArgument(f"{name} contains non-finite entries")


def _require_integers(**values) -> None:
    """:class:`InvalidArgument` unless every named value is an integer (a
    Python or numpy integer, not a boolean, which Python counts as one); run
    before a range check compares them."""
    bad = {name: v for name, v in values.items()
           if isinstance(v, bool) or not isinstance(v, numbers.Integral)}
    if bad:
        raise InvalidArgument(f"need integers, got {bad}")


#: Pade degrees of :func:`expm` and the largest 1-norm each one covers to
#: unit roundoff (Higham 2005, Table 2.3); a larger norm is scaled to the last.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}

#: Coefficients ``b_0 .. b_m`` of the degree-``m`` diagonal Pade approximant
#: of ``e^x``, ``p(x) = sum b_j x^j`` over ``p(-x)``.
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
         1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


def _pade(a: np.ndarray, norm: float) -> tuple[np.ndarray, int]:
    """The lowest-degree Pade approximant of ``e^{a / 2^s}`` that is exact to
    unit roundoff at 1-norm ``norm``, and the ``s`` it needs: ``(V - U)^-1 (V +
    U)``, with ``U`` and ``V`` the odd and the even part of its numerator, as
    ``I + 2 (V - U)^-1 U``, whose rounding is relative to ``e^a - I``.  Degree
    13 is evaluated from ``A^2``, ``A^4`` and ``A^6`` alone (Higham 2005)."""
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    for m in (3, 5, 7, 9):
        if norm <= _PADE_THETA[m]:
            b, powers, s = _PADE_COEFFS[m], [eye, a2], 0
            for _ in range(m // 2 - 1):
                powers.append(powers[-1] @ a2)
            u = a @ sum(b[2 * j + 1] * p for j, p in enumerate(powers))
            v = sum(b[2 * j] * p for j, p in enumerate(powers))
            break
    else:
        s = max(0, int(np.ceil(np.log2(norm / _PADE_THETA[13]))))
        scale = 0.5 ** s
        a, a2 = scale * a, scale * scale * a2
        a4 = a2 @ a2
        a6 = a4 @ a2
        b = _PADE_COEFFS[13]
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 \
            + b[0] * eye
    return eye + 2.0 * np.linalg.solve(v - u, u), s


def expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(t*a)`` in numpy: scaling and squaring with
    the lowest Pade degree of 3, 5, 7, 9 and 13 that is exact to unit
    roundoff at the 1-norm of ``t*a`` (Higham, "The scaling and squaring
    method for the matrix exponential revisited", SIAM J. Matrix Anal. Appl.
    26 (2005) 1179-1193), backward stable.  SciPy is not imported.

    Raises
    ------
    InvalidArgument
        If ``a`` or ``t`` is not finite.
    NumericalDefect
        If ``exp(t*a)`` leaves the double-precision range (no floating-point
        warning is emitted).
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("expm expects a square matrix")
    _require_finite(a, "matrix")
    _require_finite(t, "time")
    with np.errstate(all="ignore"):  # a non-finite value raises below
        a = t * a.astype(np.result_type(a, float))
        norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
        out, s = _pade(a, norm) if np.isfinite(norm) else (np.full_like(a, np.nan), 0)
        for _ in range(s):
            out = out @ out
    if not np.all(np.isfinite(out)):
        raise NumericalDefect("exp(t*A) overflowed double precision")
    return out


#: Eigenvector condition number from which a drift counts as nearly
#: defective: eigenvalue-based formulas lose accuracy there.
DIAG_COND = 1e8

#: Bytes of a block of :func:`expm_ladder`'s complex lag matrices.
_LADDER_BYTES = 1 << 18


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
    number; raises :class:`NumericalDefect` if LAPACK does not converge."""
    try:
        lam, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalDefect("eigenvalue iteration did not converge") from exc
    cond = float(np.linalg.cond(vecs))
    inverse = np.linalg.inv(vecs) if np.isfinite(cond) and cond < DIAG_COND else None
    return EigBasis(values=lam, vectors=vecs, cond=cond, inverse=inverse)


def expm_ladder(a, basis: EigBasis, step: float, count: int, left, right, reduce,
                start: float = 0.0) -> np.ndarray:
    """``reduce(left @ exp((start + k*step)*a) @ right)`` for ``k = 0 ..
    count-1`` (count >= 1), stacked along the first axis.

    Lags are formed in blocks of ``max(1, _LADDER_BYTES // lag bytes)``, a
    lag's bytes those of a complex ``left.rows x right.cols`` matrix, and
    ``reduce`` maps each block to its per-lag result before the next one is
    formed, which bounds peak memory by a few blocks at any ``n``.  Goes
    through ``basis = eig_basis(a)`` when it is well conditioned, with the
    phases ``exp((start + k*step) mu)`` of the eigenvalues ``mu`` formed
    directly, and otherwise steps by ``exp(step*a)`` from ``exp(start*a)``.
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
    out, chunk = [], max(1, _LADDER_BYTES // (16 * left.shape[0] * right.shape[1]))
    for lo in range(0, count, chunk):
        lags = np.arange(lo, min(lo + chunk, count))
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


def _lyap_defect(a, x, q) -> Optional[str]:
    """Why ``x`` fails the certificate of ``AX + XA^H + Q = 0`` (a residual
    above 1e-10 of ``||A|| ||X|| + ||Q||``), or ``None`` if it passes."""
    res = np.linalg.norm(a @ x + x @ a.conj().T + q)
    scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
    return f"Lyapunov residual {res:.3e} exceeds 1e-10 * {scale:.3e}" if res > 1e-10 * scale \
        else None


def lyap_solve(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve the Lyapunov equation ``AX + XA^H + Q = 0`` for a real or complex ``A``.

    The numpy route solves in the eigenbasis of one ``np.linalg.eig(A)`` (which
    also gives the Hurwitz test): with ``A = V diag(mu) V^-1``, ``X = V Y V^H``
    and ``Y_ij = -(V^-1 Q V^-H)_ij / (mu_i + conj(mu_j))``.  The result is
    certified by its residual (at most 1e-10 of ``||A|| ||X|| + ||Q||``).  When
    ``V`` is ill conditioned (``cond(V) >= DIAG_COND``, a (nearly) defective
    ``A``) or the certificate fails, ``scipy.linalg`` is imported here and
    Bartels-Stewart (a Schur reduction of ``A`` and a triangular Sylvester
    solve) gives ``X``, certified the same way.  Both are O(n^3) flops.  ``Q``
    need not be Hermitian; for Hermitian ``Q`` the solution is Hermitian up to
    rounding only, so callers that need exact symmetry symmetrize.

    Raises
    ------
    DimensionMismatch
        Unless ``A`` and ``Q`` are square, of one size and not empty.
    NotHurwitz
        If ``A`` has an eigenvalue with real part above the Hurwitz band (below
        it every ``mu_i + conj(mu_j)`` is at least 2e-10 from zero).
    NumericalDefect
        If the Bartels-Stewart solution fails the residual certificate too.
    """
    a = np.asarray(a)
    q = np.asarray(q)
    if a.ndim != 2 or a.shape != q.shape or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatch("lyap_solve expects non-empty square matrices of equal size")
    _require_finite(a, "A")
    _require_finite(q, "Q")
    # a real A with a complex Q solves as its complex cast, to the bit
    a = a.astype(complex) if np.iscomplexobj(q) else a
    basis = eig_basis(a)
    abscissa = basis.values.real.max()
    if abscissa >= HURWITZ_TOL:
        raise NotHurwitz(f"spectral abscissa {abscissa:.3e} is not below {HURWITZ_TOL}")
    if basis.inverse is not None:
        v, vi, mu = basis.vectors, basis.inverse, basis.values
        x = v @ ((vi @ q @ vi.conj().T) / -np.add.outer(mu, mu.conj())) @ v.conj().T
        x = x if np.iscomplexobj(a) else x.real
        if _lyap_defect(a, x, q) is None:
            return x
    import scipy.linalg  # the fallback: only a hard case loads SciPy

    x = scipy.linalg.solve_continuous_lyapunov(a, -q)
    defect = _lyap_defect(a, x, q)
    if defect is not None:
        raise NumericalDefect(defect)
    return x


def _care_from(ham: np.ndarray, z: np.ndarray) -> np.ndarray:
    """:func:`_care`'s solution from a basis ``z`` (``2n x n``) of the
    Hamiltonian's stable subspace: ``X2 X1^-1``, one Kleinman Newton step and
    the residual certificate."""
    n = len(ham) // 2
    a, f, pi = ham[:n, :n], ham[:n, n:], -ham[n:, :n]
    # X2 X1^-1; a singular X1 gives no solution and fails the residual test
    x = np.linalg.lstsq(z[:n].T, z[n:].T, rcond=None)[0].T
    x = 0.5 * (x + x.conj().T)
    x = x + lyap_solve((a + f @ x).conj().T, a.T @ x + x @ a + pi + x @ f @ x)
    terms = (a.T @ x, x @ a, pi, x @ f @ x)
    res, scale = np.linalg.norm(sum(terms)), sum(np.linalg.norm(t) for t in terms)
    if res > 1e-12 * scale:
        raise NumericalDefect(f"Riccati residual {res:.3e} exceeds 1e-12 * {scale:.3e}")
    return x


def _care(ham: np.ndarray) -> np.ndarray:
    """The stabilising solution ``X`` of ``A'X + XA + Pi + XFX = 0`` from its
    Hamiltonian ``ham = [[A, F], [-Pi, -A']]`` (Glover & Doyle 1988).

    The numpy route takes the stable subspace from the eigenvectors of one
    ``np.linalg.eig(ham)`` (:func:`eig_basis`) whose eigenvalues have negative
    real parts, then one Kleinman Newton step, whose Lyapunov solve certifies
    the closed loop Hurwitz, and the residual certificate: at most 1e-12 of
    its terms' norms.  When that route fails (eigenvectors ill conditioned at
    ``DIAG_COND`` or past it, not n stable eigenvalues, a non-Hurwitz closed
    loop or a failed certificate), ``scipy.linalg`` is imported here and the
    subspace comes from an ordered complex Schur form (Laub 1979), certified
    the same way.  :class:`NumericalDefect` unless that subspace has dimension
    n and passes the certificate."""
    n = len(ham) // 2
    try:
        basis = eig_basis(ham)
        stable = basis.values.real < 0.0
        if basis.inverse is not None and np.count_nonzero(stable) == n:
            return _care_from(ham, basis.vectors[:, stable])
    except (np.linalg.LinAlgError, NotHurwitz, NumericalDefect):
        pass
    import scipy.linalg  # the fallback: only a hard case loads SciPy

    _, z, dim = scipy.linalg.schur(ham, output="complex", sort="lhp")
    if dim != n:
        raise NumericalDefect(f"the Hamiltonian has {dim} stable eigenvalues, not {n}")
    return _care_from(ham, z[:, :n])


@functools.cache
def _unit_triangles(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``d x d`` identity and 0/1 mask of the strictly lower triangle."""
    eye, lower = np.eye(d), np.tri(d, k=-1)
    eye.flags.writeable = lower.flags.writeable = False
    return eye, lower


def _logdet_i_minus(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ln det(I - X), C)`` for a stack of real-symmetric or Hermitian ``X``
    (of which only the lower triangle is read), ``C`` the lower Cholesky factor
    of ``I - X``.

    ``det(I - X) = prod c_jj^2 = prod (1 - s_j)`` with ``s_j = Re x_jj +
    sum_{k<j} |c_jk|^2``, so the log-det is ``sum log1p(-s_j)`` and no number
    near 1 is logged: a small ``X`` keeps its relative accuracy, where the logs
    of the diagonal ``c_jj``, each within ``|X|`` of 1, keep only about ``eps``
    absolute.  :class:`ThetaOutOfRange` when ``I - X`` is not positive definite
    (the exponential moment it belongs to is infinite), :class:`NumericalDefect`
    when ``X`` has a NaN."""
    eye, lower = _unit_triangles(x.shape[-1])
    try:
        chol = np.linalg.cholesky(eye - x)  # a NaN passes through, into s
        s = x.diagonal(0, -2, -1).real + np.vecdot(chol * lower, chol).real
    except np.linalg.LinAlgError:
        s = np.ones(1)  # not positive definite
    if s.max() < 1.0:  # NaN fails too
        return np.log1p(-s).sum(-1), chol
    if np.isnan(s).any():
        raise NumericalDefect("ln det(I - X) of an X with a NaN")
    raise ThetaOutOfRange("I - X is not positive definite: the exponential moment is infinite")


def opnorm2(k: np.ndarray) -> float:
    """Largest singular value (l2-induced operator norm)."""
    k = np.asarray(k)
    _require_finite(k, "matrix")
    if k.size == 0 or not np.any(k):
        return 0.0
    return float(np.linalg.norm(k, 2))


def _psd_eig(k: np.ndarray):
    k = np.asarray(k)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.size == 0:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {k.shape}")
    # the test herm_res > 1e-12 max(1, ||k||) on k / max|k|, whose norms cannot overflow
    big = float(np.abs(k).max(initial=0.0)) or 1.0
    unit = k / big
    if np.linalg.norm(unit - unit.conj().T) > 1e-12 * max(1.0 / big, np.linalg.norm(unit)):
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


def _frequency_rule(poles, upper: float, level: int):
    """Read-only nodes and stacked Kronrod and Gauss weights of the frequency rule for
    ``poles``, built once per pole set, upper end and level: :func:`_kronrod` panels on
    the edges of :func:`_resonance_edges` up to ``upper`` and on the tail ``lam = upper / s``,
    ``s in (0, 1]`` (weights ``w_s upper / s^2``), every panel cut in ``2^level``.  The
    16 Gauss nodes lead each panel and every added node has Gauss weight 0."""
    return _rule_layout(np.asarray(poles, dtype=complex).ravel().tobytes(), upper, level)


@functools.lru_cache(maxsize=64)
def _rule_layout(key: bytes, upper: float, level: int):
    def split(e):
        return np.interp(np.arange((e.size - 1) * 2**level + 1) / 2**level, np.arange(e.size), e)

    edges = _resonance_edges(np.frombuffer(key, dtype=complex), upper)
    mid, *w_mid = _panels(split(edges), *_kronrod(RULE_ORDER))
    s, *w_s = _panels(split(np.array([0.0, 1.0])), *_kronrod(RULE_ORDER))
    nodes = np.concatenate([mid, upper / s])
    weights = np.stack([np.concatenate([w, ws * upper / s**2]) for w, ws in zip(w_mid, w_s)])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def integrate_frequency(blocks, poles):
    """``integral over [0, inf) of f(lam) dlam`` for an integrand that decays
    like ``1/lam^2`` or faster, with poles ``lam = +-Im(mu) -+ i Re(mu)`` for
    ``mu`` in ``poles`` (the eigenvalues of ``A`` for ``(i lam - A)^{-1}``).
    The integral over the whole line is this one for ``f(lam) + f(-lam)``:
    a caller whose integrand is not even folds it so; an even one is
    integrated at half the nodes of a whole-line rule.

    ``blocks(level, nodes)`` yields the stacked values of ``f`` (scalars or
    arrays) on the consecutive ``RULE_BLOCK`` blocks of the ``level``-times
    halved rule's ``nodes``.  The rule is :func:`_frequency_rule` up to
    ``span = 2 max|mu| + 1``; one pass over its nodes gives the Kronrod and
    the Gauss value and ``integral |f|``.  The Kronrod value is returned once
    the two agree to ``RULE_TOL`` times that integral; otherwise every panel
    is halved, up to ``RULE_DEPTH`` times, then :class:`NoConvergence`."""
    span = 2.0 * np.abs(np.asarray(poles, dtype=complex)).max(initial=0.0) + 1.0
    for level in range(RULE_DEPTH + 1):
        nodes, weights = _frequency_rule(poles, span, level)
        pair = mass = 0.0
        for lo, vals in zip(range(0, nodes.size, RULE_BLOCK), blocks(level, nodes)):
            vals = np.asarray(vals)
            pair = pair + np.tensordot(weights[:, lo:lo + RULE_BLOCK], vals, axes=1)
            mass = mass + np.tensordot(weights[0, lo:lo + RULE_BLOCK], np.abs(vals), axes=1)
        gap = np.abs(pair[0] - pair[1]).max()
        if gap <= RULE_TOL * np.max(mass):
            return pair[0]
    raise NoConvergence(f"Kronrod and Gauss values differ by {gap:.3e} after {RULE_DEPTH} "
                        f"halvings, more than {RULE_TOL:g} of {np.max(mass):.3e}")
