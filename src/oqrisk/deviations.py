"""Cramer-type tail bounds for the running quadratic cost.

Everything is driven by the scalar kernel ``N(tau) = ||sqrt(Pi) S(tau)
sqrt(Pi)||`` (operator norm) and its cosine transform ``F``.  For risk
parameters ``0 <= theta < 1/(2 F(0))`` the exponential-cost growth rate is
bounded by

    qef_upper_rate(theta) = -(n / 4 pi) * integral ln(1 - 2 theta F(lam)) dlam,

and Legendre transformation of that bound yields a tail estimate for
``phi(t)/t`` above a scale ``eps``.  Two evaluation routes are provided:

* numeric: ``F`` from the degree-4 Filon rule (quartic interpolation on
  panels of four steps, integrated against ``e^{i lam t}`` exactly) on the
  kernel sampled on a graded lag grid, whose step doubles exactly each
  time the certified envelope falls 64-fold (complex residue sums per
  segment, blocked over frequencies, each frequency's value the same
  alone or in any batch), tabulated once, in one transform call, at the
  Gauss nodes of the shared frequency rule (:mod:`matfun`) for the kernel's pair poles
  and a pseudo-pole at 0 up to ``lam_base``, and on the rule's tail map
  ``lam = lam_base / s`` beyond; every frequency integral of ``g(F) = c F +
  O(F^2)`` is the exact ``int_0^inf F = pi N(0)`` for its linear term plus
  a weighted sum over that table for the rest, for all thetas of a call
  in one pass, so the optimal ``theta`` of every ``eps`` of a curve comes
  from one batched bisection on the derivative equation and the curve's
  bounds from one more pass;
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
    EpsilonTooSmall,
    InvalidArgument,
    NoConvergence,
    NotHurwitz,
    NumericalDefect,
    ThetaOutOfRange,
)
from .matfun import (RULE_BLOCK, _frequency_rule, expm_ladder, inv_sqrt_psd, lyap_solve,
                     opnorm2, sqrt_psd)
from .model import OqhoModel

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
    any valid pair is admissible, at a modest decay-rate sacrifice.  Raises
    :class:`NotHurwitz` for a drift, or a shifted drift (``lyap_solve``'s
    check), that is not Hurwitz; :class:`NotPsd` for a ``Pi`` that is not
    PSD; :class:`NumericalDefect` when a certificate fails.
    """
    if not model.is_hurwitz:
        raise NotHurwitz("the envelope needs a Hurwitz drift")
    root_pi = model.weight_facts(pi).root
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
        gamma = lyap_solve(a + mu * np.eye(model.n), np.eye(model.n))
    gamma = 0.5 * (gamma + gamma.T)
    ali = a @ gamma + gamma @ a.T + 2.0 * mu * gamma
    wmax = np.linalg.eigvalsh(ali)[-1]
    if wmax > 1e-8 * opnorm2(gamma):
        raise NumericalDefect(f"Lyapunov inequality residual {wmax:.3e} too large")
    quantum = model.steady.quantum_cov
    alpha = opnorm2(root_pi @ sqrt_psd(gamma)) * opnorm2(inv_sqrt_psd(gamma) @ quantum @ root_pi)
    return EnvelopeParams(mu=mu, gamma=gamma, alpha=float(alpha))


def _top_singular_value(block: np.ndarray) -> np.ndarray:
    """Largest singular value of each stacked matrix, as the root of the top
    eigenvalue of the Gram ``K* K`` of its columns: that eigenvalue carries
    an error of ``eps ||K||^2``, so the value keeps ~``eps / 2`` relative
    error, without the full SVD."""
    gram = block.conj().swapaxes(-1, -2) @ block
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def _powers(units, out) -> None:
    """Fill ``out[k]`` with the product of ``units[b]`` over the set bits ``b``
    of ``k``, for every ``k < len(out)``, by doubling: rows ``[n, 2n)`` are
    rows ``[0, n)`` times ``units[b]``, ``n = 2^b``.  ``out[0]`` is 1."""
    out[0] = 1.0
    done = 1
    for unit in units:
        count = min(done, len(out) - done)
        np.multiply(out[:count], unit, out=out[done:done + count])
        done += count


def _filon_weights(theta, unit, unit2):
    """The degree-4 Filon weights ``(W_0, W_1, W_2)`` at each ``theta = lam
    h``, with ``unit = e^{i theta}`` and ``unit2 = e^{2 i theta}``: ``W_j =
    int_0^4 L_j(s) e^{i theta (s - j)} ds`` for the quartic Lagrange basis
    ``L_j`` of a panel's nodes ``0 .. 4``, the last two mirroring the first
    (``W_{4-j} = conj W_j``, so ``W_2`` is real).  ``W_j`` is ``e^{i theta (2
    - j)}`` times the centred ``c_j = int_{-2}^2 L_j(u + 2) e^{i theta u}
    du``, taken from its Taylor series where ``|theta| <= FILON_SERIES`` and
    from the moments ``int_{-2}^2 u^k e^{i theta u} du`` elsewhere."""
    # Both branches run on every theta, the series as a matrix product of
    # fixed shape: no weight's bits depend on which others share its branch.
    series = np.abs(theta) <= FILON_SERIES
    t = np.where(series, theta, 0.0)
    powers = np.empty((_FILON_TAYLOR.shape[1],) + theta.shape)  # t^(2k)
    powers[0] = 1.0
    np.multiply(t, t, out=powers[1])
    for k in range(2, len(powers)):
        np.multiply(powers[k - 1], powers[1], out=powers[k])
    centred = np.tensordot(_FILON_TAYLOR, powers, 1)  # Re c_0, Im c_0, Re c_1, Im c_1, c_2
    del powers
    centred[1::2] *= t
    t = np.where(series, 1.0, theta)
    c, s = unit2.real, unit2.imag
    moment = 2.0 * s / t  # int u^k cos(theta u) du for even k, sin for odd k, by parts
    closed = np.multiply.outer(_FILON_MOMENTS[:, 0], moment)
    for k in range(1, 5):
        moment = ((k * moment - 2.0 ** (k + 1) * c) if k % 2 else
                  (2.0 ** (k + 1) * s - k * moment)) / t
        closed += np.multiply.outer(_FILON_MOMENTS[:, k], moment)
    np.copyto(centred, closed, where=~series)
    return ((centred[0] + 1j * centred[1]) * unit2, (centred[2] + 1j * centred[3]) * unit,
            centred[4])


def _filon(segments, lam) -> np.ndarray:
    """``integral f(t) e^{i lam t} dt`` over a graded grid, for an array of
    frequencies: the grid is given as the ``(start, step, samples)`` of its
    segments, each a uniform grid ``t_k = start + k step`` whose sample
    count is ``1 mod 4``, and each segment is integrated by the degree-4
    Filon rule (Iserles & Norsett, BIT 44 (2004) 755-772) as one complex
    sum: ``f`` is interpolated by a quartic on each panel of four steps and
    the quartic is integrated against ``e^{i lam t}`` exactly, so the rule
    is exact for piecewise-quartic f at any frequency.  At ``lam = 0`` it is
    Boole's rule.

    *Residue sums.*  With ``theta = lam step`` and the panel weights of
    :func:`_filon_weights`, a segment's integral is ``step`` times ``2 Re
    W_0 S_0 - conj(W_0) f_0 - W_0 f_{n-1} e^{i theta (n - 1)} + W_1 S_1 +
    conj(W_1) S_3 + W_2 S_2``, where ``S_r = sum_{k = r mod 4} f_k e^{i
    theta k}`` (``S_0`` holds both end samples).

    *Phase products.*  The sums split ``k = a W + j`` for a power of two
    ``W >= 4``, ``W ~ sqrt(n)``, ``n`` the segment's sample count, and ``A =
    ceil(n / W)``: for a block of frequencies the columns ``C_j = sum_a f_{a
    W + j} e^{i theta W a}`` are one real matrix product of the samples,
    folded ``W x A``, with the interleaved real and imaginary parts of the
    coarse phases, and ``S_r = sum_{j = r mod 4} C_j e^{i theta j}``.  No
    phase is a cosine of ``theta k``.  The only cosines and sines are of the
    unit phases ``e^{i theta 2^b}``, whose arguments are exact (``theta``
    times a power of two); the fine phases ``e^{i theta j}`` and the coarse
    ``e^{i theta W a}`` are their products over the set bits of ``j`` and of
    ``W a`` (:func:`_powers`).  Each phase ``e^{i theta k}``, the end phase
    ``e^{i theta (n - 1)}`` included, is so a product of at most ``log2 W +
    log2 A`` (about ``log2 n``) unit phases, each rounded once, and is off by
    about that many eps (a cosine of ``theta k`` takes up to ``eps theta k /
    2`` from its rounded argument).

    *One phase table.*  Every step is the shortest, ``h``, times a power of
    two, so every segment reads its unit phases from one table, ``e^{i lam h
    2^p}`` (``lam h 2^p`` is ``theta 2^b`` bit for bit); any other step is an
    :class:`InvalidArgument`.

    *Fixed blocks.*  Frequencies are taken ``RULE_BLOCK`` at a time, the
    last block padded with zeros, so every matrix product of a call has the
    shape it has in any other call on the same grid.  Every other step is
    elementwise, and a frequency's value is so the same, bit for bit,
    whether it is computed alone or in any batch.

    *Working set.*  The fine, coarse and column tables are allocated once
    per call, for the largest fold, and a block's unit phases live only
    while its sums are formed: ``16 RULE_BLOCK (rows + 2 W + A)`` bytes for
    ``rows`` unit phases, ~1.1 MB on the paper fixture (tracemalloc) and
    ~6 MB for one segment at the grid's 200_001-sample cap; never a
    frequencies-by-grid table.

    *One pass per block.*  The weights, the end corrections and the shifts
    ``e^{i lam start}`` are formed for every segment of a block at once, and
    the segments' terms are added in order."""
    lam = np.asarray(lam, dtype=float)
    flat = lam.ravel()
    if any((fvals.size - 1) % 4 for _, _, fvals in segments):
        raise InvalidArgument("each Filon segment needs a sample count of 1 mod 4")
    starts, steps, firsts, ends = np.array([(start, step, fvals[0], fvals[-1])
                                            for start, step, fvals in segments]).T
    shift = np.log2(steps / steps.min()).astype(int)  # each segment's row of e^{i theta}
    if not np.array_equal(np.ldexp(steps.min(), shift), steps):
        raise InvalidArgument("each Filon step must be the shortest times a power of two")
    folds, bits = [], []
    for _, _, fvals in segments:
        width = 4 << max(0, round(math.log2(fvals.size) / 2) - 2)
        fold = np.zeros(-(-fvals.size // width) * width)
        fold[:fvals.size] = fvals
        folds.append(fold.reshape(-1, width).T)  # fold[j, a] = f_{a W + j}
        bits.append(width.bit_length() - 1 + (folds[-1].shape[1] - 1).bit_length())
    row_steps = np.ldexp(steps.min(), np.arange(max(shift + bits)))
    size = RULE_BLOCK
    widest, tallest = np.max([fold.shape for fold in folds], axis=0)
    fine, coarse, cols = (np.empty((rows, size), dtype=complex)
                          for rows in (widest, tallest, widest))

    def block(blk):  # every array of a block but the tables is freed on return
        theta = np.multiply.outer(steps, blk)
        args = np.multiply.outer(row_steps, blk)  # lam h 2^p: theta_s 2^b, bit for bit
        units = np.empty(args.shape, dtype=complex)
        np.cos(args, out=units.real)
        np.sin(args, out=units.imag)
        del args  # not held through the segment loop
        sums = np.empty((5, len(segments), size), dtype=complex)  # S_0 .. S_3, end phase
        for s, (fold, (_, _, fvals)) in enumerate(zip(folds, segments)):
            width, rows = fold.shape
            mid = shift[s] + width.bit_length() - 1
            _powers(units[shift[s]:mid], fine[:width])
            _powers(units[mid:shift[s] + bits[s]], coarse[:rows])
            part = np.matmul(fold, coarse[:rows].view(float),
                             out=cols[:width].view(float)).view(complex)
            part *= fine[:width]  # C_j e^{i theta j}, summed by residue mod 4
            sums[:4, s] = part.reshape(-1, 4, size).sum(0)
            # the end sample is fold[(n - 1) % W, A - 1]
            np.multiply(coarse[rows - 1], fine[(fvals.size - 1) % width], out=sums[4, s])
        w0, w1, w2 = _filon_weights(theta, units[shift], units[shift + 1])
        s0, s1, s2, s3, last = sums
        last *= ends[:, None]  # f_{n-1} e^{i theta (n - 1)}
        terms = 2.0 * w0.real * s0
        terms -= w0.conj() * firsts[:, None]
        terms -= w0 * last
        terms += w1 * s1
        terms += w1.conj() * s3
        terms += w2 * s2
        args = np.multiply.outer(starts, blk)
        phase = np.empty(args.shape, dtype=complex)
        np.cos(args, out=phase.real)
        np.sin(args, out=phase.imag)
        phase *= steps[:, None]
        terms *= phase
        return terms.sum(0)

    out = np.empty(flat.size, dtype=complex)
    padded = np.zeros(-(-flat.size // size) * size)
    padded[:flat.size] = flat
    for lo in range(0, flat.size, size):
        out[lo:lo + size] = block(padded[lo:lo + size])[:flat.size - lo]
    return out.reshape(lam.shape)


# A pseudo-pole at lam = 0 of depth lam_base 2^-GRADE_DEPTH grades the table
# toward the peak of 1 / (1 - 2 theta F) (width ~ sqrt(1 - theta/theta_max)),
# up to theta = theta_max (1 - 1e-10).
GRADE_DEPTH = 40
#: The quartic Lagrange basis on a panel's centred nodes ``-2 .. 2``: the
#: integer coefficients of ``u^0 .. u^4`` of ``24 L_{-2}``, ``6 L_{-1}`` and
#: ``4 L_0``, with those denominators (``L_1`` and ``L_2`` mirror the first two).
_QUARTIC_BASIS = (((0, 2, -1, -2, 1), 24), ((0, -4, 4, 1, -1), 6), ((4, 0, -5, 0, 1), 4))
#: The centred weights ``Re c_0, Im c_0, Re c_1, Im c_1, c_2`` of
#: :func:`_filon_weights`: the cosine (even) or sine (odd) parts of each basis.
_FILON_PARTS = [(coefs, den, odd) for coefs, den in _QUARTIC_BASIS
                for odd in (0, 1)[:1 + any(coefs[1::2])]]
#: Below ``|lam h| = FILON_SERIES`` the centred weights come from their Taylor
#: series in ``t = lam h`` (row: one weight, over ``t`` if odd; column ``k``:
#: its ``t^(2k)`` coefficient), good to ~3 eps; above, from the moments, which
#: lose ~``10 eps / t^3``.  The coefficients are ``i^n / n!`` times ``int_{-2}^2
#: L(u) u^n du``, with ``int_{-2}^2 u^p du = 2^(p+2) / (p+1)`` for even ``p``,
#: each an exact ratio of integers rounded once.
FILON_SERIES = 1.5


def _series_coef(coefs, den, n):
    """``int_{-2}^2 L(u) u^n du / n!`` for ``L = sum_m coefs[m] u^m / den``."""
    terms = [(c * 2 ** (m + n + 2), m + n + 1) for m, c in enumerate(coefs)
             if c and (m + n) % 2 == 0]
    common = math.prod(d for _, d in terms)
    return sum(num * (common // d) for num, d in terms) / (common * den * math.factorial(n))


_FILON_TAYLOR = np.array([[(-1) ** k * _series_coef(coefs, den, 2 * k + odd) for k in range(14)]
                          for coefs, den, odd in _FILON_PARTS])
#: The centred weights from the moments ``int_{-2}^2 u^k e^{i t u} du``, ``k = 0 .. 4``
#: (their cosine parts for even ``k``, sine parts for odd ``k``).
_FILON_MOMENTS = np.array([[c / den if m % 2 == odd else 0.0 for m, c in enumerate(coefs)]
                           for coefs, den, odd in _FILON_PARTS])


@dataclass(frozen=True)
class _FTable:
    """``F`` at the nodes of a composite Gauss-Legendre rule on ``[0, inf)``,
    and ``f0 = F(0)``."""

    nodes: np.ndarray
    weights: np.ndarray
    fvals: np.ndarray
    f0: float


def _tabulate(ffun, cut, poles) -> _FTable:
    """Tabulate ``ffun`` (vectorised) at 0 and at the Gauss half of the
    frequency rule (:func:`_frequency_rule`, unhalved) for ``poles`` and a
    pseudo-pole at 0 of depth ``cut 2^-GRADE_DEPTH`` up to ``cut``: the
    16-point Gauss-Legendre panels up to ``cut`` and on the tail ``lam = cut
    / s``, the nodes whose Gauss weight is nonzero, in one call."""
    nodes, (_, weights) = _frequency_rule(np.append(poles, -cut * 2.0**-GRADE_DEPTH), cut, 0)
    gauss = weights != 0.0
    fvals = ffun(np.append(0.0, nodes[gauss]))
    return _FTable(nodes[gauss], weights[gauss], fvals[1:], float(fvals[0]))


def _two_theta_f(theta, fvals):
    arg = 2.0 * theta * fvals
    if arg.max() >= 1.0:
        raise NoConvergence("1 - 2 theta F crossed zero inside the integration range; "
                            "theta is too close to the boundary for the numeric route")
    return arg


def _tail_corrected_integral(table: _FTable, g, coef, n0):
    """integral over R of g(F) for ``g(F) = coef F + O(F^2)``: the exact
    identity int_0^inf F = pi N(0) for the linear term, and the table's
    weighted sum for the rest, ``g(F) - coef F``.  ``coef`` may be an array,
    one per row of ``g(F)``, each row reduced as a one-row call."""
    f = table.fvals
    rest = g(f) - np.asarray(coef)[..., None] * f
    return 2.0 * ((rest[..., None, :] @ table.weights[:, None])[..., 0, 0] + coef * math.pi * n0)


def _tail_corrected_log_integral(table: _FTable, theta, n0):
    """integral over R of ln(1 - 2 theta F), at a scalar or each of a 1-D theta."""
    return _tail_corrected_integral(
        table, lambda f: np.log1p(-_two_theta_f(np.asarray(theta)[..., None], f)),
        -2.0 * theta, n0)


class DeviationAnalysis:
    """Shared state for the deviation bounds of one ``(model, Pi)`` pair.

    Builds the kernel sampler lazily on first transform use: the kernel is
    tabulated on a graded grid long enough for the certified envelope to
    push the truncation error below the working tolerance, whose step
    doubles each time the envelope falls 64-fold, its norm taken per lag
    from the top eigenvalue of a Gram matrix ``rank(P + i Theta)`` wide (see
    :meth:`_build_grid`).  ``F`` at an array of frequencies is then the
    blocked degree-4 Filon sums of the segments (:func:`_filon`).  One call
    gives the bounds' table of ``F`` (:func:`_tabulate`) and its first entry, the
    peak ``F(0)``; the table serves every theta and eps.
    """

    def __init__(self, model: OqhoModel, pi):
        if not model.is_hurwitz:
            raise NotHurwitz("deviation bounds need a Hurwitz drift")
        self.model = model
        facts = model.weight_facts(pi)
        self.pi, self.root_pi = facts.pi, facts.root
        self.quantum = model.steady.quantum_cov
        self.n0 = float(opnorm2(self.root_pi @ self.quantum @ self.root_pi))
        self._unit = math.ldexp(1.0, -math.frexp(self.n0)[1])  # see _build_grid
        self.degenerate = not np.any(self.pi)
        self.envelope = None if self.degenerate else envelope_params(model, self.pi)
        self._grid = None

    def n_kernel(self, tau: float) -> float:
        """``N(tau)``, even in ``tau``: an oracle (``expm`` and an SVD norm) good to
        about 1e-13 only while ``||tau A||`` is up to about 100; on a damped mode
        with eigenvalues ``-0.003 +- 10i`` it is off by 1.4e-11 at ``tau = 831``."""
        return float(opnorm2(self.root_pi @ self.model.kernel(abs(tau)) @ self.root_pi))

    def _build_grid(self):
        """Sample ``N 2^-e`` on a graded grid of ``[0, a_S]``, ``a_S >= tau*``:
        ``self._grid`` holds every sample, and ``self._segments`` the ``(start,
        step, samples)`` of each segment, whose sample views share the boundary
        sample.  ``2^e = 1 / self._unit`` is the power of two of ``N(0)``, so
        ``F`` is scaled back exactly after the Filon sums, and neither ``N^2``
        of a weight near 1e-300 underflows nor the sums of one near 1e305
        overflow.  Segment ``s`` has the step ``h 2^s`` exactly, for the a
        priori step ``h``, and there are ``2001`` to ``200_001`` samples.

        Certificate: the envelope tail past ``tau*`` is at most ``1e-13
        max(2 alpha / mu, 1)``, and the degree-4 Filon error bound over the
        grid is at most ``eps_f = 1e-8 max(2 alpha / mu, 0.1)`` unless a
        sample cap binds (the damped mode).  The README's note on the kernel
        grid derives the step, the grading and the caps.
        """
        if self._grid is not None or self.degenerate:
            return
        env = self.envelope
        mu, alpha = env.mu, env.alpha
        f0_est = max(2.0 * alpha / mu, 1e-3)
        tail_tol = 1e-13 * max(f0_est, 1.0)
        tau_star = math.log(max(2.0 * alpha / mu, 1e-6) / tail_tol) / mu
        omega = opnorm2(self.model.a) + mu
        eps_f = 1e-8 * max(f0_est, 0.1)
        h = (472.5 * eps_f / max(alpha, 1e-6) / (omega**6 * tau_star)) ** (1.0 / 6.0)
        c = 6.0 * math.log(2.0) / mu
        lengths = np.diff(np.append(np.arange(0.0, tau_star, c), tau_star))  # L_s
        graded = lengths / 2.0 ** np.arange(lengths.size)  # L_s 2^-s, summing to G
        h = float(np.clip(h, graded.sum() / (4.0 * (50_000 - lengths.size)),
                          graded.sum() / 2000.0))
        # segment s: step h 2^s from a_s = 4 h K_s, in m_s panels reaching min((s + 1) c, tau*)
        starts, steps, panels, lags = [], [], [], 0  # lags: K_s, in units of 4 h
        for s in range(lengths.size):
            count = math.ceil((min((s + 1) * c, tau_star) - 4.0 * h * lags) / (4.0 * h * 2**s))
            if count > 0:
                starts.append(4.0 * h * lags)
                steps.append(h * 2**s)
                panels.append(count)
                lags += count * 2**s
        panels = np.array(panels)
        # Q = P + i Theta is PSD, of rank n/2 when the invariant state is pure.
        # With its thin factor Q = V V* (SteadyState.thin) and S = (V* Pi
        # V)^{1/2}, K K* = (R E V S)(R E V S)* for K = R E Q R, R = sqrt(Pi),
        # E = e^{tau A}: N is the top singular value of the n x rank(Q)
        # matrix R E V S, sampled as N / 2^e.
        thin = self.model.steady.thin
        right = thin @ sqrt_psd(thin.conj().T @ self.pi @ thin) * self._unit
        # N(a_s + k h_s) for k = 0 .. 4 m_s - 1, and the end sample N(a_S)
        counts = 4 * panels
        counts[-1] += 1
        grid = np.concatenate([
            expm_ladder(self.model.a, self.model.eig, step, count, left=self.root_pi,
                        right=right, reduce=_top_singular_value, start=start)
            for start, step, count in zip(starts, steps, counts)])
        offsets = np.concatenate(([0], np.cumsum(4 * panels)))
        self._segments = [(start, step, grid[lo:hi + 1])
                          for start, step, lo, hi in zip(starts, steps, offsets, offsets[1:])]
        self._grid = grid

    def f_transform(self, lam):
        """``F(lam) = 2 int_0^inf N(tau) cos(lam tau) dtau``: a float for a
        scalar ``lam``, an array of its shape for an array."""
        lam = np.asarray(lam, dtype=float)
        if not np.all(np.isfinite(lam)):
            raise InvalidArgument("frequencies must be finite")
        if self.degenerate:
            out = np.zeros(lam.shape)
        else:
            self._build_grid()
            out = 2.0 * _filon(self._segments, lam).real / self._unit
        return float(out) if out.ndim == 0 else out

    def f_infnorm(self) -> float:
        """``||F||_inf = F(0)`` (valid since ``N >= 0``)."""
        return 0.0 if self.degenerate else self._table.f0

    def _lam_base(self) -> float:
        return max(50.0, 20.0 * (opnorm2(self.model.a) + self.envelope.mu))

    @cached_property
    def _table(self) -> _FTable:
        # F depends on neither theta nor eps: one table serves every bound.  F
        # beats at the poles mu_i + conj(mu_j) of K K*, whose top eigenvalue is N^2
        mu = self.model.eig.values
        return _tabulate(self.f_transform, self._lam_base(), np.add.outer(mu, mu.conj()))

    def qef_upper_rate(self, theta):
        """Upper bound on the exponential-cost growth rate; zero at
        ``theta = 0`` and finite up to ``1 / (2 F(0))`` exclusive.  A float
        for a scalar ``theta``, an array of its shape for an array, whose
        nonzero thetas take one pass over the table."""
        theta = np.asarray(theta, dtype=float)
        if not np.all((theta >= 0.0) & (theta < math.inf)):  # NaN fails too
            raise ThetaOutOfRange(f"theta = {theta} is not in [0, inf)")
        out, live = np.zeros(theta.shape), theta > 0.0
        if live.any() and not self.degenerate:
            theta_max = 1.0 / (2.0 * self.f_infnorm())
            if theta.max() >= theta_max:
                raise ThetaOutOfRange(f"theta = {theta.max()} outside [0, {theta_max:.6e})")
            out[live] = -self.model.n / (4.0 * math.pi) * _tail_corrected_log_integral(
                self._table, theta[live], self.n0)
        return float(out) if out.ndim == 0 else out

    def _derivs(self, thetas: np.ndarray) -> np.ndarray:
        """``(n / 2 pi) integral over R of F / (1 - 2 theta F)`` at each of
        the 1-D ``thetas``, in one pass over the table.  The sum runs on
        ``F 2^-e`` (*Scale* of :meth:`_build_grid`), so only a derivative past
        the double range (a weight near 1e300, close to ``theta_max``)
        overflows; it reads ``+inf``, above every finite eps the bisection
        compares it with."""
        with np.errstate(over="ignore"):
            val = _tail_corrected_integral(
                self._table, lambda f: f * self._unit / (1.0 - _two_theta_f(thetas[:, None], f)),
                self._unit, self.n0) / self._unit
        return self.model.n / (2.0 * math.pi) * val

    def _cramer_points(self, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(bound, theta_star)`` at each of the 1-D ``eps``: one bracket pass
        and one bisection loop over every ``eps`` at once, each making the
        comparisons of a bisection of its own; then one ``qef_upper_rate``
        pass over every ``theta_star``."""
        threshold = self.model.n * self.n0
        low = ~(eps >= threshold * (1.0 - 1e-12))  # NaN fails too
        if low.any():
            raise EpsilonTooSmall(f"epsilon = {eps[low][0]} below n*N(0) = {threshold}")
        if self.degenerate:
            return np.where(eps == 0.0, 0.0, -math.inf), np.where(eps == 0.0, 0.0, math.inf)
        live = eps > threshold * (1.0 + 1e-14)  # the rest are (0, 0)
        theta_max = 1.0 / (2.0 * self.f_infnorm())
        # stop short of theta_max by more than F's noise floor: 1 - 2 theta F > 0;
        # the first top at which the derivative reaches eps closes the bracket
        tops = theta_max * (1.0 - np.array([1e-6, 1e-8]))
        reach = ~(self._derivs(tops)[:, None] < eps)
        if not np.all(reach[1] | ~live):
            raise NoConvergence("derivative equation has no bracketable root below "
                                "the numerically safe end of the theta interval")
        lo, hi = np.zeros(eps.size), np.where(live, np.where(reach[0], tops[0], tops[1]), 0.0)
        # every bracket starts at lo = 0 with hi within 1e-6 of theta_max, so every
        # eps stops after exactly 34 halvings (width 1.16e-10 theta_max after 33,
        # 5.8e-11 after 34): one loop halves them all
        while np.any(hi - lo > 1e-10 * theta_max):
            mid = 0.5 * (lo + hi)
            below = self._derivs(mid) < eps
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        theta_star = 0.5 * (lo + hi)  # 0 gives the bound +0
        return self.qef_upper_rate(theta_star) - theta_star * eps, theta_star

    def cramer_bound_numeric(self, epsilon: float) -> tuple[float, float]:
        """Optimized tail bound ``inf_theta (qef_upper_rate - theta eps)``.

        Bisection on the increasing derivative equation to a 1e-10 relative
        theta tolerance, the one-point case of :meth:`bound_curve`'s solve.
        Returns ``(bound, theta_star)``, or ``(-inf, inf)`` for the zero-cost
        weight, whose objective is unbounded below."""
        bound, theta_star = self._cramer_points(_epsilon_grid(epsilon, ndim=0)[None])
        return float(bound[0]), float(theta_star[0])

    def bound_curve(self, eps_grid) -> list[TailBoundCurve]:
        """Closed-form curve over the 1-D grid, plus the numeric curve (one
        batched solve) for every nonzero weight."""
        eps = _epsilon_grid(eps_grid)
        env, curves = self.envelope, []
        if env is not None:
            args = (env.mu, env.alpha, self.model.n, eps)
            curves.append(TailBoundCurve(eps, cramer_bound_closed(*args),
                                         closed_theta_star(*args), "closed_form"))
        if not self.degenerate:
            curves.append(TailBoundCurve(eps, *self._cramer_points(eps), method="numeric"))
        return curves


def _epsilon_grid(eps, ndim: int = 1) -> np.ndarray:
    """``eps`` as a float array; :class:`InvalidArgument` unless it has
    ``ndim`` axes and no infinite entry (NaN is left to the threshold checks)."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != ndim or np.isinf(eps).any():
        raise InvalidArgument(f"need {ndim}-D finite epsilon, got shape {eps.shape}")
    return eps


def _envelope_guard(mu: float, alpha: float, theta: float = 0.0) -> None:
    """:class:`InvalidArgument` unless the envelope's ``mu`` and ``alpha`` are
    finite and positive, then :class:`ThetaOutOfRange` unless ``0 <= theta <
    mu / (4 alpha)``, the envelope integrals' domain.  NaN fails both."""
    if not (0.0 < mu < math.inf and 0.0 < alpha < math.inf):
        raise InvalidArgument(f"envelope needs finite positive mu, alpha; got {mu}, {alpha}")
    if not 0.0 <= theta < 0.25 * mu / alpha:
        raise ThetaOutOfRange("theta outside the envelope interval [0, mu/(4 alpha))")


def _closed_form(mu: float, alpha: float, n: int, epsilon, form):
    """``form(eps, n alpha)``: a float for a scalar ``eps``, an array for an
    array; :class:`InvalidArgument` for an invalid envelope (``mu``,
    ``alpha``), :class:`EpsilonTooSmall` if an ``eps`` is below ``n alpha``."""
    _envelope_guard(mu, alpha)
    eps, scale = np.asarray(epsilon, dtype=float), n * alpha
    if not np.all(eps >= scale * (1.0 - 1e-12)):  # NaN fails too
        raise EpsilonTooSmall(f"epsilon = {epsilon} below n*alpha = {scale}")
    out = form(eps, scale)
    return float(out) if out.ndim == 0 else out


def cramer_bound_closed(mu: float, alpha: float, n: int, epsilon):
    """Envelope tail bound ``(n mu / 4)(2 - n alpha / eps - eps / (n alpha))``,
    zero at ``eps = n alpha`` and decreasing beyond, at a scalar or 1-D eps."""
    return _closed_form(mu, alpha, n, epsilon, lambda e, s: 0.25 * n * mu * (2.0 - s / e - e / s))


def closed_theta_star(mu: float, alpha: float, n: int, epsilon):
    """Minimizer of the envelope bound, ``(mu/4 alpha)(1 - (n alpha/eps)^2)``."""
    return _closed_form(mu, alpha, n, epsilon,
                        lambda e, s: 0.25 * mu / alpha * (1.0 - (s / e) ** 2))


def envelope_log_integral(alpha: float, mu: float, theta: float) -> float:
    """Numeric ``-integral ln(1 - 2 theta Fhat)`` for the analytic envelope
    transform ``Fhat = 2 alpha mu / (lam^2 + mu^2)`` of ``alpha e^{-mu |tau|}``,
    on the tail bounds' table; crosscheck target for the closed form."""
    _envelope_guard(mu, alpha, theta)
    table = _tabulate(lambda lam: 2.0 * alpha * mu / (lam * lam + mu * mu),
                      max(50.0, 20.0 * mu), [-mu])
    return -_tail_corrected_log_integral(table, theta, alpha)


def envelope_log_integral_closed(alpha: float, mu: float, theta: float) -> float:
    """``-integral ln(1 - 2 theta Fhat) = 2 pi (mu - sqrt(mu^2 - 4 theta alpha mu))``."""
    _envelope_guard(mu, alpha, theta)
    return 2.0 * math.pi * (mu - math.sqrt(mu * mu - 4.0 * theta * alpha * mu))
