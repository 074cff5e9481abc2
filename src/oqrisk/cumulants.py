"""Higher-order cumulant growth rates of the running quadratic cost.

The r-th cumulant of ``phi(t)`` is a weighted sum, over binary
``(r-2)``-tuples ``gamma``, of cyclic kernel-product integrals

    K_r(phi(t)) = 2^{r-1} sum_gamma Delta_{r,gamma} *
        integral_{[0,t]^r} Tr( Pi S(t1-t2)
                               prod_{j=2}^{r-1} Pi S^{[gamma_j]}(tj-t_{j+1})
                               Pi S(t1-tr)' ) dt,

where ``S^{[0]} = S`` and ``S^{[1]}(tau) = S(-tau)'``, and the integer
weight ``Delta_{r,gamma}`` counts permutations of ``{1..r-1}`` whose
consecutive-inversion pattern equals ``gamma``.  The growth rate replaces
the time integral with a frequency integral of spectral-density products.

One recursion over the relative rank of the last element of a permutation
(Niven 1968; de Bruijn 1970) serves both uses of ``Delta``: run with 0/1
scalar weights once per pattern it gives the exact integer table
(`delta_table`); run with the matrix weights ``Pi D`` and ``Pi D^{[1]}``
it gives the whole gamma sum of the rate integrand at one frequency in
``O(r^2)`` matrix products, without a table (`cumulant_rate`).

A brute-force moment oracle (`wick_moment_oracle`) evaluates discretized
moments by enumerating *all* regular pair partitions, with no reference to
the descent tables or the single-cycle reduction, so the reduction can be
validated end to end.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge, NumericalDefect, OrderTooLarge
from .gaussian import CovarianceKernel, SpectralDensity, gramian_steady
from .matfun import (
    QuadratureSpec,
    TailHint,
    expm_ladder,
    integrate_realline,
    opnorm2,
    trapezoid_weights,
)
from .model import OqhoModel
from .quartic import _as_weight

__all__ = [
    "DescentTable",
    "WeightedKernel",
    "delta_table",
    "cumulant_rate",
    "cumulant_finite_td",
    "cumulant_td_discretized",
    "wick_moment_oracle",
    "cumulants_from_moments",
]

MAX_TABLE_ORDER = 12
MAX_RATE_ORDER = 10


class WeightedKernel:
    """Cost-weighted lag kernel ``K(tau) = sqrt(Pi) S(tau) sqrt(Pi)``.

    Satisfies ``K(-tau) = K(tau)*``; this is the covariance function of
    the weighted coordinate process whose squared entries accumulate the
    running cost.
    """

    def __init__(self, model: OqhoModel, pi):
        self.root = model.weight_facts(_as_weight(pi)).root
        self.kernel = CovarianceKernel(model)

    def k(self, tau: float) -> np.ndarray:
        return self.root @ self.kernel.s(tau) @ self.root


@dataclass(frozen=True)
class DescentTable:
    """Counts of permutations of ``{1..r-1}`` by consecutive-inversion
    pattern; the counts sum to ``(r-1)!`` and are complement-symmetric."""

    r: int
    counts: dict

    def total(self) -> int:
        return sum(self.counts.values())


def _descent_recursion(first: np.ndarray, steps) -> np.ndarray:
    """Sum over all permutations ``p`` of ``{1..m}``, ``m = len(steps) + 1``,
    of ``first @ w_1 @ ... @ w_{m-1}``, where ``(up_i, down_i) = steps[i-1]``
    and ``w_i`` is ``up_i`` if ``p_i < p_{i+1}`` and ``down_i`` otherwise.

    Recursion over the relative rank of the last element (Niven 1968, de
    Bruijn 1970): with ``F_i[k]`` the sum over arrangements of ``i``
    elements whose last element has rank ``k``,

        F_{i+1}[j] = (sum_{k<j} F_i[k]) up_i + (sum_{k>=j} F_i[k]) down_i.

    The prefix sums and the suffix sums are each stacked into one
    ``(i rows) x cols`` operand, so a step is two 2-D matrix products:
    ``O(m^2)`` block products in all, against ``(m-1)!`` terms for
    enumeration.  (``np.cumsum`` along the stacking axis is slower than the
    products themselves at n = 32, hence the list of blocks.)
    """
    rows, cols = first.shape
    f = [first]
    for up, down in steps:
        i = len(f)
        # below[j] = (sum_{k<=j} F[k]) up enters rank j+1 by an ascent,
        # above[j] = (sum_{k>=j} F[k]) down enters rank j by a descent
        below = np.concatenate(list(itertools.accumulate(f))) @ up
        above = np.concatenate(list(itertools.accumulate(f[::-1]))[::-1]) @ down
        below = below.reshape(i, rows, cols)
        above = above.reshape(i, rows, cols)
        f = [a + b for a, b in zip([*above, 0], [0, *below])]
    return sum(f)


def delta_table(r: int) -> DescentTable:
    """Inversion-pattern counts for order ``r``, exact integers.

    Runs the descent-rank recursion once per pattern with 0/1 weights
    (ascent weight ``1 - gamma_j``, descent weight ``gamma_j``), so the
    table costs ``O(2^{r-2} r^2)`` integer operations.  The two structural
    identities (total ``(r-1)!``, invariance under elementwise pattern
    complement) are certified before returning.  Capped at r = 12, the
    largest order the certificates are tested at.
    """
    if not 2 <= r <= MAX_TABLE_ORDER:
        raise OrderTooLarge(f"descent tables support 2 <= r <= {MAX_TABLE_ORDER}")
    one = np.ones((1, 1), dtype=np.int64)
    zero = np.zeros((1, 1), dtype=np.int64)
    ascent, descent = (one, zero), (zero, one)
    counts = {
        bits: int(_descent_recursion(one, [descent if b else ascent for b in bits])[0, 0])
        for bits in itertools.product((0, 1), repeat=r - 2)
    }
    table = DescentTable(r=r, counts=counts)
    if table.total() != math.factorial(r - 1):
        raise NumericalDefect("descent counts do not sum to (r-1)!")
    for bits, cnt in counts.items():
        comp = tuple(1 - b for b in bits)
        if counts.get(comp) != cnt:
            raise NumericalDefect("descent counts are not complement-symmetric")
    return table


def _gamma_sum(pi, d0, d1, r: int) -> complex:
    """``sum_gamma Delta_{r,gamma} Tr(Pi d0 [prod_j Pi d^{gamma_j}] Pi d1)``
    with ``d^0 = d0``, ``d^1 = d1``, by the descent-rank recursion."""
    up = pi @ d0
    down = pi @ d1
    head = _descent_recursion(up, [(up, down)] * (r - 2))
    return complex(np.sum(head * down.T))


def cumulant_rate(
    model: OqhoModel, pi, r: int, spec: QuadratureSpec | None = None
) -> float:
    """Asymptotic growth rate of the r-th cumulant, frequency domain:

        (2^{r-2} / pi) sum_gamma Delta_{r,gamma} *
            integral Tr( Pi D  prod_j Pi D^{[gamma_j]}  Pi D^{[1]} ) dlam,

    with ``D^{[1]}(lam) = D(-lam)'``.  The gamma sum is taken inside the
    descent-rank recursion with matrix weights ``Pi D`` (ascent) and
    ``Pi D^{[1]}`` (descent), ``O(r^2)`` matrix products per frequency
    node and no table.  The gamma-summed integrand is real up to rounding;
    the imaginary residue is checked pointwise and the real part
    integrated.  Capped at r = 10: the integrand scales like the r-th power
    of ``||Pi D||`` and the quadrature tolerances and reality floor have
    been checked against reference rates up to that order only.
    """
    if not 2 <= r <= MAX_RATE_ORDER:
        raise OrderTooLarge(f"cumulant rates support 2 <= r <= {MAX_RATE_ORDER}")
    pi = _as_weight(pi)
    if not np.any(pi):
        return 0.0
    sd = SpectralDensity(model)
    # characteristic magnitude for the reality floor: an identically zero
    # integrand still carries rounding noise at this scale times epsilon
    char = (opnorm2(pi) * opnorm2(sd.d(0.0))) ** r
    scale_probe = [char]

    def integrand(lam: float) -> float:
        d0, d1 = sd.d_pair(lam)
        val = _gamma_sum(pi, d0, d1, r)
        probe = max(scale_probe[0], abs(val))
        scale_probe[0] = probe
        if abs(val.imag) > 1e-10 * probe:
            raise NumericalDefect(
                f"gamma-summed integrand has imaginary part {val.imag:.3e} at "
                f"lam={lam}"
            )
        return val.real

    spec = spec or QuadratureSpec(abs_tol=1e-10, rel_tol=1e-8)
    if spec.tail_decay_hint is None:
        # each density factor decays like 1/lam^2
        lam0 = 10.0 * (1.0 + opnorm2(model.a))
        c = abs(integrand(lam0)) * lam0 ** (2 * r) + spec.abs_tol
        spec = QuadratureSpec(
            abs_tol=spec.abs_tol,
            rel_tol=spec.rel_tol,
            max_subdivisions=spec.max_subdivisions,
            tail_decay_hint=TailHint(c=c, rate=2.0 * r),
        )
    val = integrate_realline(integrand, spec)
    return float(2 ** (r - 2) / np.pi * val)


def _kernel_tables(model: OqhoModel, count: int, step: float):
    """Kernel values on the lag ladder k*step, k = -(count-1) .. count-1,
    stacked with the lag index shifted by count-1."""
    quantum = gramian_steady(model).quantum_cov
    s_pos = expm_ladder(model.a, model.eig, step, count, right=quantum)
    return np.concatenate([s_pos[:0:-1].conj().transpose(0, 2, 1), s_pos])


def cumulant_finite_td(
    model: OqhoModel, pi, r: int, t: float, grid: int
) -> float:
    """Finite-horizon r-th cumulant by tensor-grid trapezoid cubature.

    Supported for r in {2, 3} as the time-domain validation path; the
    integrand depends only on pairwise lags, so kernel values are
    precomputed on the lag ladder and the cubature reduces to weighted
    gathers.  Error decreases as O(grid^-2).
    """
    if r not in (2, 3):
        raise OrderTooLarge("time-domain cumulants implemented for r in {2, 3}")
    if t <= 0:
        raise ValueError("horizon must be positive")
    if grid < 5:
        raise ValueError("need at least 5 points per axis")
    pi = _as_weight(pi)
    _, w = trapezoid_weights(grid, t)
    step = t / (grid - 1)
    s_all = _kernel_tables(model, grid, step)
    ps = np.einsum("ij,kjl->kil", pi, s_all)  # Pi S(lag)
    ps1 = np.einsum("ij,kjl->kil", pi, np.transpose(s_all[::-1], (0, 2, 1)))
    pst = np.einsum("ij,kjl->kil", pi, np.transpose(s_all, (0, 2, 1)))
    off = grid - 1
    dsz = 2 * grid - 1
    if r == 2:
        # value(i,j) = Tr(Pi S(ti-tj) Pi S(ti-tj)'), a function of d = i-j;
        # lag-count weights are the autocorrelation of the (palindromic)
        # trapezoid weights
        tr2 = np.einsum("kij,kji->k", ps, pst)
        wcorr = np.correlate(w, w, mode="full")
        total = 2.0 * np.dot(wcorr, tr2)
    else:
        # triple integrand depends on (a, b) = (ti-tj, tj-tk) only; the
        # closing factor has lag a+b, zero-padded outside the reachable band
        pad = np.zeros((2 * dsz - 1, *pst.shape[1:]), dtype=complex)
        pad[off : off + dsz] = pst
        wab = np.zeros((dsz, dsz))
        a_span = np.arange(grid)
        for j in range(grid):
            rows = a_span - j + off  # a = i - j for i = 0..grid-1
            cols = j - a_span[::-1] + off  # b = j - k for k = grid-1..0
            wab[np.ix_(rows, cols)] += w[j] * np.outer(w, w[::-1])
        table = delta_table(3)
        total = 0.0 + 0.0j
        for bits, cnt in table.counts.items():
            mid = ps if bits[0] == 0 else ps1
            for ai in range(dsz):
                row = np.einsum("ij,bjk,bki->b", ps[ai], mid, pad[ai : ai + dsz])
                total += cnt * np.dot(wab[ai], row)
        total *= 4.0
    scale = max(abs(total), 1e-300)
    if abs(np.imag(total)) > 1e-8 * scale:
        raise NumericalDefect(
            f"time-domain cumulant has imaginary residue {np.imag(total):.3e}"
        )
    return float(np.real(total))


def cumulant_td_discretized(model: OqhoModel, pi, r: int, times, weights) -> float:
    """The descent-weighted cumulant formula on an arbitrary discretization.

    Direct sums over index tuples; used to compare against the pairing
    oracle on the *same* grid, where agreement is exact combinatorics and
    not a quadrature statement.
    """
    if r not in (2, 3):
        raise OrderTooLarge("discretized cumulants implemented for r in {2, 3}")
    pi = _as_weight(pi)
    times = np.asarray(times, dtype=float)
    weights = np.asarray(weights, dtype=float)
    kern = CovarianceKernel(model)
    g = times.size
    s_of = functools.cache(lambda i, j: kern.s(times[i] - times[j]))

    table = delta_table(r)
    total = 0.0 + 0.0j
    for idx in itertools.product(range(g), repeat=r):
        wt = np.prod(weights[list(idx)])
        lead = pi @ s_of(idx[0], idx[1])
        for bits, cnt in table.counts.items():
            mat = lead
            for j in range(1, r - 1):
                if bits[j - 1] == 0:
                    mat = mat @ (pi @ s_of(idx[j], idx[j + 1]))
                else:
                    mat = mat @ (pi @ s_of(idx[j + 1], idx[j]).T)
            mat = mat @ (pi @ s_of(idx[0], idx[r - 1]).T)
            total += cnt * wt * np.trace(mat)
    total *= 2 ** (r - 1)
    return float(np.real(total))


def _pairings(elems):
    if not elems:
        yield []
        return
    head = elems[0]
    for i in range(1, len(elems)):
        rest = elems[1:i] + elems[i + 1 :]
        for tail in _pairings(rest):
            yield [(head, elems[i])] + tail


def wick_moment_oracle(model: OqhoModel, pi, r: int, times, weights) -> float:
    """Brute-force moment ``E(phi_hat^r)`` of the discretized cost
    ``phi_hat = sum_i w_i * X(t_i)' Pi X(t_i)``.

    Expands the ordered product moment over *all* regular pair partitions
    of the 2r weighted-observable slots and contracts each partition with
    the lagged kernel ``K(tau) = sqrt(Pi) S(tau) sqrt(Pi)`` by explicit
    index summation.  Independent of the descent tables and of the
    single-cycle reduction.
    """
    if not 1 <= r <= 3:
        raise OrderTooLarge("the pairing oracle supports r in {1, 2, 3}")
    times = np.asarray(times, dtype=float)
    weights = np.asarray(weights, dtype=float)
    g = times.size
    n_pairings = 1
    for k in range(1, 2 * r, 2):
        n_pairings *= k
    if g ** r * n_pairings > 200_000:
        raise GridTooLarge(
            f"{g}^{r} tuples x {n_pairings} pairings exceeds the brute-force cap"
        )
    weighted = WeightedKernel(model, pi)
    k_of = functools.cache(lambda i, j: weighted.k(times[i] - times[j]))

    prs = list(_pairings(list(range(2 * r))))
    letters = "abcdefgh"
    total = 0.0 + 0.0j
    for idx in itertools.product(range(g), repeat=r):
        wt = np.prod(weights[list(idx)])
        acc = 0.0 + 0.0j
        for pr in prs:
            operands = []
            subs = []
            for a, b in pr:  # slot order encodes operator order
                fa, fb = a // 2, b // 2
                operands.append(k_of(idx[fa], idx[fb]))
                subs.append(letters[fa] + letters[fb])
            acc += np.einsum(",".join(subs) + "->", *operands)
        total += wt * acc
    scale = max(abs(total), 1e-300)
    if abs(total.imag) > 1e-8 * scale:
        raise NumericalDefect(
            f"moment oracle returned imaginary residue {total.imag:.3e}"
        )
    return float(total.real)


def cumulants_from_moments(moments) -> list[float]:
    """Cumulants from raw moments via the distribution-free polynomial

        kappa_r = mu_r - r! sum_{k=2}^r ((-1)^k / k)
                  sum_{j1+...+jk = r, ji >= 1} prod_s mu_{js} / js!.

    The first three reduce to ``mu1``, ``mu2 - mu1^2`` and
    ``mu3 - 3 mu1 mu2 + 2 mu1^3``.
    """
    moments = list(moments)
    out = []
    for r in range(1, len(moments) + 1):
        acc = moments[r - 1]
        for k in range(2, r + 1):
            comp_sum = 0.0
            for comp in _compositions(r, k):
                prod = 1.0
                for j in comp:
                    prod *= moments[j - 1] / math.factorial(j)
                comp_sum += prod
            acc -= math.factorial(r) * ((-1.0) ** k / k) * comp_sum
        out.append(acc)
    return out


def _compositions(total: int, parts: int):
    """Ordered tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail
