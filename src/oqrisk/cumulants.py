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
(Niven 1968; de Bruijn 1970) serves all three uses of ``Delta``: run once
with 0/1 scalar weights stacked over all patterns it gives the exact
integer table (`delta_table`); run with the matrix weights ``Pi D`` and
``Pi D^{[1]}`` it gives the whole gamma sum of the rate integrand at one
frequency in ``O(r^2)`` matrix products, without a table (`cumulant_rate`,
in the rank-``m/2`` factor space of ``D``: the weights are the top and
bottom rows of the ``m x m`` Gram ``N = 2 W* Pi W`` of ``D = 2 W0 W0*``,
``D^{[1]} = 2 W1 W1*``, and no ``n x n`` density is formed); run with
block matrices of the multi-point covariance
``[S(t_i - t_j)]`` from ``OqhoModel.kernel`` it gives a discretized time
integral as one cyclic trace (`_grid_cumulant`).

A brute-force moment oracle (`wick_moment_oracle`) evaluates discretized
moments by enumerating *all* regular pair partitions, with no reference to
the descent tables or the single-cycle reduction, so the reduction can be
validated end to end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge, InvalidArgument, NegativeTime, NumericalDefect, OrderTooLarge
from .matfun import RULE_TOL, _require_integers, integrate_frequency, opnorm2, trapezoid_weights
from .model import OqhoModel

__all__ = [
    "DescentTable",
    "delta_table",
    "cumulant_rate",
    "cumulant_finite_td",
    "cumulant_td_discretized",
    "wick_moment_oracle",
    "cumulants_from_moments",
]

MAX_TABLE_ORDER = 12
MAX_RATE_ORDER = 10
MAX_GRID_ROWS = 1024


@dataclass(frozen=True)
class DescentTable:
    """Counts of permutations of ``{1..r-1}`` by consecutive-inversion
    pattern; the counts sum to ``(r-1)!`` and are complement-symmetric."""

    r: int
    counts: dict

    def total(self) -> int:
        return sum(self.counts.values())


def _descent_recursion(first: np.ndarray, steps, split=None) -> np.ndarray:
    """Sum over all permutations ``p`` of ``{1..m}``, ``m = len(steps) + 1``,
    of ``first @ w_1 @ ... @ w_{m-1}``, where ``(up_i, down_i) = steps[i-1]``
    and ``w_i`` is ``up_i`` if ``p_i < p_{i+1}`` and ``down_i`` otherwise.
    Operands may be stacks of matrices (leading axes broadcast); the sum is
    taken for every stacked entry at once.  With a column ``split`` an
    ascent multiplies only the first ``split`` columns of what it follows
    and a descent only the rest, so ``up`` has ``split`` rows and ``down``
    the rest (the rate integrand's factor space, :func:`_rate_terms`).

    Recursion over the relative rank of the last element (Niven 1968, de
    Bruijn 1970): with ``F_i[k]`` the sum over arrangements of ``i``
    elements whose last element has rank ``k``,

        F_{i+1}[j] = (sum_{k<j} F_i[k]) up_i + (sum_{k>=j} F_i[k]) down_i.

    The prefix sums and the suffix sums are each stacked into one
    ``(i rows) x cols`` operand, so a step is two matrix products per
    stacked entry: ``O(m^2)`` block products in all, against ``(m-1)!``
    terms for enumeration.  (``np.cumsum`` along the stacking axis is slower
    than the products themselves at n = 32, hence the list of blocks.)  Only
    the sum over ``j`` of the last step is needed, and ``F_i[k]`` enters it
    ``i - k`` times by an ascent and ``k + 1`` times by a descent:

        sum_j F_m[j] = (sum_k (i - k) F_i[k]) up + (sum_k (k + 1) F_i[k]) down,

    two single-block products in place of two stacked ones.
    """
    if not steps:
        return first
    f = [first]
    for up, down in steps[:-1]:
        i = len(f)
        # below[j] = (sum_{k<=j} F[k]) up enters rank j+1 by an ascent,
        # above[j] = (sum_{k>=j} F[k]) down enters rank j by a descent
        below = np.split(np.concatenate(list(itertools.accumulate(
            fk[..., :split] for fk in f)), axis=-2) @ up, i, axis=-2)
        above = np.split(np.concatenate(list(itertools.accumulate(
            fk[..., split:] for fk in f[::-1]))[::-1], axis=-2) @ down, i, axis=-2)
        f = [a + b for a, b in zip([*above, 0], [0, *below])]
    up, down = steps[-1]
    i = len(f)
    return (sum((i - k) * fk[..., :split] for k, fk in enumerate(f)) @ up
            + sum((k + 1) * fk[..., split:] for k, fk in enumerate(f)) @ down)


def delta_table(r: int) -> DescentTable:
    """Inversion-pattern counts for order ``r``, exact integers.

    One run of the descent-rank recursion for all ``2^{r-2}`` patterns at
    once, stacked on the leading axis with 0/1 weights (ascent weight
    ``1 - gamma_j``, descent weight ``gamma_j``): ``O(r^2)`` array steps of
    ``O(2^{r-2} r)`` integer operations each.  The two structural
    identities (total ``(r-1)!``, invariance under elementwise pattern
    complement) are certified before returning.  Capped at r = 12, the
    largest order the certificates are tested at.
    """
    _require_integers(r=r)
    if not 2 <= r <= MAX_TABLE_ORDER:
        raise OrderTooLarge(f"descent tables support 2 <= r <= {MAX_TABLE_ORDER}")
    # shape (2^{r-2}, r-2); (1, 0) at r = 2, whose one pattern is empty
    bits = np.array(list(itertools.product((0, 1), repeat=r - 2)), dtype=np.int64)
    weights = bits[:, :, None, None]
    steps = [(1 - weights[:, j], weights[:, j]) for j in range(r - 2)]
    totals = _descent_recursion(np.ones((len(bits), 1, 1), dtype=np.int64), steps)
    counts = {tuple(int(b) for b in row): int(cnt) for row, cnt in zip(bits, totals[:, 0, 0])}
    table = DescentTable(r=r, counts=counts)
    if table.total() != math.factorial(r - 1):
        raise NumericalDefect("descent counts do not sum to (r-1)!")
    for pattern, cnt in counts.items():
        if counts.get(tuple(1 - b for b in pattern)) != cnt:
            raise NumericalDefect("descent counts are not complement-symmetric")
    return table


def _gamma_sum(up, down, r: int, split=None):
    """``sum_gamma Delta_{r,gamma} Tr(up [prod_j w^{gamma_j}] down)`` with
    ``w^0 = up``, ``w^1 = down``, by the descent-rank recursion; ``up`` and
    ``down`` may be stacks (over frequencies), and so is the result.  With a
    column ``split``, ``up`` and ``down`` are the top and bottom rows of a
    Gram ``N`` and the trace is the cyclic one of the blocks ``N_ab``."""
    head = _descent_recursion(up, [(up, down)] * (r - 2), split)
    return np.sum(head[..., split:] * down[..., :split].swapaxes(-1, -2), axis=(-2, -1))


def _rate_terms(model: OqhoModel, pi, norm: float, lams, r: int):
    """The gamma-summed rate integrand at ``lams`` and its term size ``(norm
    (||D||_F + ||D^{[1]}||_F))^r``, from the factor ``W = [W0, W1]`` of
    :meth:`~oqrisk.model.OqhoModel.density_factor` alone.  As ``Pi D = 2 Pi
    W0 W0*`` and ``Pi D^{[1]} = 2 Pi W1 W1*``, the cyclic trace of a product
    of them is that of the ``m/2 x m/2`` blocks ``N_ab`` of the Gram ``N = 2
    W* Pi W`` along the same pattern, so the recursion runs on ``(m/2 x m)``
    blocks with ``N``'s top rows as ascent and bottom rows as descent and
    the column split at ``m/2``; ``||D||_F = 2 ||W0* W0||_F`` and
    ``||D^{[1]}||_F = 2 ||W1* W1||_F``."""
    half = model.m // 2
    w = model.density_factor(lams)
    wh = w.conj().swapaxes(-1, -2)
    sizes = (np.linalg.norm(wh[..., :half, :] @ w[..., :half], axis=(-2, -1))
             + np.linalg.norm(wh[..., half:, :] @ w[..., half:], axis=(-2, -1)))
    gram = wh @ (pi @ w)
    gram *= 2.0
    del w, wh  # the recursion's working set is the Gram alone
    return _gamma_sum(gram[..., :half, :], gram[..., half:, :], r, half), (2.0 * norm * sizes) ** r


def cumulant_rate(model: OqhoModel, pi, r: int) -> float:
    """Asymptotic growth rate of the r-th cumulant, frequency domain:

        (2^{r-2} / pi) sum_gamma Delta_{r,gamma} *
            integral over R of Tr( Pi D  prod_j Pi D^{[gamma_j]}  Pi D^{[1]} ) dlam,

    with ``D^{[1]}(lam) = D(-lam)'``.  The gamma sum is taken inside the
    descent-rank recursion with weights ``Pi D`` (ascent) and ``Pi D^{[1]}``
    (descent), run in the rank-``m/2`` factor space of ``D`` (``Omega = 2 U
    U*``, :func:`_rate_terms`): ``O(r^2)`` products for a block of frequency
    nodes, no table and no ``n x n`` density.  Step ``i`` is two ``(i m/2 x
    m/2) (m/2 x m)`` products, ``i m^3 / 2`` complex multiply-adds against
    ``2 i n^3`` for ``n x n`` weights: a quarter at ``m = n``, fewer while
    ``m < 4^{1/3} n``; for ``m >= 2n`` the factor space is no smaller than
    ``n`` and costs more.  The gamma-summed integrand is even in
    ``lam``: at ``-lam`` the two weights trade places up to transposition
    (``D(-lam) = D^{[1]}(lam)'``), so transposing the trace of pattern
    ``gamma`` gives the trace of its reversed complement at ``lam``, and
    reading a permutation backwards maps the one pattern's permutations
    one-to-one onto the other's, ``Delta_{r,gamma} = Delta_{r,rev(1 -
    gamma)}``.  So the rate is ``2^{r-1} / pi`` times the integral over
    ``lam >= 0``, which runs on :func:`~oqrisk.matfun.integrate_frequency`
    with the eigenvalues of ``A``, certified by its embedded Gauss-Kronrod
    pair (33 nodes a panel, unhalved on the benchmark models).  The terms
    at a node are of size ``s = (||Pi|| (||D||_F + ||D^{[1]}||_F))^r``
    (even in ``lam`` too); stacking ``eps s / RULE_TOL`` with the integrand
    certifies a rate that vanishes in exact arithmetic (``Pi D Pi D^{[1]} = 0``, a vacuum mode with
    ``Pi = I``) against the rounding of its terms, not against its own
    rounding residue.  The gamma-summed integrand is real up to rounding:
    its largest imaginary part must stay below 1e-10 of its largest modulus
    or ``s`` over the nodes.  Capped at r = 10, the largest order the
    certificates have been checked at against reference rates."""
    _require_integers(r=r)
    if not 2 <= r <= MAX_RATE_ORDER:
        raise OrderTooLarge(f"cumulant rates support 2 <= r <= {MAX_RATE_ORDER}")
    pi = model.weight_facts(pi).pi
    if not np.any(pi):
        return 0.0
    norm = opnorm2(pi)
    top = np.zeros(2)  # largest modulus or term size, largest imaginary part

    def integrand(lams):
        vals, scale = _rate_terms(model, pi, norm, lams, r)
        np.maximum(top, [max(np.abs(vals).max(), scale.max()), np.abs(vals.imag).max()],
                   out=top)
        return np.stack([vals.real, np.finfo(float).eps / RULE_TOL * scale], axis=-1)

    val = integrate_frequency(integrand, model.eig.values)[0]
    if top[1] > 1e-10 * top[0]:
        raise NumericalDefect(f"gamma-summed integrand has imaginary part {top[1]:.3e} "
                              f"against a largest modulus {top[0]:.3e}")
    return float(2 ** (r - 1) / np.pi * val)


def _grid_cumulant(pi, weights, blocks, r: int) -> float:
    """The r-th cumulant of ``sum_i w_i X(t_i)' Pi X(t_i)`` from the
    multi-point covariance ``blocks[i, j] = S(t_i - t_j)``.

    The sum over index tuples ``(i_1..i_r)`` of the cyclic products
    ``Pi S(t_{i1} - t_{i2}) ... Pi S(t_{i1} - t_{ir})'`` is the trace of a
    product of the block matrices ``U = [w_i Pi S(t_i - t_j)]`` (ascent)
    and ``W = [w_i Pi S(t_j - t_i)']`` (descent), so the descent-rank
    recursion takes the whole gamma sum in ``O(r^2)`` products of
    ``N n``-row matrices (at most ``MAX_GRID_ROWS``).  The value is real up
    to rounding: an imaginary part above 1e-8 of its modulus raises."""
    rows = blocks.shape[0] * blocks.shape[-1]
    up = np.einsum("i,ab,ijbc->iajc", weights, pi, blocks).reshape(rows, rows)
    down = np.einsum("i,ab,jicb->iajc", weights, pi, blocks).reshape(rows, rows)
    total = 2 ** (r - 1) * _gamma_sum(up, down, r)
    if abs(total.imag) > 1e-8 * max(abs(total), 1e-300):
        raise NumericalDefect(f"time-domain cumulant has imaginary residue {total.imag:.3e}")
    return float(total.real)


def cumulant_finite_td(model: OqhoModel, pi, r: int, t: float, grid: int) -> float:
    """Finite-horizon r-th cumulant by tensor-grid trapezoid cubature, the
    time-domain validation path: :func:`cumulant_td_discretized` on the
    ``grid`` trapezoid nodes of ``[0, t]``, so its multi-point covariance
    comes from :meth:`~oqrisk.model.OqhoModel.kernel`, one ``expm`` per
    distinct lag.  Error decreases as O(grid^-2)."""
    _require_integers(grid=grid)
    if t <= 0:
        raise NegativeTime("horizon must be positive")
    if grid < 5:
        raise InvalidArgument("need at least 5 points per axis")
    if grid > MAX_GRID_ROWS:  # refused before the nodes are allocated
        raise GridTooLarge(f"{grid} nodes exceed {MAX_GRID_ROWS} rows")
    return cumulant_td_discretized(model, pi, r, *trapezoid_weights(grid, t))


def cumulant_td_discretized(model: OqhoModel, pi, r: int, times, weights) -> float:
    """The descent-weighted cumulant formula on an arbitrary discretization,
    :func:`_grid_cumulant` on the multi-point covariance at ``times``; used
    to compare against the pairing oracle on the *same* grid, where
    agreement is exact combinatorics and not a quadrature statement."""
    _require_integers(r=r)
    times = np.asarray(times, dtype=float)
    if not 2 <= r <= MAX_RATE_ORDER:
        raise OrderTooLarge(f"time-domain cumulants support 2 <= r <= {MAX_RATE_ORDER}")
    if times.size * model.n > MAX_GRID_ROWS:
        raise GridTooLarge(f"{times.size} nodes x n = {model.n} exceed {MAX_GRID_ROWS} rows")
    return _grid_cumulant(model.weight_facts(pi).pi, np.asarray(weights, dtype=float),
                          model.kernel(np.subtract.outer(times, times)), r)


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
    _require_integers(r=r)
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
    root = model.weight_facts(pi).root
    kern = root @ model.kernel(np.subtract.outer(times, times)) @ root

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
                operands.append(kern[idx[fa], idx[fb]])
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
