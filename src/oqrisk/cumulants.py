"""Higher-order cumulants of the running quadratic cost ``phi(t)``.

Gives the descent-pattern counts ``Delta_{r,gamma}`` (:func:`delta_table`,
exact integers, ``r <= 12``), the asymptotic growth rate of the r-th
cumulant (:func:`cumulant_rate`, ``r <= 10``), the r-th cumulant of a
discretized cost (:func:`cumulant_td_discretized`; on trapezoid nodes,
:func:`cumulant_finite_td`), and a brute-force moment oracle
(:func:`wick_moment_oracle`) that enumerates *all* regular pair partitions
and shares neither the descent tables nor the single-cycle reduction with
the rest, so the reduction is validated end to end.  The cumulant formula
and the descent-rank recursion behind all three are derived in the
README's numerical notes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import DimensionMismatch, InvalidArgument, NumericalDefect
from .matfun import RULE_BLOCK, RULE_TOL, _require_integers, integrate_frequency, opnorm2
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
    and ``w_i`` is ``up_i`` if ``p_i < p_{i+1}`` and ``down_i`` otherwise, in
    ``O(m^2)`` block products (:func:`_ascend` steps, :func:`_fold` closes).
    Operands may be stacks of matrices (leading axes broadcast); the sum is
    taken for every stacked entry at once.  With a column ``split`` an
    ascent multiplies only the first ``split`` columns of what it follows
    and a descent only the rest, so ``up`` has ``split`` rows and ``down``
    the rest (the rate integrand's factor space, :class:`_RateRun`).
    """
    if not steps:
        return first
    f = [first]
    for up, down in steps[:-1]:
        f = _ascend(f, up, down, split)
    return _fold(f, *steps[-1], split)


def _ascend(f, up, down, split=None) -> list:
    """One step ``F_i -> F_{i+1}`` of :func:`_descent_recursion`."""
    i = len(f)
    # below[j] = (sum_{k<=j} F[k]) up enters rank j+1 by an ascent,
    # above[j] = (sum_{k>=j} F[k]) down enters rank j by a descent
    below = np.split(np.concatenate(list(itertools.accumulate(
        fk[..., :split] for fk in f)), axis=-2) @ up, i, axis=-2)
    above = np.split(np.concatenate(list(itertools.accumulate(
        fk[..., split:] for fk in f[::-1]))[::-1], axis=-2) @ down, i, axis=-2)
    return [a + b for a, b in zip([*above, 0], [0, *below])]


def _fold(f, up, down, split=None) -> np.ndarray:
    """``sum_j F_{i+1}[j]`` from ``f = F_i``, the last step of
    :func:`_descent_recursion`."""
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
        raise InvalidArgument(f"descent tables support 2 <= r <= {MAX_TABLE_ORDER}")
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
    return _trace(_descent_recursion(up, [(up, down)] * (r - 2), split), down, split)


def _trace(head, down, split=None):
    """``Tr(head down)`` (of the blocks, with a column ``split``), stacked."""
    return np.sum(head[..., split:] * down[..., :split].swapaxes(-1, -2), axis=(-2, -1))


class _RateRun:
    """The gamma-summed rate integrand on one run of frequency nodes, order
    by order on one descent-rank recursion, from the factor ``W = [W0, W1]``
    of :meth:`~oqrisk.model.OqhoModel.density_factor` alone.  It holds the
    Gram ``N = 2 W* Pi W``, the term base ``2 ||Pi|| (||D||_F +
    ||D^{[1]}||_F)`` (``||D||_F = 2 ||W0* W0||_F``, ``||D^{[1]}||_F = 2
    ||W1* W1||_F``), the recursion state ``F_k`` (until the last order is
    closed) and the integrand of every order closed so far; every order is
    the one :func:`_gamma_sum` gives on ``N``'s top and bottom rows with the
    column split at ``m/2``, to the bit, and a node's values do not depend
    on the run it is solved in."""

    def __init__(self, facts, lams):
        self.half = half = facts.model.m // 2
        w = facts.model.density_factor(lams)
        wh = w.conj().swapaxes(-1, -2)
        sizes = (np.linalg.norm(wh[..., :half, :] @ w[..., :half], axis=(-2, -1))
                 + np.linalg.norm(wh[..., half:, :] @ w[..., half:], axis=(-2, -1)))
        self.gram = wh @ (facts.pi @ w.view(float)).view(complex)  # one real product
        self.gram *= 2.0
        self.base = 2.0 * opnorm2(facts.pi) * sizes
        self.f = [self.gram[..., :half, :]]
        self.vals = []  # the integrand of order 2, 3, ...

    def column(self, r: int):
        """The integrand of order ``r`` and its term size ``base^r``, closing
        every order up to ``r`` that is not closed yet."""
        up, down = self.gram[..., :self.half, :], self.gram[..., self.half:, :]
        while len(self.vals) < r - 1:
            order = len(self.vals) + 2
            if order >= 4:
                self.f = _ascend(self.f, up, down, self.half)
            head = up if order == 2 else _fold(self.f, up, down, self.half)
            self.vals.append(_trace(head, down, self.half))
            if order == MAX_RATE_ORDER:
                self.f = []  # no order is left to close
        return self.vals[r - 2], self.base ** r

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.gram, self.base, *self.f, *self.vals))


#: Bytes of rate state a weight keeps between :func:`cumulant_rate` calls:
#: the paper fixture's is at most ~0.38 MB (through r = 9; closing r = 10
#: drops ``F``) and the n-sweep's n <= 8 models fit at r = 2 and 4; an
#: n = 16 model's Grams alone are ~2 MB.  A larger state is dropped run by
#: run as its columns are read, so a call holds about one run above this
#: budget.  Values never depend on it.
RATE_STATE_BYTES = 1 << 20


def _run_edges(model, nodes) -> range:
    """Starts of the runs of ``nodes``: at most ``matfun._STACK_BYTES // (16
    n m)`` consecutive nodes (at least one), so one run's ``n x m`` complex
    density factors fit that budget and its Grams, descent state and closed
    integrands take a few times it."""
    return range(0, nodes.size, max(1, matfun._STACK_BYTES // (16 * model.n * model.m)))


def _rule_blocks(columns):
    """Regroup the ``(integrand, term size)`` columns of consecutive runs into
    the consecutive ``RULE_BLOCK`` blocks that
    :func:`~oqrisk.matfun.integrate_frequency` sums, node for node."""
    vals = scale = np.empty(0)
    for more, more_scale in columns:
        vals, scale = np.concatenate([vals, more]), np.concatenate([scale, more_scale])
        while vals.size >= RULE_BLOCK:
            yield vals[:RULE_BLOCK], scale[:RULE_BLOCK]
            vals, scale = vals[RULE_BLOCK:], scale[RULE_BLOCK:]
    if vals.size:
        yield vals, scale


def _shared_columns(facts, nodes, r: int) -> list:
    """Order ``r``'s integrand and term sizes on each run of the unhalved
    rule's ``nodes`` (:func:`_run_edges`), from the weight's rate state: its
    runs are advanced only by the orders they miss, and kept for the next
    call while their bytes fit ``RATE_STATE_BYTES``.  Past the budget every
    run read so far is dropped as soon as its column is, so the call holds
    one run above the budget at a time.  The state is replaced whole under
    its lock, and is left empty if a run raises."""
    state, edges = facts.rate_state, _run_edges(facts.model, nodes)
    with state.lock:
        runs, state.runs = state.runs, None
        runs = runs or [None] * len(edges)
        out, used = [], 0
        for i, lo in enumerate(edges):
            if runs[i] is None:
                runs[i] = _RateRun(facts, nodes[lo:lo + edges.step])
            out.append(runs[i].column(r))
            used += runs[i].nbytes
            if used > RATE_STATE_BYTES:
                runs[:i + 1] = [None] * (i + 1)
        state.runs = runs if used <= RATE_STATE_BYTES else None
    return out


def cumulant_rate(model: OqhoModel, pi, r: int) -> float:
    """Asymptotic growth rate of the r-th cumulant, frequency domain:

        (2^{r-2} / pi) sum_gamma Delta_{r,gamma} *
            integral over R of Tr( Pi D  prod_j Pi D^{[gamma_j]}  Pi D^{[1]} ) dlam,

    with ``D^{[1]}(lam) = D(-lam)'``, for ``2 <= r <= 10`` (else
    :class:`InvalidArgument`, as is a non-integer ``r``).
    The integrand is even in ``lam``, so the rate is ``2^{r-1} / pi`` times
    the :func:`~oqrisk.matfun.integrate_frequency` integral over ``lam >=
    0``, with the eigenvalues of ``A`` as poles (:class:`NoConvergence` if it
    does not certify).  The weight's rate state on the unhalved nodes serves
    every order (:func:`_shared_columns`), with the same bits in any call
    order, kept or not; a halving level builds its own.

    Certificates: each order is certified on its own columns, the
    integrand and the term size ``s = (||Pi|| (||D||_F +
    ||D^{[1]}||_F))^r`` scaled to ``eps s / RULE_TOL``, so a rate that
    vanishes in exact arithmetic (``Pi D Pi D^{[1]} = 0``, a vacuum mode
    with ``Pi = I``) is certified against the rounding of its terms, not
    against its own rounding residue.  The integrand's largest imaginary
    part must stay below 1e-10 of its largest modulus or ``s`` over the
    nodes, else :class:`NumericalDefect`."""
    _require_integers(r=r)
    if not 2 <= r <= MAX_RATE_ORDER:
        raise InvalidArgument(f"cumulant rates support 2 <= r <= {MAX_RATE_ORDER}")
    facts = model.weight_facts(pi)
    if not np.any(facts.pi):
        return 0.0
    top = np.zeros(2)  # largest modulus or term size, largest imaginary part

    def blocks(level, nodes):
        if level == 0:
            columns = _shared_columns(facts, nodes, r)
        else:
            edges = _run_edges(model, nodes)
            columns = (_RateRun(facts, nodes[lo:lo + edges.step]).column(r) for lo in edges)
        for vals, scale in _rule_blocks(columns):
            np.maximum(top, [max(np.abs(vals).max(), scale.max()), np.abs(vals.imag).max()],
                       out=top)
            yield np.stack([vals.real, np.finfo(float).eps / RULE_TOL * scale], axis=-1)

    val = integrate_frequency(blocks, model.eig.values)[0]
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
    if not 0 < t < np.inf:
        raise InvalidArgument(f"horizon must be positive and finite, got {t}")
    if grid < 5:
        raise InvalidArgument("need at least 5 points per axis")
    if grid > MAX_GRID_ROWS:  # refused before the nodes are allocated
        raise InvalidArgument(f"{grid} nodes exceed {MAX_GRID_ROWS} rows")
    weights = np.full(grid, t / (grid - 1))
    weights[0] = weights[-1] = 0.5 * weights[0]
    return cumulant_td_discretized(model, pi, r, np.linspace(0.0, t, grid), weights)


def cumulant_td_discretized(model: OqhoModel, pi, r: int, times, weights) -> float:
    """The descent-weighted cumulant formula on an arbitrary discretization,
    :func:`_grid_cumulant` on the multi-point covariance at ``times``; used
    to compare against the pairing oracle on the *same* grid, where
    agreement is exact combinatorics and not a quadrature statement."""
    _require_integers(r=r)
    if not 2 <= r <= MAX_RATE_ORDER:
        raise InvalidArgument(f"time-domain cumulants support 2 <= r <= {MAX_RATE_ORDER}")
    times, weights = _discretization(times, weights)
    if times.size * model.n > MAX_GRID_ROWS:
        raise InvalidArgument(f"{times.size} nodes x n = {model.n} exceed {MAX_GRID_ROWS} rows")
    return _grid_cumulant(model.weight_facts(pi).pi, weights,
                          model.kernel(np.subtract.outer(times, times)), r)


def _discretization(times, weights) -> tuple[np.ndarray, np.ndarray]:
    """``(times, weights)`` as float arrays: :class:`DimensionMismatch` unless
    both are 1-D of one length, :class:`InvalidArgument` unless finite."""
    times, weights = np.asarray(times, dtype=float), np.asarray(weights, dtype=float)
    if times.ndim != 1 or weights.shape != times.shape:
        raise DimensionMismatch(f"need 1-D times and weights of one length, "
                                f"got shapes {times.shape} and {weights.shape}")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(weights))):
        raise InvalidArgument("times and weights must be finite")
    return times, weights


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
        raise InvalidArgument("the pairing oracle supports r in {1, 2, 3}")
    times, weights = _discretization(times, weights)
    g = times.size
    n_pairings = 1
    for k in range(1, 2 * r, 2):
        n_pairings *= k
    if g ** r * n_pairings > 200_000:
        raise InvalidArgument(
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
