import functools
import itertools
import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from conftest import (by_blocks, congruent_n32, damped_mode, hurwitz_model, make_models,
                      paper_example_model, random_sym)
from oqrisk import cumulants, matfun
from oqrisk.cumulants import (
    _descent_recursion,
    _gamma_sum,
    _RateBlock,
    cumulant_finite_td,
    cumulant_rate,
    cumulant_td_discretized,
    cumulants_from_moments,
    delta_table,
    wick_moment_oracle,
)
from oqrisk.errors import DimensionMismatch, InvalidArgument, NotHurwitz
from oqrisk.matfun import _resonance_edges, integrate_frequency
from oqrisk.model import OqhoModel, canonical_ccr, model_from_matrices
from oqrisk.quartic import mean_rate, variance_finite, variance_rate


def _d_pair(model, lam):
    """``(D(lam), D(-lam)')`` at one frequency."""
    d0, d1 = model.density_pair([lam])
    return d0[0], d1[0]


class TestDeltaTable:
    def test_r2_single_permutation(self):
        assert delta_table(2).counts == {(): 1}

    def test_r3(self):
        assert delta_table(3).counts == {(0,): 1, (1,): 1}

    def test_r4(self):
        assert delta_table(4).counts == {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}

    def test_structural_identities_to_r8(self):
        # full r <= 11 sweep (including timing) lives in the acceptance suite
        for r in range(2, 9):
            table = delta_table(r)
            assert table.total() == math.factorial(r - 1)
            for bits, cnt in table.counts.items():
                assert table.counts[tuple(1 - b for b in bits)] == cnt

    def test_matches_permutation_enumeration(self):
        # oracle: walk all (r-1)! permutations and record each one's
        # consecutive-inversion pattern
        for r in range(2, 10):
            oracle = Counter(
                tuple(int(a > b) for a, b in zip(p, p[1:]))
                for p in itertools.permutations(range(r - 1))
            )
            assert delta_table(r).counts == dict(oracle)

    def test_reversed_complement_symmetry(self):
        # reading a permutation backwards reverses and complements its
        # pattern: the fact that makes the rate integrand even in lam
        for r in range(2, 13):
            counts = delta_table(r).counts
            for bits, cnt in counts.items():
                assert counts[tuple(1 - b for b in reversed(bits))] == cnt

    def test_r12_certified(self):
        table = delta_table(12)
        assert len(table.counts) == 2**10
        assert table.total() == math.factorial(11)

    def test_order_guard(self):
        with pytest.raises(InvalidArgument):
            delta_table(13)
        with pytest.raises(InvalidArgument):
            delta_table(1)


class TestCumulantRate:
    def test_r2_reproduces_variance_paper(self, paper):
        rate, _, _ = variance_rate(*paper)
        assert cumulant_rate(*paper, r=2) == pytest.approx(rate, rel=1e-4)

    def test_r2_tiny_vanishes(self, tiny):
        assert abs(cumulant_rate(tiny, np.eye(2), 2)) < 1e-10

    def test_zero_weight(self, paper):
        for r in (2, 3, 5):
            assert cumulant_rate(paper[0], np.zeros((4, 4)), r) == 0.0

    def test_r3_collapsed_form(self, paper):
        # both gamma terms integrate identically, so the rate equals
        # (4/pi) * integral Tr(Pi D Pi D Pi D(-.)') dlam
        from scipy.integrate import quad

        model, pi = paper

        def single(lam):
            d0, d1 = _d_pair(model, lam)
            return np.trace(pi @ d0 @ pi @ d0 @ pi @ d1).real

        val, _ = quad(single, -np.inf, np.inf, epsabs=1e-10, epsrel=1e-9, limit=400)
        assert cumulant_rate(model, pi, 3) == pytest.approx(4.0 / np.pi * val, rel=1e-6)

    def test_integrand_reality_sampled(self, paper):
        model, pi = paper
        for lam in (0.0, 0.9, 4.4, 17.0):
            d0, d1 = _d_pair(model, lam)
            val = _gamma_sum(pi @ d0, pi @ d1, 4)
            assert abs(val.imag) <= 1e-10 * max(abs(val), 1.0)

    def test_integrand_equals_pattern_sum(self, paper):
        # oracle: sum over gamma of Delta_gamma times the explicit cyclic
        # product Tr(Pi D prod_j Pi D^[gamma_j] Pi D^[1])
        model8, rng = make_models(seed=5, count=1, sizes=(8,))[0]
        cases = [paper, (model8, random_sym(rng, 8, psd=True))]
        for model, pi in cases:
            for lam in (0.0, 0.7, -2.525, 17.0):
                d0, d1 = _d_pair(model, lam)
                factor = (pi @ d0, pi @ d1)
                for r in range(2, 9):
                    want = 0.0 + 0.0j
                    for bits, cnt in delta_table(r).counts.items():
                        mat = factor[0]
                        for b in bits:
                            mat = mat @ factor[b]
                        want += cnt * np.trace(mat @ factor[1])
                    got = _gamma_sum(pi @ d0, pi @ d1, r)
                    assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("case", [
        pytest.param(case, id=name) for name, case in [
            ("paper", paper_example_model()),
            ("damped", (damped_mode(), np.diag([1.0, 2.0]))),
            *[(f"random-n{mm.n}", (mm, random_sym(rng, mm.n, psd=True)))
              for mm, rng in make_models(seed=23, count=2, sizes=(4, 6))]]])
    def test_integrand_even(self, case):
        # the rate integrates the gamma sum on lam >= 0 only: it must take
        # the same value at -lam, to rounding of its terms
        model, pi = case
        norm = np.linalg.norm(pi, 2)
        for lam in (0.0, 0.3, 1.7, 9.99, 10.0, 55.0):
            d0, d1 = model.density_pair([lam, -lam])
            terms = norm * (np.linalg.norm(d0[0]) + np.linalg.norm(d1[0]))
            for r in range(2, 11):
                plus, minus = _gamma_sum(pi @ d0, pi @ d1, r)
                assert abs(plus - minus) <= 1e-12 * terms**r

    def test_higher_order_runs(self, paper):
        assert np.isfinite(cumulant_rate(*paper, r=5))

    def test_order_guard(self, paper):
        with pytest.raises(InvalidArgument):
            cumulant_rate(*paper, r=11)

    def test_refuses_marginal_drift(self):
        marginal = model_from_matrices(canonical_ccr(2).theta, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(NotHurwitz):
            cumulant_rate(marginal, np.eye(2), 2)


@functools.cache
def _rectangular(n, m):
    """``(model, Pi)`` of the rectangular-coupling pipeline test."""
    model, rng = hurwitz_model(canonical_ccr(n), m, seed=n * 31 + m)
    pi = rng.standard_normal((n, n))
    return model, pi @ pi.T


FACTOR_CASES = {
    "paper": paper_example_model,
    "damped": lambda: (damped_mode(), np.diag([1.0, 2.0])),
    "n32": congruent_n32,
    # (2, 4) is m = 2n: the factor space is no smaller than the state
    **{f"n{n}-m{m}": functools.partial(_rectangular, n, m) for n, m in [(4, 2), (2, 4), (6, 2)]},
}


@pytest.mark.parametrize("case", list(FACTOR_CASES))
class TestFactorSpace:
    """The rate integrand in the rank-m/2 factor space of ``D``: ``Omega = 2
    U U*``, ``W = G [U, conj U]``, ``D(lam) = 2 W0 W0*``, ``D(-lam)' = 2 W1 W1*``."""

    LAMS = np.array([0.0, 0.7, 2.525, 10.0, 17.0])

    @staticmethod
    def _densities(model, lams):
        """``G Omega G*`` and ``G conj(Omega) G*``, ``G = (i lam - A)^{-1} B``,
        from ``J`` itself."""
        omega = np.eye(model.m) + 1j * model.j
        g = np.array([np.linalg.solve(1j * lam * np.eye(model.n) - model.a, model.b)
                      for lam in lams])
        gh = g.conj().swapaxes(-1, -2)
        return g @ omega @ gh, g @ omega.conj() @ gh

    def test_omega_basis(self, case):
        model, _ = FACTOR_CASES[case]()
        u, half = model.omega_basis, model.m // 2
        assert u.shape == (model.m, half) and not u.flags.writeable
        assert np.abs(u.conj().T @ u - np.eye(half)).max() <= 1e-15
        assert np.abs(2.0 * u @ u.conj().T - (np.eye(model.m) + 1j * model.j)).max() <= 1e-15

    def test_factor_reproduces_densities(self, case):
        # to 1e-14 relative, above the resolvent's own rounding floor
        # eps cond(i lam - A) (~1.5e-12 at the damped mode's resonance lam = 10)
        model, _ = FACTOR_CASES[case]()
        w = model.density_factor(self.LAMS)
        w0, w1 = w[..., :model.m // 2], w[..., model.m // 2:]
        pair = model.density_pair(self.LAMS)
        cond = np.linalg.cond(1j * self.LAMS[:, None, None] * np.eye(model.n) - model.a)
        tol = 1e-14 + 4.0 * np.finfo(float).eps * cond
        for got, alt, want in zip((2.0 * w0 @ w0.conj().swapaxes(-1, -2),
                                   2.0 * w1 @ w1.conj().swapaxes(-1, -2)),
                                  pair, self._densities(model, self.LAMS)):
            scale = np.abs(want).max(axis=(-2, -1))
            assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= tol * scale)
            assert np.all(np.abs(alt - want).max(axis=(-2, -1)) <= tol * scale)

    def test_integrand_matches_full_space(self, case):
        # the cyclic trace of N's blocks is the gamma sum over Pi D, Pi D(-.)',
        # and the term size is the one of the full-space densities, for every
        # order closed in turn on one block's shared recursion
        model, pi = FACTOR_CASES[case]()
        norm = np.linalg.norm(pi, 2)
        d0, d1 = self._densities(model, self.LAMS)
        terms = norm * (np.linalg.norm(d0, axis=(-2, -1)) + np.linalg.norm(d1, axis=(-2, -1)))
        block = _RateBlock(model.weight_facts(pi), self.LAMS)
        for r in range(2, 11):
            got, size = block.column(r)
            want = _gamma_sum(pi @ d0, pi @ d1, r)
            assert np.all(np.abs(got - want) <= 1e-13 * terms**r)
            assert size == pytest.approx(terms**r, rel=1e-13, abs=0.0)


def _unfolded_recursion(first, steps):
    """The descent-rank recursion written out step by step, the last step
    included: ``F_{i+1}[j] = (sum_{k<j} F_i[k]) up + (sum_{k>=j} F_i[k])
    down``, then the sum over ``j``."""
    f, zero = [first], np.zeros_like(first)
    for up, down in steps:
        f = [sum(f[:j], zero) @ up + sum(f[j:], zero) @ down for j in range(len(f) + 1)]
    return sum(f)


@pytest.mark.parametrize("m", range(1, 7))
def test_folded_recursion_matches_unfolded(m):
    # stacks of 3 complex (2 x 4) heads and (4 x 4) step weights
    rng = np.random.default_rng(m)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    first = cplx(3, 2, 4)
    steps = [(cplx(3, 4, 4), cplx(3, 4, 4)) for _ in range(m - 1)]
    want = _unfolded_recursion(first, steps)
    got = _descent_recursion(first, steps)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _quad_rate(model, pi, r, resonance):
    """Scalar ``quad`` oracle of the rate: the explicit pattern sum at each
    frequency, with breakpoints at ``+-resonance +- 0.5``."""
    from scipy.integrate import quad

    counts = delta_table(r).counts

    def integrand(lam):
        d0, d1 = _d_pair(model, lam)
        factor = (pi @ d0, pi @ d1)
        total = 0.0
        for bits, cnt in counts.items():
            mat = factor[0]
            for b in bits:
                mat = mat @ factor[b]
            total += cnt * np.trace(mat @ factor[1]).real
        return total

    cuts = [-np.inf, -resonance - 0.5, -resonance + 0.5, resonance - 0.5,
            resonance + 0.5, np.inf]
    val = sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=500)[0]
              for a, b in zip(cuts[:-1], cuts[1:]))
    return 2 ** (r - 2) / np.pi * val


class TestDampedMode:
    """A lightly damped mode: eigenvalues -0.003 +- 10i, resonances of
    width 0.003 at lam = +-10."""

    @pytest.fixture(scope="class")
    def damped(self):
        eye = np.eye(2)
        return model_from_matrices(canonical_ccr(2).theta, 10.0 * eye, np.sqrt(0.003) * eye)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_breakpoint_quad(self, damped, r):
        pi = np.diag([1.0, 2.0])
        want = _quad_rate(damped, pi, r, 10.0)
        assert cumulant_rate(damped, pi, r) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("r", [3, 4])
    def test_unit_weight_rate_vanishes(self, damped, r):
        # Pi D Pi D(-lam)' = 0 for this vacuum-like mode: the integrand is
        # rounding residue and the rate is 0 to rounding
        scale = cumulant_rate(damped, np.diag([1.0, 2.0]), r)
        assert abs(cumulant_rate(damped, np.eye(2), r)) <= 1e-12 * scale


# cumulant_rate(paper, r) for r = 2..10 from the nested Gauss-Legendre rule
# that certified a level of 16-point panels against the halved level and
# returned the finer value; the Gauss-Kronrod rule reproduces them to rounding
NESTED_RULE_RATES = [8931.576616352624, 3309913.8124113837, 2043811333.3665855,
                     1776098031384.1584, 1988165344349205.2, 2.722047246237812e+18,
                     4.405855495301529e+21, 8.229800200184711e+24, 1.7424203548984467e+28]


class TestRateRule:
    """The Gauss-Kronrod frequency rule under the cumulant rates."""

    def test_matches_nested_rule_rates(self, paper):
        got = [cumulant_rate(*paper, r) for r in range(2, 11)]
        assert got == pytest.approx(NESTED_RULE_RATES, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("case", ["paper", "damped", "n32"])
    def test_certified_at_the_first_level(self, case, monkeypatch):
        # every rate certifies on the unhalved panels: density_factor runs on
        # 33 nodes per panel of _resonance_edges and per tail panel, once per
        # weight for r = 2, 3, 4 together while the weight keeps its rate
        # state, and once per call at n = 32, whose state is not kept
        model, pi = RATE_CASES[case]()
        seen = []
        factor = OqhoModel.density_factor

        def counting(self, lams):
            seen.append(np.size(lams))
            return factor(self, lams)

        monkeypatch.setattr(OqhoModel, "density_factor", counting)
        poles = model.eig.values
        panels = _resonance_edges(poles, 2.0 * np.abs(poles).max() + 1.0).size
        for r in (2, 3, 4):
            cumulant_rate(model, pi, r)
        assert sum(seen) == (3 if case == "n32" else 1) * 33 * panels


def _rectangular_fresh():
    """A fresh model of the ``n4-m2`` rectangular-coupling case."""
    model, rng = hurwitz_model(canonical_ccr(4), 2, seed=4 * 31 + 2)
    pi = rng.standard_normal((4, 4))
    return model, pi @ pi.T


# each call builds a fresh model, whose weight has no rate state yet
RATE_CASES = {
    "paper": paper_example_model,
    "damped": lambda: (damped_mode(), np.diag([1.0, 2.0])),
    "n32": congruent_n32,
    "n4-m2": _rectangular_fresh,
}

# float.hex of cumulant_rate for r = 2..10 as each order was computed on its
# own, one recursion and one node pass per call, before the orders shared a
# rate state
PINNED_RATES = {
    "paper": ["0x1.171c9ce908c6ap+13", "0x1.940ace7fd189ep+21", "0x1.e748581577615p+30",
              "0x1.9d87b13718284p+40", "0x1.c40e7446b3048p+50", "0x1.2e353c632eadap+61",
              "0x1.ddaf0e2b81fb9p+71", "0x1.b3ae97383f70cp+82", "0x1.c267b4f8a7c9bp+93"],
    "damped": ["0x1.f75101dd5649dp-17", "0x1.eb85219e7d794p-7", "0x1.68000192a74b1p+4",
               "0x1.24f801d7dc0e0p+15", "0x1.f4add904003e6p+25", "0x1.b80cceaa8447fp+36",
               "0x1.89ecd12ca8182p+47", "0x1.6536ec50e1791p+58", "0x1.470a377434c14p+69"],
    "n32": ["0x1.76a098d6e141cp+10", "0x1.40eb7a1660e8ap+17", "0x1.76798c4b6ae40p+24",
            "0x1.0c94ad9d3c053p+32", "0x1.d16e1c9fd2e2bp+39", "0x1.e78fbd0f1122bp+47",
            "0x1.31e47a551cf4fp+56", "0x1.c1c75337a1127p+64", "0x1.7a588ed96b8c8p+73"],
    "n4-m2": ["0x1.5279595230653p+6", "0x1.fb1156382dba0p+11", "0x1.305a88702a728p+18",
              "0x1.0b4b924bb82d7p+25", "0x1.3e18bee56c867p+32", "0x1.de0718a337066p+39",
              "0x1.aed24c8b1bb8bp+47", "0x1.c2ab07adc495fp+55", "0x1.0bb95ebefd884p+64"],
}

CALL_ORDERS = {
    "ascending": list(range(2, 11)),
    "descending": list(range(10, 1, -1)),
    "shuffled": [6, 2, 9, 4, 10, 3, 7, 5, 8],
}


def _state_bytes(model, pi):
    blocks = model.weight_facts(pi).rate_state.blocks
    return None if blocks is None else sum(block.nbytes for block in blocks)


@pytest.mark.parametrize("case", list(RATE_CASES))
class TestRateState:
    """Orders 2..10 share one rate state per weight: the same bits in any
    call order, kept or not."""

    @pytest.mark.parametrize("order", list(CALL_ORDERS))
    def test_call_order(self, case, order, monkeypatch):
        if case == "n32":  # whose ~30 MB state by r = 10 is kept under a raised budget only
            monkeypatch.setattr(cumulants, "RATE_STATE_BYTES", 1 << 26)
        model, pi = RATE_CASES[case]()
        for r in CALL_ORDERS[order]:
            assert cumulant_rate(model, pi, r).hex() == PINNED_RATES[case][r - 2]
            size = _state_bytes(model, pi)
            assert size is None or size <= cumulants.RATE_STATE_BYTES

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    def test_recomputed_without_state(self, case, order, monkeypatch):
        monkeypatch.setattr(cumulants, "RATE_STATE_BYTES", 0)
        model, pi = RATE_CASES[case]()
        for r in CALL_ORDERS[order]:
            assert cumulant_rate(model, pi, r).hex() == PINNED_RATES[case][r - 2]
            assert _state_bytes(model, pi) is None

    def test_kept_below_the_budget(self, case):
        # through r = 10 the paper fixture's state is ~0.4 MB and kept; the
        # n = 32 model's Gram alone is ~9 MB, and its state is dropped
        model, pi = RATE_CASES[case]()
        cumulant_rate(model, pi, 10)
        size = _state_bytes(model, pi)
        if case == "n32":
            assert size is None
        else:
            assert 0 < size <= cumulants.RATE_STATE_BYTES

    def test_threads_share_one_state(self, case, monkeypatch):
        # four threads (more than the cores) on one fresh model, switching
        # every microsecond: every value has its pinned bits, and the weight's
        # nodes are solved once in all, which a lost update of the state breaks
        if case == "n32":
            monkeypatch.setattr(cumulants, "RATE_STATE_BYTES", 1 << 26)
        model, pi = RATE_CASES[case]()
        seen, factor = [], OqhoModel.density_factor

        def counting(self, lams):
            seen.append(np.size(lams))
            return factor(self, lams)

        monkeypatch.setattr(OqhoModel, "density_factor", counting)
        orders = [[2, 4, 6, 8, 10, 3], [9, 7, 5, 3, 10, 2], [6, 2, 9, 4], [10, 8, 5, 7]]
        start, got = threading.Barrier(len(orders)), [None] * len(orders)

        def ask(i):
            start.wait(timeout=60)
            got[i] = [(r, cumulant_rate(model, pi, r)) for r in orders[i]]

        workers = [threading.Thread(target=ask, args=(i,)) for i in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert [[r for r, _ in rates] for rates in got] == orders
        for r, rate in itertools.chain(*got):
            assert rate.hex() == PINNED_RATES[case][r - 2]
        poles = model.eig.values
        assert sum(seen) == 33 * _resonance_edges(poles, 2.0 * np.abs(poles).max() + 1.0).size


def test_halving_level_builds_its_own_state(monkeypatch):
    # on the damped mode the Kronrod-Gauss gap of r = 3 is 2.8e-14 of its
    # mass unhalved and 2.2e-15 halved once, so a 1e-14 tolerance forces one
    # halving: the rate is integrate_frequency's on the order's own
    # integrand, and the weight's state keeps the unhalved nodes only
    model, pi = damped_mode(), np.diag([1.0, 2.0])
    eps = np.finfo(float).eps / cumulants.RULE_TOL

    def own(lams):
        vals, scale = _RateBlock(model.weight_facts(pi), lams).column(3)
        return np.stack([vals.real, eps * scale], axis=-1)

    cumulant_rate(model, pi, 2)  # a state on the unhalved nodes first
    poles = model.eig.values
    panels = _resonance_edges(poles, 2.0 * np.abs(poles).max() + 1.0).size
    monkeypatch.setattr(matfun, "RULE_TOL", 1e-14)
    levels, rule = [], matfun._frequency_rule
    monkeypatch.setattr(matfun, "_frequency_rule",
                        lambda *args: levels.append(args[-1]) or rule(*args))
    got = cumulant_rate(model, pi, 3)
    assert levels == [0, 1]
    assert got == 4.0 / np.pi * integrate_frequency(by_blocks(own), poles)[0]
    blocks = model.weight_facts(pi).rate_state.blocks
    assert sum(block.base.size for block in blocks) == 33 * panels


class TestFiniteTimeDomain:
    def test_r2_matches_variance_finite(self):
        for model, rng in make_models(seed=61, count=3, sizes=(2,)):
            pi = random_sym(rng, 2)
            t = 2.5
            vf = variance_finite(model, pi, t)
            td = cumulant_finite_td(model, pi, 2, t, 301)
            assert td == pytest.approx(vf, rel=2e-4, abs=1e-9)

    def test_r3_tiny_vanishes(self, tiny):
        for t in (1.0, 4.0):
            assert abs(cumulant_finite_td(tiny, np.eye(2), 3, t, 41)) < 1e-10

    def test_agrees_with_direct_sum_same_grid(self):
        model, rng = make_models(seed=67, count=1, sizes=(2,))[0]
        pi = random_sym(rng, 2)
        for r, grid in ((2, 9), (3, 9), (4, 7)):
            nodes, wts = np.linspace(0.0, 3.0, grid), np.full(grid, 3.0 / (grid - 1))
            wts[[0, -1]] *= 0.5
            direct = _tuple_sum(model, pi, r, nodes, wts)
            fast = cumulant_finite_td(model, pi, r, 3.0, grid)
            assert fast == pytest.approx(direct, rel=1e-12, abs=0.0)
            # the finite-horizon path is the discretized one on trapezoid nodes
            assert cumulant_td_discretized(model, pi, r, nodes, wts) == fast

    def test_grid_refinement_second_order(self):
        model, rng = make_models(seed=71, count=1, sizes=(2,))[0]
        pi = random_sym(rng, 2, psd=True)
        t = 3.0
        ref = cumulant_finite_td(model, pi, 3, t, 321)
        e1 = abs(cumulant_finite_td(model, pi, 3, t, 21) - ref)
        e2 = abs(cumulant_finite_td(model, pi, 3, t, 41) - ref)
        assert 3.3 <= e1 / e2 <= 4.7

    def test_long_horizon_approaches_rate(self):
        model, rng = make_models(seed=73, count=1, sizes=(2,))[0]
        pi = random_sym(rng, 2, psd=True)
        t = 20.0 / -model.spectral_abscissa
        for r, grid in ((2, 401), (3, 161)):
            rate = cumulant_rate(model, pi, r)
            td = cumulant_finite_td(model, pi, r, t, grid)
            assert abs(td / t - rate) / abs(rate) < 0.05
        # orders past the pairing oracle: the averaging gap is an O(1/t)
        # edge effect, so doubling the horizon halves it
        for r in (4, 5):
            rate = cumulant_rate(model, pi, r)
            near = cumulant_finite_td(model, pi, r, t, 161) / t / rate - 1.0
            far = cumulant_finite_td(model, pi, r, 2.0 * t, 321) / (2.0 * t) / rate - 1.0
            assert abs(far) < 0.05
            assert 0.4 <= far / near <= 0.6

    def test_order_guard(self, paper):
        with pytest.raises(InvalidArgument):
            cumulant_finite_td(*paper, r=11, t=1.0, grid=9)

    def test_grid_guard(self, paper):
        # 257 nodes x n = 4 is 1028 rows, past MAX_GRID_ROWS
        with pytest.raises(InvalidArgument):
            cumulant_finite_td(*paper, r=2, t=1.0, grid=257)
        with pytest.raises(InvalidArgument):
            cumulant_td_discretized(*paper, r=2, times=np.linspace(0.0, 1.0, 257),
                                    weights=np.ones(257))


def _tuple_sum(model, pi, r, times, weights):
    """Reference: the descent-weighted cumulant formula as a direct sum over
    index tuples and ``delta_table`` patterns,

        2^{r-1} sum_gamma Delta_gamma sum_idx w_idx Tr(Pi S(t_i1 - t_i2)
            prod_j Pi S^{[gamma_j]}(t_ij - t_ij+1) Pi S(t_i1 - t_ir)')."""
    s_of = functools.cache(lambda i, j: model.kernel(times[i] - times[j]))
    counts = delta_table(r).counts
    total = 0.0 + 0.0j
    for idx in itertools.product(range(len(times)), repeat=r):
        wt = np.prod(weights[list(idx)])
        for bits, cnt in counts.items():
            mat = pi @ s_of(idx[0], idx[1])
            for j in range(1, r - 1):
                step = s_of(idx[j], idx[j + 1]) if bits[j - 1] == 0 else s_of(idx[j + 1], idx[j]).T
                mat = mat @ pi @ step
            total += cnt * wt * np.trace(mat @ pi @ s_of(idx[0], idx[r - 1]).T)
    return float(2 ** (r - 1) * total.real)


class TestWickOracle:
    def test_first_moment(self, paper):
        model, pi = paper
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0.0, 2.0, 5))
        w = rng.uniform(0.1, 0.4, 5)
        val = wick_moment_oracle(model, pi, 1, times, w)
        assert val == pytest.approx(w.sum() * mean_rate(model, pi), rel=1e-12, abs=0.0)

    def test_cumulants_match_descent_formula(self):
        # the cancellation of multi-cycle pairings is exact combinatorics:
        # oracle-derived cumulants equal the descent-weighted sums on the
        # same grid to rounding
        for seed in (5, 6):
            model, rng = make_models(seed=seed, count=1, sizes=(2,))[0]
            pi = random_sym(rng, 2, psd=True)
            times = np.sort(rng.uniform(0.0, 2.0, 6))
            w = rng.uniform(0.1, 0.5, 6)
            moments = [wick_moment_oracle(model, pi, r, times, w) for r in (1, 2, 3)]
            _, k2, k3 = cumulants_from_moments(moments)
            d2 = cumulant_td_discretized(model, pi, 2, times, w)
            d3 = cumulant_td_discretized(model, pi, 3, times, w)
            assert k2 == pytest.approx(d2, rel=1e-8)
            assert k3 == pytest.approx(d3, rel=1e-8)

    def test_grid_guard(self, paper):
        with pytest.raises(InvalidArgument):
            wick_moment_oracle(*paper, r=3, times=np.linspace(0, 1, 30),
                               weights=np.ones(30))

    def test_order_guard(self, paper):
        with pytest.raises(InvalidArgument):
            wick_moment_oracle(*paper, r=4, times=np.zeros(2), weights=np.ones(2))



@pytest.mark.parametrize("func", [cumulant_td_discretized, wick_moment_oracle],
                         ids=["descent", "pairing"])
@pytest.mark.parametrize("times, weights, expected", [
    ([0.0, 1.0, 2.0], [1.0, 1.0], DimensionMismatch),
    ([[0.0, 1.0]], [[1.0, 1.0]], DimensionMismatch),
    ([0.0, 1.0], [float("nan"), 1.0], InvalidArgument),
    ([0.0, float("inf")], [1.0, 1.0], InvalidArgument),
], ids=["unequal-lengths", "2d", "nan-weight", "inf-time"])
def test_discretization_checked(paper, func, times, weights, expected):
    # 1-D, finite times and weights of one length, else a typed error, not a
    # bare numpy error or a NaN value
    with pytest.raises(expected):
        func(*paper, 2, times, weights)

class TestCumulantsFromMoments:
    def test_first(self):
        assert cumulants_from_moments([5.0]) == [5.0]

    def test_third_closed_form(self):
        k = cumulants_from_moments([1.0, 2.0, 4.0])
        assert k[2] == pytest.approx(4.0 - 3.0 * 1.0 * 2.0 + 2.0 * 1.0, abs=1e-12)

    def test_centered_symmetric(self):
        k = cumulants_from_moments([0.0, 2.5, 0.0])
        assert k == pytest.approx([0.0, 2.5, 0.0], abs=1e-12)

    def test_gaussian_fourth(self):
        # N(0, s): moments (0, s, 0, 3 s^2) -> zero fourth cumulant
        s = 1.7
        k = cumulants_from_moments([0.0, s, 0.0, 3.0 * s * s])
        assert abs(k[3]) < 1e-12
