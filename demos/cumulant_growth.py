"""Higher-order cumulants of the running cost.

Prints small descent tables, computes frequency-domain growth rates for
orders 2..5 on the two-mode example, checks order 2 against the Lyapunov
variance rate, and validates the whole combinatorial reduction against the
brute-force pairing oracle on a coarse grid.
"""

import numpy as np

from oqrisk import (
    cumulant_finite_td,
    cumulant_rate,
    cumulants_from_moments,
    delta_table,
    paper_example_model,
    random_model,
    variance_rate,
    wick_moment_oracle,
)
from oqrisk.cumulants import cumulant_td_discretized

print("== descent tables ==")
for r in (3, 4, 5):
    table = delta_table(r)
    print(f"r = {r}: total {table.total()}")
    for bits in sorted(table.counts):
        print("   ", "".join(map(str, bits)) or "-", table.counts[bits])

print("\n== growth rates on the two-mode example ==")
model, pi = paper_example_model()
var_rate, _, _ = variance_rate(model, pi)
for r in (2, 3, 4, 5):
    rate = cumulant_rate(model, pi, r)
    note = f"   (variance rate {var_rate:.1f})" if r == 2 else ""
    print(f"  order {r}: {rate:.6e}{note}")

print("\n== time-domain check on a small random model ==")
rng = np.random.default_rng(1)
small = random_model(rng, n=2)
pi2 = rng.standard_normal((2, 2))
pi2 = pi2 @ pi2.T
horizon = 20.0 / -small.spectral_abscissa
for r, grid in ((2, 401), (3, 161), (4, 161)):
    rate = cumulant_rate(small, pi2, r)
    td = cumulant_finite_td(small, pi2, r, horizon, grid)
    print(f"  order {r}: K_r(t)/t = {td / horizon:.6f} vs rate {rate:.6f}")

print("\n== pairing oracle vs descent formula (exact at fixed grid) ==")
times = np.sort(rng.uniform(0.0, 2.0, 6))
weights = rng.uniform(0.1, 0.5, 6)
moments = [wick_moment_oracle(small, pi2, r, times, weights) for r in (1, 2, 3)]
k = cumulants_from_moments(moments)
for r in (2, 3):
    ref = cumulant_td_discretized(small, pi2, r, times, weights)
    print(f"  order {r}: oracle {k[r - 1]:.12e}  descent {ref:.12e}")
