"""Cramer-type tail bounds for the running cost.

Builds the decay envelope (mu, Gamma, alpha) for the two-mode example,
bounds the exponential-cost growth rate over its theta interval, and
tabulates the closed-form and numeric tail-bound curves; the numeric curve
(driven by the true kernel rather than its envelope) is always at least as
tight.  Writes the curve to tail_bounds.csv next to this script.
"""

import csv
import pathlib

import numpy as np

from oqrisk import DeviationAnalysis, cramer_bound_closed, paper_example_model

model, pi = paper_example_model()
analysis = DeviationAnalysis(model, pi)
env = analysis.envelope

print("envelope: mu =", env.mu, " alpha =", env.alpha)
print("kernel at zero lag N(0) =", analysis.n0)
print("transform peak F(0) =", analysis.f_infnorm())

theta_max = 1.0 / (2.0 * analysis.f_infnorm())
print("\nexponential-cost rate bound over theta in [0, %.3e):" % theta_max)
for frac in (0.2, 0.5, 0.8):
    theta = frac * theta_max
    print(f"  theta = {theta:.3e}:  bound = {analysis.qef_upper_rate(theta):.6f}")

scale = model.n * env.alpha
eps_grid = scale * np.array([1.0, 1.1, 1.3, 1.7, 2.5, 4.0])
print(f"\ntail bounds (zero at eps = n*alpha = {scale:.2f}):")
# one batched bisection serves the whole numeric curve
numeric = next(c for c in analysis.bound_curve(eps_grid) if c.method == "numeric")
rows = []
for eps, bound, theta_star in zip(eps_grid, numeric.bound, numeric.theta_star):
    closed = cramer_bound_closed(env.mu, env.alpha, model.n, eps)
    rows.append((eps, closed, bound, theta_star))
    print(f"  eps = {eps:9.2f}:  closed {closed:9.4f}   numeric {bound:9.4f}"
          f"   theta* {theta_star:.3e}")

out = pathlib.Path(__file__).with_name("tail_bounds.csv")
with out.open("w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["epsilon", "bound_closed", "bound_numeric", "theta_star"])
    writer.writerows(rows)
print("\nwrote", out)
