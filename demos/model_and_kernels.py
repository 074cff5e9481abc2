"""Build oscillator models and inspect their second-moment structure.

Walks through the two bundled examples: a one-mode oscillator with closed
forms for everything, and the published two-mode example used as the
regression anchor.  Shows the physical-realizability certificate, the
steady Gramian, lagged kernels, and the spectral-density inversion check.
"""

import numpy as np

from oqrisk import (
    canonical_ccr,
    gramian_finite,
    gramian_steady,
    model_from_matrices,
    paper_example_model,
    pr_residual,
)
from oqrisk.gaussian import spectral_identity_residual

np.set_printoptions(precision=4, suppress=True)

print("== one-mode oscillator (all closed forms) ==")
tiny = model_from_matrices(
    canonical_ccr(2).theta, np.zeros((2, 2)), np.eye(2)
)
print("A =\n", tiny.a)
print("B =\n", tiny.b)
print("PR residual:", pr_residual(tiny))
print("Hurwitz:", tiny.is_hurwitz, " spectral abscissa:", tiny.spectral_abscissa)

steady = gramian_steady(tiny)
print("P =\n", steady.p)
print("eig(P + i Theta):", np.linalg.eigvalsh(steady.quantum_cov))

print("S(1) =\n", tiny.kernel(1.0))
print("   (= e^{-1} (I + iJ)/2, decaying with the drift)")
print("Sigma(1) =\n", gramian_finite(tiny, 1.0))

print()
print("== published two-mode example ==")
model, pi = paper_example_model()
print("eigenvalues of A:", np.sort_complex(np.linalg.eigvals(model.a)))
print("PR residual:", pr_residual(model))
print("P =\n", gramian_steady(model).p)

res = spectral_identity_residual(model)
print("max | (1/2pi) int D  -  (P + i Theta) | =", res)
print("   (the spectral density integrates back to the quantum covariance)")
