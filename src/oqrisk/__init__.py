"""Risk-sensitive performance analysis of linear quantum stochastic systems.

Builds open-quantum-harmonic-oscillator state-space models from physical
parameters, computes Gaussian-state covariance kernels and spectral
densities, quartic approximations and higher-order cumulant growth rates
of the quadratic-exponential cost, Cramer-type tail bounds, and
cross-validates against a covariance-matched classical diffusion twin by
exact-discretization Monte Carlo.
"""

from .classical import (
    AugmentedStepper,
    McEstimate,
    SimBatch,
    classical_quadform_variance,
    classical_rs_rate_paper,
    classical_rs_rate_sde,
    invariant_classical_cov,
    mc_rs_rate,
    mc_stationary_stats,
    simulate,
)
from .cumulants import (
    DescentTable,
    cumulant_finite_td,
    cumulant_rate,
    cumulants_from_moments,
    delta_table,
    wick_moment_oracle,
)
from .deviations import (
    DeviationAnalysis,
    EnvelopeParams,
    TailBoundCurve,
    cramer_bound_closed,
    envelope_params,
)
from .errors import OqriskError
from .fixtures import paper_example_model
from .gaussian import (
    CovarianceKernel,
    SpectralDensity,
    SteadyState,
    gramian_finite,
    gramian_steady,
    qcf_multipoint_steady,
    qcf_onepoint,
)
from .matfun import QuadratureSpec, TailHint
from .model import (
    CcrMatrix,
    OqhoModel,
    PhysicalParams,
    build_model,
    canonical_ccr,
    model_from_json,
    model_from_matrices,
    pr_residual,
    random_model,
    stability_margin,
)
from .quartic import (
    QuarticReport,
    WeightMatrix,
    mean_rate,
    quartic_rate,
    quartic_report,
    theta_threshold,
    variance_finite,
    variance_rate,
)

__version__ = "0.1.0"
