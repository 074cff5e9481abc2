"""Exception types raised by the oqrisk library.

Every error below derives from :class:`OqriskError`, so callers can catch
the whole family with a single ``except`` clause.  Input-validation errors
additionally derive from ``ValueError`` and numerical-state errors from
``ArithmeticError`` where that matches their meaning.
"""


class OqriskError(Exception):
    """Base class for all oqrisk errors."""


class DimensionMismatch(OqriskError, ValueError):
    """Matrix dimensions are inconsistent with each other."""


class InvalidArgument(OqriskError, ValueError):
    """Non-finite entries, too few grid points or a lag beyond the horizon."""


class NotAntisymmetric(OqriskError, ValueError):
    """A matrix required to be antisymmetric is not (exact check)."""


class NotSymmetric(OqriskError, ValueError):
    """A matrix required to be symmetric is not (exact check)."""


class SingularCcr(OqriskError, ValueError):
    """The commutation-weight matrix is singular within tolerance."""


class EigenFailure(OqriskError, ArithmeticError):
    """An eigenvalue iteration failed to converge."""


class NotHurwitz(OqriskError, ValueError):
    """The drift matrix has an eigenvalue with nonnegative real part."""


class IllConditioned(OqriskError, ArithmeticError):
    """A linear matrix equation is too ill conditioned to solve reliably."""


class Overflow(OqriskError, ArithmeticError):
    """A matrix function overflowed double precision."""


class NotPsd(OqriskError, ValueError):
    """A matrix required to be positive semi-definite has a negative
    eigenvalue below the clipping band."""


class NoConvergence(OqriskError, ArithmeticError):
    """A quadrature certificate or root bracketing did not reach tolerance."""


class NegativeTime(OqriskError, ValueError):
    """A time argument required to be nonnegative is negative."""


class UnsortedTimes(OqriskError, ValueError):
    """A sequence of time points is not nondecreasing."""


class ThetaOutOfRange(OqriskError, ValueError):
    """The risk parameter lies outside the finiteness interval of the
    requested functional."""


class OrderTooLarge(OqriskError, ValueError):
    """Requested cumulant or table order exceeds the supported range."""


class GridTooLarge(OqriskError, ValueError):
    """A brute-force moment computation would be intractable on this grid."""


class EpsilonTooSmall(OqriskError, ValueError):
    """The tail scale parameter is below the bound's validity threshold."""


class DefectiveAndUnstableShift(OqriskError, ArithmeticError):
    """The fallback shifted Lyapunov construction for the decay envelope
    failed because the shifted drift is not Hurwitz."""


class StepperConstructionFailure(OqriskError, ArithmeticError):
    """The exact one-step discretization could not be assembled."""


class InsufficientPaths(OqriskError, ValueError):
    """Too few Monte Carlo paths for the requested estimate."""


class VarianceBlowup(OqriskError, ArithmeticError):
    """The exponential Monte Carlo estimator degenerated (effective
    sample size too small)."""


class NumericalDefect(OqriskError, ArithmeticError):
    """An identity that must hold up to rounding was violated; indicates
    a defect in inputs or implementation rather than a user error."""


class ConfigError(OqriskError, ValueError):
    """An analysis configuration document is malformed."""
