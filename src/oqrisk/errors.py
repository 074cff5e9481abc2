"""Exception types raised by the oqrisk library: one per kind of failure.

Every error below derives from :class:`OqriskError`, so callers can catch
the whole family with a single ``except`` clause.  An argument the caller
must change derives from ``ValueError``; a computation that failed derives
from ``ArithmeticError``.  The rule:

* :class:`ThetaOutOfRange` and :class:`EpsilonTooSmall` cover the two
  domains that depend on the model;
* :class:`NotSymmetric`, :class:`NotHurwitz` and :class:`NotPsd` cover
  matrix properties the caller must fix;
* :class:`InvalidArgument` covers every other out-of-range argument;
* :class:`NumericalDefect`, :class:`NoConvergence` and
  :class:`VarianceBlowup` cover failures of the computation;
* :class:`ConfigError` and :class:`DimensionMismatch` cover malformed
  documents and shapes.

``oqrisk``'s command line exits with 1 on the ``ValueError`` family and 3
on the others.
"""


class OqriskError(Exception):
    """Base class for all oqrisk errors."""


class ConfigError(OqriskError, ValueError):
    """An analysis configuration document is malformed."""


class DimensionMismatch(OqriskError, ValueError):
    """Matrix dimensions are inconsistent with each other."""


class InvalidArgument(OqriskError, ValueError):
    """Any other argument outside its range: non-finite, negative, unsorted,
    past a cap, too few nodes or paths, a singular ``Theta``."""


class NotSymmetric(OqriskError, ValueError):
    """A matrix is not exactly symmetric (``Theta``: antisymmetric)."""


class NotHurwitz(OqriskError, ValueError):
    """The drift matrix has an eigenvalue with nonnegative real part."""


class NotPsd(OqriskError, ValueError):
    """A matrix required to be positive semi-definite has a negative
    eigenvalue below the clipping band."""


class ThetaOutOfRange(OqriskError, ValueError):
    """The risk parameter lies outside the finiteness interval of the
    requested functional."""


class EpsilonTooSmall(OqriskError, ValueError):
    """The tail scale parameter is below the bound's validity threshold."""


class NumericalDefect(OqriskError, ArithmeticError):
    """A certificate failed: a residual or identity that must hold up to
    rounding, an eigenvalue iteration, or an overflowing exponential."""


class NoConvergence(OqriskError, ArithmeticError):
    """A quadrature, root bracketing or sampling loop did not reach its goal."""


class VarianceBlowup(OqriskError, ArithmeticError):
    """The exponential Monte Carlo estimator degenerated (effective
    sample size too small)."""
