"""Exception hierarchy for the filtering library.

Everything raised on purpose derives from :class:`EstimationError`, so callers
(notably the benchmark driver) can distinguish "the estimator broke down" from
programming errors.
"""


class EstimationError(Exception):
    """Base class for recoverable estimation failures."""


class NotPositiveDefinite(EstimationError):
    """A matrix required to be symmetric positive definite is not."""


class SingularFactor(EstimationError):
    """A triangular factor has a diagonal entry too small to continue with."""


class NonFiniteFunctionValue(EstimationError):
    """A model function returned NaN or Inf at a quadrature point."""


class NonFiniteMeasurement(EstimationError):
    """A measurement handed to a filter step contains NaN or Inf."""


class NonFiniteState(EstimationError):
    """A simulated trajectory left the finite floats."""


class NonFiniteIterate(EstimationError):
    """An optimizer iterate (mean or covariance) became NaN or Inf."""


class PDFailure(EstimationError):
    """A measurement update produced a covariance that is not positive definite."""


class MissingHessian(EstimationError):
    """An exact-curvature update was requested for a model without second derivatives."""


class GimbalLock(EstimationError):
    """Euler-angle kinematics evaluated too close to a +/-90 degree pitch."""


class ModelNotLinear(EstimationError):
    """A linear-only filter was asked to run on a model without linear parts."""


class UnknownScenario(EstimationError):
    """An unrecognized benchmark model or mismatch kind was requested."""


class UnknownLevel(EstimationError):
    """A mismatch level outside the scenario's published grid was requested."""


class LengthMismatch(EstimationError):
    """Paired sequences (truth vs. estimates) differ in length or width."""
