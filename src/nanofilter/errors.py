"""Exception hierarchy for the filtering library.

An estimator breaking down on its data raises an :class:`EstimationError`;
the benchmark driver counts it as a divergence of that trial.  Asking for
something that cannot run (a filter the model does not support, a scenario
or level off the catalogue, unpaired sequences) is a usage error and raises a
:class:`ValueError` subclass, which no trial absorbs.  :func:`integer_at_least`
is the one check behind every count a setting holds (passes, steps, trials,
seed).
"""

import operator


def integer_at_least(value, minimum: int) -> bool:
    """Whether ``value`` is an integer no less than ``minimum``.

    An integer is anything ``operator.index`` accepts: ``int`` and numpy
    integers, not floats (``2.0`` included) and not NaN.
    """
    try:
        return operator.index(value) >= minimum
    except TypeError:
        return False


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


class MissingHessian(ValueError):
    """An exact-curvature update was requested for a model without second derivatives."""


class GimbalLock(EstimationError):
    """Euler-angle kinematics evaluated too close to a +/-90 degree pitch."""


class ModelNotLinear(ValueError):
    """A linear-only filter was asked to run on a model without linear parts."""


class UnknownScenario(ValueError):
    """An unrecognized benchmark model or mismatch kind was requested."""


class UnknownLevel(ValueError):
    """A mismatch level outside the scenario's published grid was requested."""


class LengthMismatch(ValueError):
    """Paired sequences (truth vs. estimates) differ in length or width."""
