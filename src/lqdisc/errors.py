"""Exception hierarchy for lqdisc.

Every error raised by the library derives from :class:`LqdiscError` so
callers (notably the CLI) can map failures to a small set of outcomes.
"""


class LqdiscError(Exception):
    """Base class for all lqdisc errors."""


class ValidationError(LqdiscError):
    """A model or argument failed validation."""


class SingularMatrixError(LqdiscError):
    """An implicit Runge-Kutta stage matrix is singular or numerically
    singular (1-norm condition number of ``1e14`` or more)."""


class DivergenceError(LqdiscError):
    """An iteration produced non-finite values."""


class NormOverflowError(LqdiscError):
    """A matrix norm of finite entries overflowed to infinity."""


class IllConditionedError(LqdiscError):
    """A finite result that cannot carry two trustworthy digits."""


class ConvexityError(LqdiscError):
    """A Riccati step lost positive definiteness of the input block."""


class ResourceLimitError(LqdiscError):
    """A request exceeded a configured size cap."""
