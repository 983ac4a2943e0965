"""Fixed-step discretization by Runge-Kutta matrix recursions.

One precomputation per (model, scheme, step count) gives the interval maps
of a single sub-step (:func:`lqdisc.butcher.precompute`); ``n_steps``
copies of that seed, chained by :func:`lqdisc.intervals.repeat`, cover the
sampling interval.  Finiteness is checked once, on the result; only a
diverged result walks the copies again, one composition at a time, to name
the first step whose maps stopped being finite.
"""

from __future__ import annotations

import numpy as np

from .butcher import precompute
from .errors import DivergenceError, ValidationError
from .intervals import compose, diverged, first_diverged, repeat, to_discrete
from .model import ContinuousLqModel, DiscreteLqModel

__all__ = ["discretize_ode"]

# one composition per step: 2**20 steps take seconds, 2**40 would take months
MAX_STEPS = 2 ** 20
MAX_DOUBLINGS = MAX_STEPS.bit_length() - 1


def check_step_bound(
    route: str, n_steps: int | None = None, doublings: int | None = None
) -> None:
    """Refuse more than :data:`MAX_STEPS` sub-steps on either Runge-Kutta route.

    The count is ``n_steps``, or ``2**doublings`` when ``doublings`` is
    given; that one is compared as an exponent and named as ``2**J``, so a
    huge exponent never becomes a huge integer.  ``route`` names the route
    in the message.

    Raises
    ------
    ValidationError
        If the count exceeds :data:`MAX_STEPS`; the message names the count.
    """
    if doublings is None:
        over, asked = n_steps > MAX_STEPS, n_steps
    else:
        over, asked = doublings > MAX_DOUBLINGS, f"2**{doublings}"
    if over:
        raise ValidationError(
            f"n_steps must be <= {MAX_STEPS} (2**{MAX_DOUBLINGS}) on the {route} "
            f"route, got {asked}; the block exponential (discretize_expm, "
            "--method expm) is exact and takes no step count"
        )


def discretize_ode(
    model: ContinuousLqModel, scheme: str = "classic_rk4", n_steps: int = 256
) -> DiscreteLqModel:
    """Discretize one sampling interval with a fixed-step scheme.

    Parameters
    ----------
    model : ContinuousLqModel
    scheme : str
        One of the names in :data:`lqdisc.butcher.SCHEMES`.
    n_steps : int
        Number of equal sub-steps across the sampling interval, at most
        :data:`MAX_STEPS`.

    Raises
    ------
    ValidationError
        If ``n_steps`` exceeds :data:`MAX_STEPS` (or is below 1).
    DivergenceError
        If a map stops being finite; the message names the step.
    """
    check_step_bound("fixed-step", n_steps)
    # overflow to inf is the divergence signal checked below, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        seed = precompute(model, scheme, n_steps)
        maps = repeat(seed, n_steps)
        if diverged(maps):
            step = first_diverged(seed, lambda m: compose(m, seed), n_steps)
            raise DivergenceError(
                f"scheme {scheme!r} diverged at step {step} of {n_steps} "
                f"(step size {model.t_s / n_steps:.6g})"
            )
    return to_discrete(model, maps, f"scheme {scheme!r}")
