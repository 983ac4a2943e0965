"""Discretization by repeated step doubling.

Takes the fixed-step route's one-sub-step seed at ``h = T_s / 2**j`` and
composes it with itself ``j`` times (:func:`lqdisc.intervals.compose`), so
``2**j`` sub-steps cost ``j`` compositions instead of ``2**j``.  The result
equals the fixed-step route at the same sub-step count up to rounding.
Finiteness is checked once, after the last iteration; only a diverged
result repeats the iterations to name the first one that diverged.
"""

from __future__ import annotations

import numpy as np

from .butcher import precompute
from .errors import DivergenceError, ValidationError
from .intervals import compose, diverged, to_discrete
from .model import ContinuousLqModel, DiscreteLqModel
from .ode_method import MAX_STEPS, rk_seed

__all__ = ["discretize_step_doubling"]


def discretize_step_doubling(
    model: ContinuousLqModel, scheme: str = "classic_rk4", doublings: int = 8
) -> DiscreteLqModel:
    """Discretize with ``2**doublings`` sub-steps in ``doublings`` iterations.

    Raises
    ------
    ValidationError
        If ``doublings`` is negative, or if its ``2**doublings`` sub-steps
        exceed the fixed-step route's :data:`lqdisc.ode_method.MAX_STEPS`
        (``doublings > 20``).
    DivergenceError
        If a map stops being finite; the message names the iteration.
    """
    if doublings < 0:
        raise ValidationError(f"doublings must be >= 0, got {doublings}")
    max_doublings = MAX_STEPS.bit_length() - 1
    if doublings > max_doublings:
        raise ValidationError(
            f"n_steps must be <= {MAX_STEPS} (2**{max_doublings}) on the squaring "
            f"route, got 2**{doublings}; the block exponential (discretize_expm, "
            "--method expm) is exact and takes no step count"
        )
    # overflow to inf is the divergence signal checked below
    with np.errstate(over="ignore", invalid="ignore"):
        seed = rk_seed(precompute(model, scheme, 2 ** doublings))
        maps = seed
        for _ in range(doublings):
            maps = compose(maps, maps)
        if doublings and diverged(maps):
            # the error path: repeat the iterations to name the first
            maps, i = compose(seed, seed), 1
            while i < doublings and not diverged(maps):
                maps, i = compose(maps, maps), i + 1
            raise DivergenceError(
                f"step doubling diverged at iteration {i} "
                f"(covering {2 ** i} sub-steps)"
            )
    return to_discrete(model, maps, "step doubling")
