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
from .ode_method import rk_seed

__all__ = ["discretize_step_doubling"]


def discretize_step_doubling(
    model: ContinuousLqModel, scheme: str = "classic_rk4", doublings: int = 8
) -> DiscreteLqModel:
    """Discretize with ``2**doublings`` sub-steps in ``doublings`` iterations."""
    if doublings < 0:
        raise ValidationError(f"doublings must be >= 0, got {doublings}")
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
