"""Discretization by repeated step doubling.

Takes the fixed-step route's one-sub-step seed at ``h = T_s / 2**j`` and
composes it with itself ``j`` times (:func:`lqdisc.intervals.compose`), so
``2**j`` sub-steps cost ``j`` compositions instead of ``2**j``.  The result
equals the fixed-step route at the same sub-step count up to rounding.
"""

from __future__ import annotations

import numpy as np

from .butcher import precompute
from .errors import DivergenceError, ValidationError
from .intervals import compose, to_discrete
from .model import ContinuousLqModel, DiscreteLqModel, require_valid
from .ode_method import rk_seed

__all__ = ["discretize_step_doubling"]


def discretize_step_doubling(
    model: ContinuousLqModel, scheme: str = "classic_rk4", doublings: int = 8
) -> DiscreteLqModel:
    """Discretize with ``2**doublings`` sub-steps in ``doublings`` iterations."""
    require_valid(model)
    if doublings < 0:
        raise ValidationError(f"doublings must be >= 0, got {doublings}")
    # overflow to inf is the divergence signal checked below
    with np.errstate(over="ignore", invalid="ignore"):
        maps = rk_seed(precompute(model, scheme, 2 ** doublings))
        for i in range(1, doublings + 1):
            maps = compose(maps, maps)
            if not (np.isfinite(maps.ext).all() and np.isfinite(maps.quad).all()):
                raise DivergenceError(
                    f"step doubling diverged at iteration {i} "
                    f"(covering {2 ** i} sub-steps)"
                )
    return to_discrete(model, maps, "step doubling")
