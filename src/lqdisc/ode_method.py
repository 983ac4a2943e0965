"""Fixed-step discretization by Runge-Kutta matrix recursions.

One precomputation per (model, scheme, step count) gives the interval maps
of a single sub-step (:func:`rk_seed`); ``n_steps`` copies of that seed,
chained by :func:`lqdisc.intervals.repeat`, cover the sampling interval.
Finiteness is checked once, on the result; only a diverged result walks
the copies again, one composition at a time, to name the first step whose
maps stopped being finite.  The RK
stage maps are functions of ``a_c`` and so commute with the state
transition: ``A`` and ``B`` are the blocks ``[[A, B], [0, I]]`` of the
extended transition, and the scheme's noise increment
``sum_i b_i lam_i T r_bar T' lam_i'`` equals ``T r_tilde T'`` with the one
precomputed ``r_tilde = sum_i b_i lam_i r_bar lam_i'``.
"""

from __future__ import annotations

import numpy as np

from .butcher import PrecomputedCoefficients, precompute
from .errors import DivergenceError
from .intervals import IntervalMaps, compose, diverged, repeat, to_discrete
from .model import ContinuousLqModel, DiscreteLqModel

__all__ = ["discretize_ode"]


def weighted_conjugation(coeffs: PrecomputedCoefficients, m: np.ndarray) -> np.ndarray:
    """Sum of b[i] * lam_stages[i] @ m @ lam_stages[i].T over stages.

    The scheme's one-step noise covariance for an increment ``m``.  The
    stage maps commute with the state transition ``T``, so for
    ``m = T m0 T'`` it equals ``T @ weighted_conjugation(coeffs, m0) @ T.T``:
    it is applied once, to ``r_bar``, to form the sub-step seed.
    """
    b = coeffs.scheme.b
    out = np.zeros_like(m)
    for i, lam_i in enumerate(coeffs.lam_stages):
        out += b[i] * (lam_i @ m @ lam_i.T)
    return out


def rk_seed(coeffs: PrecomputedCoefficients) -> IntervalMaps:
    """The interval maps of one sub-step of the scheme."""
    return IntervalMaps(
        ext=coeffs.omega,
        quad=coeffs.q_bar,
        lin=coeffs.m_bar,
        cov=weighted_conjugation(coeffs, coeffs.r_bar),
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
        Number of equal sub-steps across the sampling interval.

    Raises
    ------
    DivergenceError
        If a map stops being finite; the message names the step.
    """
    # overflow to inf is the divergence signal checked below, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = precompute(model, scheme, n_steps)
        seed = rk_seed(coeffs)
        maps = repeat(seed, n_steps)
        if diverged(maps):
            raise DivergenceError(
                f"scheme {scheme!r} diverged at step "
                f"{_first_diverged_step(seed, n_steps)} of {n_steps} "
                f"(step size {coeffs.h:.6g})"
            )
    return to_discrete(model, maps, f"scheme {scheme!r}")


def _first_diverged_step(seed: IntervalMaps, n_steps: int) -> int:
    """The first ``k`` whose ``k`` chained copies of ``seed`` diverged.

    The error path of :func:`discretize_ode`: ``n_steps`` when no shorter
    chain diverged.
    """
    maps, k = seed, 1
    while k < n_steps and not diverged(maps):
        maps, k = compose(maps, seed), k + 1
    return k
