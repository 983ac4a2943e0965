"""Finite-horizon solver for discretized problems.

Backward dynamic-programming recursion with cross terms and affine cost
pieces, zero terminal cost, followed by a forward rollout.  The input
block of the stage Hessian must stay positive definite at every step;
losing that is reported, not patched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvexityError, ValidationError
from .linalg import symmetrize
from .model import DiscreteLqModel

__all__ = ["LqSolution", "solve_finite_horizon"]


@dataclass(frozen=True)
class LqSolution:
    """Optimal open-loop plan and its certificate.

    ``inputs[k]`` minimizes the summed stage costs from ``states[k]``;
    ``value`` is the optimal total cost from the initial state;
    ``gain[k]``/``offset[k]`` give the time-varying affine policy
    ``u_k = -gain[k] @ x_k - offset[k]``.
    """

    inputs: np.ndarray
    states: np.ndarray
    value: float
    gain: np.ndarray
    offset: np.ndarray


def solve_finite_horizon(disc: DiscreteLqModel, x0) -> LqSolution:
    """Minimize the summed stage costs of ``disc`` from ``x0``.

    Raises
    ------
    ConvexityError
        If the input block of a stage Hessian is not positive definite.
    """
    n_x, n_u = disc.n_x, disc.n_u
    horizon = disc.horizon
    if n_u == 0:
        raise ValidationError("solver needs at least one input channel")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n_x,):
        raise ValidationError(f"x0 must have shape ({n_x},), got {x0.shape}")

    # backward pass: value 0.5 x' vmat x + vvec' x + vconst, terminal value zero;
    # the stage Hessian over [x; u] is q + ext' vmat ext with ext = [a b]
    ext = np.hstack([disc.a, disc.b])
    vmat = np.zeros((n_x, n_x))
    vvec = np.zeros(n_x)
    vconst = 0.0
    gain = np.empty((horizon, n_u, n_x))
    offset = np.empty((horizon, n_u))
    for k in range(horizon - 1, -1, -1):
        hess = disc.q + ext.T @ vmat @ ext
        grad = disc.q_k[k] + ext.T @ vvec
        f_xu, g_u = hess[:n_x, n_x:], grad[n_x:]
        f_uu = symmetrize(hess[n_x:, n_x:])
        try:
            np.linalg.cholesky(f_uu)
        except np.linalg.LinAlgError:
            raise ConvexityError(
                f"stage {k}: input block of the stage Hessian is not "
                "positive definite"
            ) from None
        policy = np.linalg.solve(f_uu, np.column_stack([f_xu.T, g_u]))
        gain[k], offset[k] = policy[:, :n_x], policy[:, n_x]
        vmat = symmetrize(hess[:n_x, :n_x] - f_xu @ gain[k])
        vvec = grad[:n_x] - f_xu @ offset[k]
        vconst = vconst + disc.rho_k[k] - 0.5 * float(g_u @ offset[k])

    value = 0.5 * float(x0 @ vmat @ x0) + float(vvec @ x0) + vconst

    # forward rollout on the closed loop x_{k+1} = (a - b gain_k) x_k - b offset_k
    closed = disc.a - disc.b @ gain
    states = np.empty((horizon + 1, n_x))
    states[0] = x0
    for k in range(horizon):
        states[k + 1] = closed[k] @ states[k] - disc.b @ offset[k]
    inputs = -np.einsum("kux,kx->ku", gain, states[:-1]) - offset

    return LqSolution(
        inputs=inputs, states=states, value=value, gain=gain, offset=offset
    )
