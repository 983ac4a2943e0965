"""Quadrature reference implementation, independent of the production routes.

States are advanced *exactly* on a fine grid (matrix exponential of the
zero-order-hold pair per grid step) and every integral quantity is then
obtained by composite trapezoidal quadrature of its integrand.  Nothing
here shares structure with the per-step recursions, the block-cost
exponentials, or the doubling identities, so agreement is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lqdisc.linalg import expm, symmetrize
from lqdisc.model import ContinuousLqModel, DiscreteLqModel

__all__ = ["OracleConfig", "oracle_cost", "oracle_discretize"]


@dataclass(frozen=True)
class OracleConfig:
    """Grid resolution for the reference quadrature."""

    n_nodes: int = 2 ** 14


def _hold_pair(model: ContinuousLqModel, dt: float):
    """Exact one-grid-step transition (e_a, e_b) for a held input."""
    n_x, n_u = model.n_x, model.n_u
    block = np.zeros((n_x + n_u, n_x + n_u))
    block[:n_x, :n_x] = model.a_c
    block[:n_x, n_x:] = model.b_c
    phi = expm(block * dt)
    return phi[:n_x, :n_x], phi[:n_x, n_x:]


def _grid_maps(model: ContinuousLqModel, n_nodes: int):
    """State/input maps x(t_i) = trans[i] x0 + inp[i] u at the grid nodes."""
    dt = model.t_s / n_nodes
    e_a, e_b = _hold_pair(model, dt)
    n_x, n_u = model.n_x, model.n_u
    trans = np.empty((n_nodes + 1, n_x, n_x))
    inp = np.empty((n_nodes + 1, n_x, n_u))
    trans[0] = np.eye(n_x)
    inp[0] = np.zeros((n_x, n_u))
    for i in range(n_nodes):
        trans[i + 1] = e_a @ trans[i]
        inp[i + 1] = e_a @ inp[i] + e_b
    return dt, trans, inp


def _trapezoid(values: np.ndarray, dt: float):
    """Composite trapezoid over axis 0."""
    return dt * (values.sum(axis=0) - 0.5 * (values[0] + values[-1]))


def oracle_cost(
    model: ContinuousLqModel,
    x0,
    u0,
    target,
    config: OracleConfig = OracleConfig(),
) -> float:
    """Reference value of the stage-cost integral over one interval.

    Integrates the cost rate along the exact trajectory from ``x0`` under
    the held input ``u0`` and target ``target``.
    """
    dt, trans, inp = _grid_maps(model, config.n_nodes)
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    err = (
        (trans @ x0 + inp @ u0) @ model.c_c.T
        + model.d_c @ u0
        - np.asarray(target, dtype=float)
    )
    rates = 0.5 * np.einsum("iz,zy,iy->i", err, model.q_c, err)
    return float(_trapezoid(rates, dt))


def oracle_discretize(
    model: ContinuousLqModel, config: OracleConfig = OracleConfig()
) -> DiscreteLqModel:
    """Reference discrete equivalents by exact propagation + quadrature."""
    n_nodes = config.n_nodes
    dt, trans, inp = _grid_maps(model, n_nodes)
    n_x, n_u, n_z = model.n_x, model.n_u, model.n_z

    # output-flow map at each node: z(t_i) = gam_out[i] @ [x; u]
    gam_out = np.empty((n_nodes + 1, n_z, n_x + n_u))
    gam_out[:, :, :n_x] = model.c_c @ trans
    gam_out[:, :, n_x:] = model.c_c @ inp + model.d_c

    weighted = model.q_c @ gam_out                       # (nodes, n_z, n_xu)
    quad = _trapezoid(
        np.einsum("izr,izc->irc", gam_out, weighted), dt
    )
    lin = -_trapezoid(np.transpose(gam_out, (0, 2, 1)), dt) @ model.q_c

    noise = model.g_c @ model.g_c.T
    cov = _trapezoid(trans @ noise @ np.transpose(trans, (0, 2, 1)), dt)

    q_seq = model.targets @ lin.T
    rho_seq = 0.5 * np.einsum(
        "kz,zy,ky->k", model.targets, model.q_c, model.targets
    ) * model.t_s
    return DiscreteLqModel(
        a=trans[-1],
        b=inp[-1],
        c=model.c_c,
        d=model.d_c,
        q=symmetrize(quad),
        m=lin,
        r_ww=symmetrize(cov),
        t_s=model.t_s,
        q_k=q_seq,
        rho_k=rho_seq,
    )
