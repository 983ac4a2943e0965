"""Shared fixtures and references: the benchmark two-state model, random
stable systems, and plain one-formula checks the library is tested against."""

import numpy as np
import pytest

from lqdisc import ContinuousLqModel
from lqdisc.linalg import psd_shortfall


def make_benchmark_model(horizon=1, x0_cov_scale=0.1):
    """Two-state tracking model used throughout the numerical experiments.

    Drift eigenvalues are -1 and -17, the output tracks x1+x2 toward 3,
    and both inputs are penalized with unit weight (stacked output form).
    """
    return ContinuousLqModel(
        a_c=[[-49.0, 24.0], [-64.0, 31.0]],
        b_c=[[2.0, 0.5], [1.0, 3.0]],
        g_c=[[0.1, 0.0], [0.0, 0.1]],
        c_c=[[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
        d_c=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        q_c=np.eye(3),
        t_s=1.0,
        inputs=[[1.0, 1.0]] * horizon,
        targets=[[3.0, 0.0, 0.0]] * horizon,
        x0_mean=[0.0, 1.0],
        x0_cov=x0_cov_scale * np.eye(2),
    )


def random_stable_model(rng, n_x=3, n_u=2, n_z=None, horizon=1,
                        noise_scale=0.3, t_s=None):
    """Random Hurwitz model with mutually consistent dimensions."""
    if n_z is None:
        n_z = rng.integers(1, n_x + 1)
    a = rng.normal(size=(n_x, n_x))
    # shift the spectrum left of the imaginary axis
    shift = max(np.real(np.linalg.eigvals(a)).max(), 0.0) + rng.uniform(0.3, 1.5)
    a -= shift * np.eye(n_x)
    q_half = rng.normal(size=(n_z, n_z))
    cov_half = rng.normal(size=(n_x, n_x)) * 0.2
    return ContinuousLqModel(
        a_c=a,
        b_c=rng.normal(size=(n_x, n_u)),
        g_c=noise_scale * rng.normal(size=(n_x, n_x)),
        c_c=rng.normal(size=(n_z, n_x)),
        d_c=rng.normal(size=(n_z, n_u)),
        q_c=q_half @ q_half.T + 0.1 * np.eye(n_z),
        t_s=float(rng.uniform(0.3, 1.2)) if t_s is None else t_s,
        inputs=rng.normal(size=(horizon, n_u)),
        targets=rng.normal(size=(horizon, n_z)),
        x0_mean=rng.normal(size=n_x),
        x0_cov=cov_half @ cov_half.T,
    )


def is_psd(m, tol=1e-10):
    """True iff the symmetrized ``m`` has no eigenvalue below ``-tol * scale``
    (:func:`lqdisc.linalg.psd_shortfall`)."""
    return psd_shortfall(m, tol) is None


def stage_cost(disc, x, u, k):
    """Stage cost ``0.5 xu' q xu + q_k' xu + rho_k`` of ``disc`` at step ``k``
    for one state ``x`` and input ``u``, with ``xu = [x; u]``."""
    xu = np.concatenate([np.asarray(x, float), np.asarray(u, float)])
    return float(0.5 * xu @ disc.q @ xu + disc.q_k[k] @ xu + disc.rho_k[k])


def dense_qp_solution(disc, x0):
    """Stack the inputs into one vector and minimize the explicit quadratic.

    x_k = A^k x0 + sum_j A^(k-1-j) B u_j is substituted directly, which
    shares nothing with the backward dynamic-programming recursion.
    """
    n_x, n_u, horizon = disc.n_x, disc.n_u, disc.horizon
    n_dec = horizon * n_u
    hess = np.zeros((n_dec, n_dec))
    grad = np.zeros(n_dec)
    const = 0.0
    for k in range(horizon):
        # z_k = [x_k; u_k] = stage_map @ U + stage_shift
        stage_map = np.zeros((n_x + n_u, n_dec))
        pow_a = np.eye(n_x)
        for j in range(k - 1, -1, -1):
            stage_map[:n_x, j * n_u : (j + 1) * n_u] = pow_a @ disc.b
            pow_a = pow_a @ disc.a
        stage_map[n_x:, k * n_u : (k + 1) * n_u] = np.eye(n_u)
        stage_shift = np.zeros(n_x + n_u)
        stage_shift[:n_x] = np.linalg.matrix_power(disc.a, k) @ x0
        hess += stage_map.T @ disc.q @ stage_map
        grad += stage_map.T @ (disc.q @ stage_shift + disc.q_k[k])
        const += (
            0.5 * stage_shift @ disc.q @ stage_shift
            + disc.q_k[k] @ stage_shift
            + disc.rho_k[k]
        )
    u_flat = np.linalg.solve(hess, -grad)
    value = 0.5 * u_flat @ hess @ u_flat + grad @ u_flat + const
    return u_flat.reshape(horizon, n_u), float(value)


@pytest.fixture
def benchmark_model():
    return make_benchmark_model()


@pytest.fixture
def scalar_integrator():
    """A_c=0, B_c=1, C_c=1, D_c=0, Q_c=1, T_s=1: closed forms are known."""
    return ContinuousLqModel(
        a_c=[[0.0]], b_c=[[1.0]], g_c=[[0.0]],
        c_c=[[1.0]], d_c=[[0.0]], q_c=[[1.0]], t_s=1.0,
        inputs=[[0.0]], targets=[[0.0]],
        x0_mean=[0.0], x0_cov=[[0.0]],
    )
