"""Fixed-step discretization by Runge-Kutta matrix recursions.

One precomputation per (model, scheme, step count), then ``n_steps``
cheap matrix updates of the extended-state transition ``ext`` (acting on
``[x; u]``) and of the quadratic-cost, affine-cost and noise
accumulators.  The RK stage maps are functions of ``a_c`` and so commute
with the state transition; the transition ``A`` and input map ``B`` are
therefore the blocks ``[[A, B], [0, I]]`` of ``ext`` and need no
accumulators of their own, and the per-step noise increment
``sum_i b_i lam_i T r_bar T' lam_i'`` equals ``T r_tilde T'`` with the
one precomputed ``r_tilde = sum_i b_i lam_i r_bar lam_i'``.  ``Q`` and
``R_ww`` are symmetrized once, after the last step.
"""

from __future__ import annotations

import numpy as np

from .butcher import PrecomputedCoefficients, precompute
from .errors import DivergenceError
from .linalg import symmetrize
from .model import ContinuousLqModel, DiscreteLqModel, require_valid

__all__ = ["discretize_ode"]


def weighted_conjugation(coeffs: PrecomputedCoefficients, m: np.ndarray) -> np.ndarray:
    """Sum of b[i] * lam_stages[i] @ m @ lam_stages[i].T over stages.

    The scheme's one-step noise covariance for an increment ``m``.  The
    stage maps commute with the state transition ``T``, so for
    ``m = T m0 T'`` it equals ``T @ weighted_conjugation(coeffs, m0) @ T.T``:
    the fixed-step route applies it once, to ``r_bar``, before its loop,
    and step doubling once, to its accumulated sum, after its loop.  The
    two therefore agree bitwise in the degenerate single-step case.
    """
    b = coeffs.scheme.b
    out = np.zeros_like(m)
    for i, lam_i in enumerate(coeffs.lam_stages):
        out += b[i] * (lam_i @ m @ lam_i.T)
    return out


def _affine_cost_sequences(model: ContinuousLqModel, m: np.ndarray):
    """Per-step affine cost terms: q_k = m @ target_k, rho_k = rate * t_s."""
    q_seq = model.targets @ m.T
    rho_seq = 0.5 * np.einsum(
        "kz,zy,ky->k", model.targets, model.q_c, model.targets
    ) * model.t_s
    return q_seq, rho_seq


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
        If an accumulator stops being finite; the message names the step.
    """
    require_valid(model)
    coeffs = precompute(model, scheme, n_steps)
    n_x, n_xu = model.n_x, model.n_x + model.n_u
    r_tilde = weighted_conjugation(coeffs, coeffs.r_bar)

    ext = np.eye(n_xu)                        # extended transition [[A, B], [0, I]]
    quad = np.zeros((n_xu, n_xu))             # quadratic cost accumulator
    lin = np.zeros((n_xu, model.n_z))         # affine cost accumulator
    cov = np.zeros((n_x, n_x))                # noise covariance accumulator

    # overflow to inf is the divergence signal checked below, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            quad += ext.T @ coeffs.q_bar @ ext
            lin += ext.T @ coeffs.m_bar
            trans = ext[:n_x, :n_x]
            cov += trans @ r_tilde @ trans.T
            ext = coeffs.omega @ ext
            if not (np.isfinite(ext).all() and np.isfinite(quad).all()):
                raise DivergenceError(
                    f"scheme {scheme!r} diverged at step {k + 1} of {n_steps} "
                    f"(step size {coeffs.h:.6g})"
                )

    q_seq, rho_seq = _affine_cost_sequences(model, lin)
    return DiscreteLqModel(
        a=ext[:n_x, :n_x],
        b=ext[:n_x, n_x:],
        c=model.c_c,
        d=model.d_c,
        q=symmetrize(quad),
        m=lin,
        r_ww=symmetrize(cov),
        t_s=model.t_s,
        q_k=q_seq,
        rho_k=rho_seq,
    )
