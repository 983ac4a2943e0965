"""The Runge-Kutta seed in state form: a reference independent of the
extended-drift stage recursion that :func:`lqdisc.butcher.precompute` runs.

Per-stage state maps ``lam_stages[i]`` solve the stage equations on
``a_c`` alone; the input column of each extended map is rebuilt from the
stage's weighted input integral ``theta_i`` and ``b_bar = h b_c`` (the
nested ``extend``), and the noise increment is the weighted conjugation of
``r_bar`` by the stage maps.  Tests that need per-stage maps read them
here, and the library seed is checked against :func:`rk_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lqdisc.butcher import _SINGULAR_COND, ButcherTableau, tableau
from lqdisc.errors import SingularMatrixError, ValidationError
from lqdisc.intervals import IntervalMaps
from lqdisc.model import ContinuousLqModel

__all__ = ["PrecomputedCoefficients", "precompute", "weighted_conjugation", "rk_seed"]


@dataclass(frozen=True)
class PrecomputedCoefficients:
    """Constant per-step matrices for a (model, scheme, step count) triple.

    ``lam``/``theta`` advance the state and input-integral maps one step;
    ``omega*`` are their extended-state counterparts acting on ``[x; u]``;
    ``b_bar``/``m_bar``/``q_bar``/``r_bar`` are the constant per-step
    increments of the input, affine-cost, quadratic-cost, and
    noise-covariance accumulators.
    """

    scheme: ButcherTableau
    h: float
    lam_stages: tuple
    theta_stages: tuple
    omega_stages: tuple
    lam: np.ndarray
    theta: np.ndarray
    omega: np.ndarray
    b_bar: np.ndarray
    m_bar: np.ndarray
    q_bar: np.ndarray
    r_bar: np.ndarray


def precompute(
    model: ContinuousLqModel, scheme: str, n_steps: int
) -> PrecomputedCoefficients:
    """Form the constant per-step coefficient matrices for ``scheme``.

    Implicit stages require ``I - h * a[i, i] * a_c`` to be nonsingular.
    Its 1-norm condition number is estimated once per distinct diagonal
    entry; at ``1e14`` or above (exactly singular included) it raises
    :class:`~lqdisc.errors.SingularMatrixError` naming the scheme, the
    stage and the step size.  Each stage is one LAPACK solve.  An
    ``n_steps`` below 1 or too large for a float (about ``2**1024``) raises
    :class:`~lqdisc.errors.ValidationError`.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    tab = tableau(scheme)
    a_c = model.a_c
    n_x, n_u = model.n_x, model.n_u
    try:
        h = model.t_s / float(n_steps)
    except OverflowError:
        raise ValidationError("n_steps is too large for a float step size") from None
    ident = np.eye(n_x)

    stage_matrices: dict[float, np.ndarray] = {}
    lam_stages = []
    for i in range(tab.stages):
        rhs = ident + h * sum(
            tab.a[i, j] * (a_c @ lam_stages[j])
            for j in range(i) if tab.a[i, j] != 0.0
        )
        diag = float(tab.a[i, i])
        if diag != 0.0:
            if diag not in stage_matrices:
                stage = ident - h * diag * a_c
                cond = np.linalg.cond(stage, 1)     # inf when exactly singular
                if not cond < _SINGULAR_COND:
                    raise SingularMatrixError(
                        f"scheme {tab.name!r}: implicit stage {i + 1} is "
                        f"singular for step size {h:.6g} (1-norm condition "
                        f"number {cond:.3e})"
                    )
                stage_matrices[diag] = stage
            lam_stages.append(np.linalg.solve(stage_matrices[diag], rhs))
        else:
            lam_stages.append(rhs)

    zero = np.zeros((n_x, n_x))
    theta_stages = [
        sum((tab.a[i, j] * lam_stages[j] for j in range(tab.stages)), zero)
        for i in range(tab.stages)
    ]
    theta = sum(tab.b[i] * lam_stages[i] for i in range(tab.stages))
    lam = ident + h * (a_c @ theta)

    b_bar = h * model.b_c

    def extend(state_map, input_map):
        out = np.zeros((n_x + n_u, n_x + n_u))
        out[:n_x, :n_x] = state_map
        out[:n_x, n_x:] = input_map @ b_bar
        out[n_x:, n_x:] = np.eye(n_u)
        return out

    omega_stages = [
        extend(lam_stages[i], theta_stages[i]) for i in range(tab.stages)
    ]
    omega = extend(lam, theta)

    h_out = np.hstack([model.c_c, model.d_c])          # z = h_out @ [x; u]
    weighted_out = h_out.T @ model.q_c                 # maps z-weight back to [x; u]
    m_bar = -h * sum(
        tab.b[i] * omega_stages[i].T for i in range(tab.stages)
    ) @ weighted_out
    q_bar = h * sum(
        tab.b[i] * (omega_stages[i].T @ weighted_out @ h_out @ omega_stages[i])
        for i in range(tab.stages)
    )
    r_bar = h * (model.g_c @ model.g_c.T)

    return PrecomputedCoefficients(
        scheme=tab,
        h=h,
        lam_stages=tuple(lam_stages),
        theta_stages=tuple(theta_stages),
        omega_stages=tuple(omega_stages),
        lam=lam,
        theta=theta,
        omega=omega,
        b_bar=b_bar,
        m_bar=m_bar,
        q_bar=q_bar,
        r_bar=r_bar,
    )


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
