"""Runge-Kutta tableaus and precomputed per-step propagator coefficients.

For a linear drift the stage equations of any Runge-Kutta scheme collapse
to constant matrices that can be formed once and reused for every step:
per-stage propagators ``lam_stages[i]`` (state transition evaluated at the
stage), their weighted combinations ``lam``/``theta`` (one-step state and
input maps), the extended-state versions ``omega*``, and the constant
per-step increments ``b_bar``/``m_bar``/``q_bar``/``r_bar`` consumed by
the fixed-step discretizer.

Schemes: ``explicit_euler``, ``implicit_euler``, ``explicit_trapezoidal``
(Heun), ``implicit_trapezoidal``, ``esdirk34`` (L-stable, stiffly
accurate), ``classic_rk4``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError, ValidationError
from .model import ContinuousLqModel

__all__ = ["ButcherTableau", "PrecomputedCoefficients", "tableau", "precompute", "SCHEMES"]

# L-stable diagonal of the 4-stage stiffly-accurate ESDIRK scheme: the
# middle root of x^3 - 3x^2 + 3x/2 - 1/6.  Remaining entries follow from
# c2 = 2*gamma, a stage-order-2 condition on stage three, and the three
# third-order conditions on the (stiffly accurate) weight row.
_ESDIRK_GAMMA = 0.435866521508459
_ESDIRK_C3 = 0.468238744861595
_ESDIRK_A31 = 0.1407377747340947
_ESDIRK_A32 = -0.10836555138095871
_ESDIRK_B = (0.10239940062799413, -0.3768784522664414, 0.8386125301299883, _ESDIRK_GAMMA)

# An implicit stage matrix this ill-conditioned (reciprocal condition
# 1e-14 or below) is treated as singular.
_SINGULAR_COND = 1e14


@dataclass(frozen=True)
class ButcherTableau:
    name: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        for arr in (a, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def stages(self) -> int:
        return len(self.b)


def _make_tableaus() -> dict[str, ButcherTableau]:
    g = _ESDIRK_GAMMA
    return {
        "explicit_euler": ButcherTableau(
            "explicit_euler", [[0.0]], [1.0], [0.0], order=1),
        "implicit_euler": ButcherTableau(
            "implicit_euler", [[1.0]], [1.0], [1.0], order=1),
        "explicit_trapezoidal": ButcherTableau(
            "explicit_trapezoidal",
            [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.0, 1.0], order=2),
        "implicit_trapezoidal": ButcherTableau(
            "implicit_trapezoidal",
            [[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5], [0.0, 1.0], order=2),
        "esdirk34": ButcherTableau(
            "esdirk34",
            [[0.0, 0.0, 0.0, 0.0],
             [g, g, 0.0, 0.0],
             [_ESDIRK_A31, _ESDIRK_A32, g, 0.0],
             list(_ESDIRK_B)],
            list(_ESDIRK_B),
            [0.0, 2.0 * g, _ESDIRK_C3, 1.0],
            order=3),
        "classic_rk4": ButcherTableau(
            "classic_rk4",
            [[0.0, 0.0, 0.0, 0.0],
             [0.5, 0.0, 0.0, 0.0],
             [0.0, 0.5, 0.0, 0.0],
             [0.0, 0.0, 1.0, 0.0]],
            [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
            [0.0, 0.5, 0.5, 1.0],
            order=4),
    }


SCHEMES = _make_tableaus()


def tableau(name: str) -> ButcherTableau:
    """Look up a scheme by name."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValidationError(
            f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}"
        ) from None


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
