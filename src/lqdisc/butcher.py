"""Runge-Kutta tableaus and the interval maps of one Runge-Kutta step.

For a linear drift the stage equations of any Runge-Kutta scheme collapse
to constant matrices that can be formed once and reused for every step.
:func:`precompute` forms them on the extended drift ``[[a_c, b_c], [0,
0]]``, so one stage map carries both the state and the held input, and
returns the four interval maps of one sub-step (see
:mod:`lqdisc.intervals`): the seed that both Runge-Kutta routes compose.

Schemes: ``explicit_euler``, ``implicit_euler``, ``explicit_trapezoidal``
(Heun), ``implicit_trapezoidal``, ``esdirk34`` (L-stable, stiffly
accurate), ``classic_rk4``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError, ValidationError
from .intervals import IntervalMaps, extended_drift
from .model import ContinuousLqModel

__all__ = ["ButcherTableau", "tableau", "precompute", "SCHEMES"]

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


def precompute(model: ContinuousLqModel, scheme: str, n_steps: int) -> IntervalMaps:
    """The interval maps of one sub-step ``h = t_s / n_steps`` of ``scheme``.

    The stage recursion runs once, on the extended drift ``h_ext`` (see
    :func:`lqdisc.intervals.extended_drift`), so each stage map ``O_i``
    acts on ``[x; u]`` with the input held::

        O_i  = (I - h a_ii h_ext)^-1 (I + h sum_{j<i} a_ij h_ext O_j)
        ext  = I + h h_ext sum_i b_i O_i
        quad = h sum_i b_i O_i' W O_i,        W = h_out' q_c h_out
        lin  = -h sum_i b_i O_i' h_out' q_c
        cov  = sum_i b_i T_i (h g_c g_c') T_i'

    with ``T_i`` the state block of ``O_i``.  The stage maps are functions
    of ``h a_c`` and so commute with the state transition: the scheme's
    noise increment over a later step, ``sum_i b_i T_i (T r T') T_i'``,
    equals ``T cov T'``, which is how :func:`lqdisc.intervals.compose`
    pushes ``cov`` forward.

    Implicit stages require the state block ``I - h * a[i, i] * a_c`` to
    be nonsingular.  Its 1-norm condition number is estimated once per
    distinct diagonal entry; at ``1e14`` or above (exactly singular
    included) it raises :class:`~lqdisc.errors.SingularMatrixError` naming
    the scheme, the stage and the step size.  The input column of the
    extended stage matrix does not enter the estimate: the solve is block
    back-substitution through the state block, so a large ``b_c`` costs it
    no accuracy.  Each stage is one LAPACK solve.  An
    ``n_steps`` below 1 or too large for a float (about ``2**1024``)
    raises :class:`~lqdisc.errors.ValidationError`.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    tab = tableau(scheme)
    n_x = model.n_x
    try:
        h = model.t_s / float(n_steps)
    except OverflowError:
        raise ValidationError("n_steps is too large for a float step size") from None
    h_ext, h_out = extended_drift(model)
    ident = np.eye(len(h_ext))

    stage_matrices: dict[float, np.ndarray] = {}
    stages = []
    for i in range(tab.stages):
        rhs = ident + h * sum(
            tab.a[i, j] * (h_ext @ stages[j])
            for j in range(i) if tab.a[i, j] != 0.0
        )
        diag = float(tab.a[i, i])
        if diag != 0.0:
            if diag not in stage_matrices:
                stage = ident - h * diag * h_ext
                # inf when exactly singular
                cond = np.linalg.cond(stage[:n_x, :n_x], 1)
                if not cond < _SINGULAR_COND:
                    raise SingularMatrixError(
                        f"scheme {tab.name!r}: implicit stage {i + 1} is "
                        f"singular for step size {h:.6g} (1-norm condition "
                        f"number {cond:.3e})"
                    )
                stage_matrices[diag] = stage
            stages.append(np.linalg.solve(stage_matrices[diag], rhs))
        else:
            stages.append(rhs)

    weighted = list(zip(tab.b, stages))
    stage_sum = sum(b_i * o_i for b_i, o_i in weighted)
    weight_out = h_out.T @ model.q_c                 # maps z-weight back to [x; u]
    r_bar = h * (model.g_c @ model.g_c.T)
    return IntervalMaps(
        ext=ident + h * (h_ext @ stage_sum),
        quad=h * sum(b_i * (o_i.T @ weight_out @ h_out @ o_i) for b_i, o_i in weighted),
        lin=-h * stage_sum.T @ weight_out,
        cov=sum(
            b_i * (o_i[:n_x, :n_x] @ r_bar @ o_i[:n_x, :n_x].T)
            for b_i, o_i in weighted
        ),
    )
