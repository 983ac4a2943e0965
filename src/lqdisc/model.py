"""Problem containers: continuous-time models, tracking specs, discrete results.

A continuous-time problem is

    dx/dt = A_c x + B_c u,   z = C_c x + D_c u,
    rate of cost = 0.5 * (z - target)' Q_c (z - target),

with piecewise-constant inputs and targets held over each sampling
interval, and (optionally) additive process noise entering through
``g_c``.  ``build_stacked_model`` assembles the common output-tracking +
input-penalty special case into this general form by stacking the output
map so that ``Q_c`` is block diagonal.

Discretization produces a :class:`DiscreteLqModel` holding the exact
sampled-data equivalents ``a, b, q, m, r_ww`` plus the per-step affine
cost pieces ``q_k`` and ``rho_k``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .linalg import psd_shortfall

__all__ = [
    "ContinuousLqModel",
    "TrackingSpec",
    "DiscreteLqModel",
    "build_stacked_model",
    "continuous_model_from_dict",
    "continuous_model_to_dict",
    "discrete_model_to_dict",
    "discrete_model_from_dict",
]

_SYM_TOL = 1e-12
_PSD_TOL = 1e-10


def _array(value, name, ndim, shape=None):
    """``value`` as a read-only C-contiguous float array, checked by shape.

    The array has rank ``ndim`` (any rank when ``ndim`` is None), and each
    entry of ``shape`` that is not None fixes that dimension.  Nothing is
    copied when ``value`` already is such an array; a writeable one is
    returned as a read-only view, so ``value`` itself stays writeable.  A
    non-numeric or ragged ``value``, like a wrong shape, raises
    ``ValidationError`` naming ``name``.
    """
    try:
        a = np.asarray(value, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{name} is not a number or a rectangular array of numbers ({exc})"
        ) from None
    if ndim is not None:
        bad = a.ndim != ndim
        for want, got in zip(shape or (), a.shape):
            bad = bad or want not in (None, got)
        if bad:
            want = ", ".join(
                "*" if d is None else str(d) for d in shape or (None,) * ndim
            )
            raise ValidationError(
                f"{name} must have shape ({want}{',' * (ndim == 1)}), "
                f"got {a.shape}"
            )
    if a is value and a.flags.writeable:
        a = a.view()
    a.setflags(write=False)
    return a


def _freeze(obj, **values):
    """Set fields of a frozen dataclass (from its ``__post_init__``)."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def _sequence(value, n, width, name):
    """Coerce a per-step sequence, broadcasting a single row over n steps.

    A single row is a flat vector or a one-row matrix of shape (1, width).
    """
    if width == 0:
        return _array(np.zeros((n, 0)), name, 2)
    a = _array(value, name, None)
    if a.ndim == 2 and a.shape[0] == 1:
        a = a[0]
    if a.ndim == 1:
        a = np.tile(_array(a, f"{name} row", 1, (width,)), (n, 1))
    return _array(a, name, 2, (n, width))


@dataclass(frozen=True)
class ContinuousLqModel:
    """Continuous-time LQ problem with piecewise-constant inputs and targets.

    Attributes
    ----------
    a_c, b_c, g_c : ndarray
        Drift, input, and noise-input matrices of the state equation.
    c_c, d_c : ndarray
        Output map ``z = c_c x + d_c u``.
    q_c : ndarray
        Symmetric PSD weight on the output deviation.
    t_s : float
        Sampling interval length.
    inputs : (N, n_u) ndarray
        Input held on each of the N sampling intervals.
    targets : (N, n_z) ndarray
        Output target held on each interval.
    x0_mean, x0_cov : ndarray
        Initial-state distribution (point mass when ``x0_cov`` is zero).

    A model is valid by construction: ``__post_init__`` (which also runs
    under ``dataclasses.replace``) checks the shapes, then that ``t_s`` is
    positive and finite, every entry is finite and ``q_c`` and ``x0_cov``
    are symmetric PSD, and raises one :class:`~lqdisc.errors.ValidationError`
    naming every violation, joined by ``"; "``.
    """

    a_c: np.ndarray
    b_c: np.ndarray
    g_c: np.ndarray
    c_c: np.ndarray
    d_c: np.ndarray
    q_c: np.ndarray
    t_s: float
    inputs: np.ndarray
    targets: np.ndarray
    x0_mean: np.ndarray
    x0_cov: np.ndarray

    def __post_init__(self):
        a_c = _array(self.a_c, "a_c", 2)
        n_x = a_c.shape[0]
        b_c = _array(self.b_c, "b_c", 2, (n_x, None))
        c_c = _array(self.c_c, "c_c", 2, (None, n_x))
        n_u, n_z = b_c.shape[1], c_c.shape[0]
        inputs = _array(self.inputs, "inputs", 2, (None, n_u))
        if inputs.shape[0] < 1:
            raise ValidationError("inputs must cover at least one interval")
        _freeze(
            self,
            a_c=_array(a_c, "a_c", 2, (n_x, n_x)),
            b_c=b_c,
            g_c=_array(self.g_c, "g_c", 2, (n_x, None)),
            c_c=c_c,
            d_c=_array(self.d_c, "d_c", 2, (n_z, n_u)),
            q_c=_array(self.q_c, "q_c", 2, (n_z, n_z)),
            t_s=float(_array(self.t_s, "t_s", 0)),
            inputs=inputs,
            targets=_array(self.targets, "targets", 2, (inputs.shape[0], n_z)),
            x0_mean=_array(self.x0_mean, "x0_mean", 1, (n_x,)),
            x0_cov=_array(self.x0_cov, "x0_cov", 2, (n_x, n_x)),
        )
        problems = []
        if not (self.t_s > 0.0 and np.isfinite(self.t_s)):
            problems.append(f"t_s must be positive and finite, got {self.t_s}")
        problems += [
            f"{f.name} contains non-finite entries"
            for f in fields(self)
            if f.name != "t_s" and not np.isfinite(getattr(self, f.name)).all()
        ]
        for name in ("q_c", "x0_cov"):
            m = getattr(self, name)
            msg = _symmetry_violation(m, name, _SYM_TOL) or _psd_violation(m, name)
            if msg:
                problems.append(msg)
        if problems:
            raise ValidationError("; ".join(problems))

    @property
    def n_x(self) -> int:
        return self.a_c.shape[0]

    @property
    def n_u(self) -> int:
        return self.b_c.shape[1]

    @property
    def n_z(self) -> int:
        return self.c_c.shape[0]

    @property
    def n_w(self) -> int:
        return self.g_c.shape[1]

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]


def _symmetry_violation(m, name, tol):
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    gap = float(np.abs(m - m.T).max()) if m.size else 0.0
    if gap > tol * scale:
        return f"{name} is not symmetric (max asymmetry {gap:.3e})"
    return None


def _psd_violation(m, name, tol=_PSD_TOL):
    low = psd_shortfall(m, tol)
    if low is not None:
        return f"{name} is not positive semidefinite (min eigenvalue {low:.3e})"
    return None


@dataclass(frozen=True)
class TrackingSpec:
    """Output-tracking + input-penalty cost specification.

    Penalizes ``0.5 (y - y_ref)' q_output (y - y_ref)
    + 0.5 (u - u_ref)' q_input (u - u_ref)`` with ``y = c x + d u``.
    """

    c: np.ndarray
    d: np.ndarray
    q_output: np.ndarray
    q_input: np.ndarray

    def __post_init__(self):
        c = _array(self.c, "tracking c", 2)
        d = _array(self.d, "tracking d", 2, (c.shape[0], None))
        n_y, n_u = d.shape
        _freeze(
            self,
            c=c,
            d=d,
            q_output=_array(self.q_output, "q_output", 2, (n_y, n_y)),
            q_input=_array(self.q_input, "q_input", 2, (n_u, n_u)),
        )


def build_stacked_model(
    a_c,
    b_c,
    g_c,
    t_s,
    tracking: TrackingSpec,
    output_targets,
    input_targets,
    inputs,
    x0_mean,
    x0_cov,
) -> ContinuousLqModel:
    """Stack a tracking problem into the general output form.

    The stacked output is ``z = [y; u]`` with block-diagonal weight
    ``diag(q_output, q_input)`` and target rows ``[y_ref_k; u_ref_k]``, so
    the one quadratic on ``z`` reproduces the two tracking terms exactly.

    ``output_targets``/``input_targets``/``inputs`` accept either a single
    row (held for every interval) or one row per interval; the horizon is
    the number of ``inputs`` rows (or target rows when inputs are a single
    broadcast row).
    """
    a_c = _array(a_c, "a_c", 2)
    b_c = _array(b_c, "b_c", 2)
    n_x, n_u = a_c.shape[0], b_c.shape[1]
    n_y = tracking.c.shape[0]
    _array(tracking.c, "tracking c", 2, (None, n_x))
    _array(tracking.d, "tracking d", 2, (None, n_u))

    c_stack = np.vstack([tracking.c, np.zeros((n_u, n_x))])
    d_stack = np.vstack([tracking.d, np.eye(n_u)])
    q_stack = np.zeros((n_y + n_u, n_y + n_u))
    q_stack[:n_y, :n_y] = tracking.q_output
    q_stack[n_y:, n_y:] = tracking.q_input

    def _rows(v, name):
        a = _array(v, name, None)
        return 1 if a.ndim <= 1 else a.shape[0]

    n = max(
        _rows(inputs, "inputs"),
        _rows(output_targets, "output_targets"),
        _rows(input_targets, "input_targets"),
    )
    inputs = _sequence(inputs, n, n_u, "inputs")
    y_ref = _sequence(output_targets, n, n_y, "output_targets")
    u_ref = _sequence(input_targets, n, n_u, "input_targets")
    targets = np.hstack([y_ref, u_ref])

    return ContinuousLqModel(
        a_c=a_c,
        b_c=b_c,
        g_c=g_c,
        c_c=c_stack,
        d_c=d_stack,
        q_c=q_stack,
        t_s=t_s,
        inputs=inputs,
        targets=targets,
        x0_mean=x0_mean,
        x0_cov=x0_cov,
    )


@dataclass(frozen=True)
class DiscreteLqModel:
    """Exact discrete-time equivalent of a continuous problem.

    State recursion ``x[k+1] = a x[k] + b u[k]`` (plus noise with
    per-interval covariance ``r_ww``) and stage cost

        0.5 * [x; u]' q [x; u] + q_k[k]' [x; u] + rho_k[k].
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    q: np.ndarray
    m: np.ndarray
    r_ww: np.ndarray
    t_s: float
    q_k: np.ndarray
    rho_k: np.ndarray

    def __post_init__(self):
        a = _array(self.a, "a", 2)
        n_x = a.shape[0]
        b = _array(self.b, "b", 2, (n_x, None))
        n_u = b.shape[1]
        n_xu = n_x + n_u
        m = _array(self.m, "m", 2, (n_xu, None))
        n_z = m.shape[1]
        q_k = _array(self.q_k, "q_k", 2, (None, n_xu))
        _freeze(
            self,
            a=_array(a, "a", 2, (n_x, n_x)),
            b=b,
            c=_array(self.c, "c", 2, (n_z, n_x)),
            d=_array(self.d, "d", 2, (n_z, n_u)),
            q=_array(self.q, "q", 2, (n_xu, n_xu)),
            m=m,
            r_ww=_array(self.r_ww, "r_ww", 2, (n_x, n_x)),
            t_s=float(_array(self.t_s, "t_s", 0)),
            q_k=q_k,
            rho_k=_array(self.rho_k, "rho_k", 1, q_k.shape[:1]),
        )
        # symmetry is structural; definiteness is not enforced here because
        # quadrature weights with negative entries can produce (slightly)
        # indefinite cost matrices at very coarse steps
        for name in ("q", "r_ww"):
            msg = _symmetry_violation(getattr(self, name), name, 1e-10)
            if msg:
                raise ValidationError(msg)

    @property
    def n_x(self) -> int:
        return self.a.shape[0]

    @property
    def n_u(self) -> int:
        return self.b.shape[1]

    @property
    def horizon(self) -> int:
        return self.q_k.shape[0]


def _matrix_list(a):
    return np.asarray(a, dtype=float).tolist()


_MODEL_KEYS = {"A_c", "B_c", "G_c", "T_s", "N", "u", "x0_mean", "x0_cov"}
_STACKED_KEYS = {"C_c", "D_c", "Q_c", "zbar"}
_TRACKING_KEYS = {"C", "D", "Q_zz", "Q_uu", "zbar", "ubar"}
_DISCRETE_KEYS = {"A", "B", "C", "D", "Q", "M", "R_ww", "T_s", "q_k", "rho_k"}


def _check_keys(payload, what, required, optional=frozenset()):
    """Reject a ``payload`` that is not a dict or has unknown or missing keys."""
    if not isinstance(payload, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = set(payload) - required - optional
    if unknown:
        raise ValidationError(f"unknown {what} keys: {sorted(unknown)}")
    missing = required - set(payload)
    if missing:
        raise ValidationError(f"missing {what} keys: {sorted(missing)}")


def continuous_model_from_dict(payload: dict) -> ContinuousLqModel:
    """Build a model from the documented JSON schema (strict keys)."""
    _check_keys(payload, "model", _MODEL_KEYS, _STACKED_KEYS | {"tracking"})
    has_tracking = "tracking" in payload
    if has_tracking and (_STACKED_KEYS & set(payload)):
        raise ValidationError("give either C_c/D_c/Q_c/zbar or tracking, not both")
    if not has_tracking and not _STACKED_KEYS <= set(payload):
        raise ValidationError(
            "model needs either the stacked keys C_c/D_c/Q_c/zbar or a tracking block"
        )

    n = payload["N"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"N must be a positive integer, got {n!r}")
    a_c = _array(payload["A_c"], "A_c", 2)
    b_c = _array(payload["B_c"], "B_c", 2)
    n_u = b_c.shape[1]
    inputs = _sequence(payload["u"], n, n_u, "u")

    if has_tracking:
        t = payload["tracking"]
        _check_keys(t, "tracking", _TRACKING_KEYS)
        spec = TrackingSpec(
            c=t["C"], d=t["D"], q_output=t["Q_zz"], q_input=t["Q_uu"]
        )
        return build_stacked_model(
            a_c, b_c, payload["G_c"], payload["T_s"], spec,
            output_targets=_sequence(t["zbar"], n, spec.c.shape[0], "tracking zbar"),
            input_targets=_sequence(t["ubar"], n, n_u, "tracking ubar"),
            inputs=inputs,
            x0_mean=payload["x0_mean"],
            x0_cov=payload["x0_cov"],
        )

    c_c = _array(payload["C_c"], "C_c", 2)
    return ContinuousLqModel(
        a_c=a_c,
        b_c=b_c,
        g_c=payload["G_c"],
        c_c=c_c,
        d_c=payload["D_c"],
        q_c=payload["Q_c"],
        t_s=payload["T_s"],
        inputs=inputs,
        targets=_sequence(payload["zbar"], n, c_c.shape[0], "zbar"),
        x0_mean=payload["x0_mean"],
        x0_cov=payload["x0_cov"],
    )


def continuous_model_to_dict(model: ContinuousLqModel) -> dict:
    return {
        "A_c": _matrix_list(model.a_c),
        "B_c": _matrix_list(model.b_c),
        "G_c": _matrix_list(model.g_c),
        "C_c": _matrix_list(model.c_c),
        "D_c": _matrix_list(model.d_c),
        "Q_c": _matrix_list(model.q_c),
        "T_s": model.t_s,
        "N": model.horizon,
        "u": _matrix_list(model.inputs),
        "zbar": _matrix_list(model.targets),
        "x0_mean": _matrix_list(model.x0_mean),
        "x0_cov": _matrix_list(model.x0_cov),
    }


def discrete_model_to_dict(disc: DiscreteLqModel) -> dict:
    return {
        "A": _matrix_list(disc.a),
        "B": _matrix_list(disc.b),
        "C": _matrix_list(disc.c),
        "D": _matrix_list(disc.d),
        "Q": _matrix_list(disc.q),
        "M": _matrix_list(disc.m),
        "R_ww": _matrix_list(disc.r_ww),
        "T_s": disc.t_s,
        "q_k": _matrix_list(disc.q_k),
        "rho_k": _matrix_list(disc.rho_k),
    }


def discrete_model_from_dict(payload: dict) -> DiscreteLqModel:
    _check_keys(payload, "discrete-model", _DISCRETE_KEYS)
    return DiscreteLqModel(
        a=payload["A"], b=payload["B"], c=payload["C"], d=payload["D"],
        q=payload["Q"], m=payload["M"], r_ww=payload["R_ww"],
        t_s=payload["T_s"], q_k=payload["q_k"], rho_k=payload["rho_k"],
    )
