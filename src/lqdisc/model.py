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
    "validate",
    "continuous_model_from_dict",
    "continuous_model_to_dict",
    "discrete_model_to_dict",
    "discrete_model_from_dict",
]

_SYM_TOL = 1e-12
_PSD_TOL = 1e-10


def _array(value, name, ndim):
    a = np.asarray(value, dtype=float)
    if a.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {a.shape}")
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _sequence(value, n, width, name):
    """Coerce a per-step sequence, broadcasting a single row over n steps.

    A single row is a flat vector or a one-row matrix of shape (1, width).
    """
    if width == 0:
        return _array(np.zeros((n, 0)), name, 2)
    a = np.asarray(value, dtype=float)
    if a.ndim == 2 and a.shape[0] == 1:
        a = a[0]
    if a.ndim == 1:
        if a.shape[0] != width:
            raise ValidationError(
                f"{name} row has length {a.shape[0]}, expected {width}"
            )
        a = np.tile(a, (n, 1))
    if a.ndim != 2 or a.shape != (n, width):
        raise ValidationError(
            f"{name} must have shape ({n}, {width}), got {np.asarray(value).shape}"
        )
    return _array(a, name, 2)


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
        if a_c.shape != (n_x, n_x):
            raise ValidationError(f"a_c must be square, got {a_c.shape}")
        b_c = _array(self.b_c, "b_c", 2)
        if b_c.shape[0] != n_x:
            raise ValidationError(
                f"b_c has {b_c.shape[0]} rows, expected {n_x}"
            )
        n_u = b_c.shape[1]
        g_c = _array(self.g_c, "g_c", 2)
        if g_c.shape[0] != n_x:
            raise ValidationError(
                f"g_c has {g_c.shape[0]} rows, expected {n_x}"
            )
        c_c = _array(self.c_c, "c_c", 2)
        if c_c.shape[1] != n_x:
            raise ValidationError(
                f"c_c has {c_c.shape[1]} columns, expected {n_x}"
            )
        n_z = c_c.shape[0]
        d_c = _array(self.d_c, "d_c", 2)
        if d_c.shape != (n_z, n_u):
            raise ValidationError(
                f"d_c must have shape ({n_z}, {n_u}), got {d_c.shape}"
            )
        q_c = _array(self.q_c, "q_c", 2)
        if q_c.shape != (n_z, n_z):
            raise ValidationError(
                f"q_c must have shape ({n_z}, {n_z}), got {q_c.shape}"
            )
        inputs = np.asarray(self.inputs, dtype=float)
        if inputs.ndim != 2:
            raise ValidationError(
                f"inputs must be a (N, n_u) array, got shape {inputs.shape}"
            )
        n = inputs.shape[0]
        if n < 1:
            raise ValidationError("inputs must cover at least one interval")
        if inputs.shape[1] != n_u:
            raise ValidationError(
                f"inputs have width {inputs.shape[1]}, expected {n_u}"
            )
        targets = np.asarray(self.targets, dtype=float)
        if targets.shape != (n, n_z):
            raise ValidationError(
                f"targets must have shape ({n}, {n_z}), got {targets.shape}"
            )
        x0_mean = np.asarray(self.x0_mean, dtype=float)
        if x0_mean.shape != (n_x,):
            raise ValidationError(
                f"x0_mean must have shape ({n_x},), got {x0_mean.shape}"
            )
        x0_cov = _array(self.x0_cov, "x0_cov", 2)
        if x0_cov.shape != (n_x, n_x):
            raise ValidationError(
                f"x0_cov must have shape ({n_x}, {n_x}), got {x0_cov.shape}"
            )
        for name, val in (
            ("a_c", a_c), ("b_c", b_c), ("g_c", g_c), ("c_c", c_c),
            ("d_c", d_c), ("q_c", q_c),
            ("inputs", _array(inputs, "inputs", 2)),
            ("targets", _array(targets, "targets", 2)),
            ("x0_mean", _array(x0_mean, "x0_mean", 1)),
            ("x0_cov", x0_cov),
        ):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "t_s", float(self.t_s))

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

    def cost_rate(self, x, u, target) -> float:
        """Instantaneous cost rate 0.5 * (z - target)' q_c (z - target)."""
        err = self.c_c @ np.asarray(x, float) + self.d_c @ np.asarray(u, float)
        err = err - np.asarray(target, float)
        return 0.5 * float(err @ self.q_c @ err)


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


def validate(model: ContinuousLqModel) -> list[str]:
    """Return a list of admissibility violations (empty means valid)."""
    problems = []
    if not (model.t_s > 0.0 and np.isfinite(model.t_s)):
        problems.append(f"t_s must be positive and finite, got {model.t_s}")
    for f in fields(model):
        if f.name == "t_s":
            continue
        arr = getattr(model, f.name)
        if not np.isfinite(arr).all():
            problems.append(f"{f.name} contains non-finite entries")
    msg = _symmetry_violation(model.q_c, "q_c", _SYM_TOL)
    if msg:
        problems.append(msg)
    elif (m := _psd_violation(model.q_c, "q_c")):
        problems.append(m)
    msg = _symmetry_violation(model.x0_cov, "x0_cov", _SYM_TOL)
    if msg:
        problems.append(msg)
    elif (m := _psd_violation(model.x0_cov, "x0_cov")):
        problems.append(m)
    return problems


def require_valid(model: ContinuousLqModel) -> None:
    problems = validate(model)
    if problems:
        raise ValidationError("; ".join(problems))


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
        object.__setattr__(self, "c", _array(self.c, "tracking c", 2))
        object.__setattr__(self, "d", _array(self.d, "tracking d", 2))
        object.__setattr__(self, "q_output", _array(self.q_output, "q_output", 2))
        object.__setattr__(self, "q_input", _array(self.q_input, "q_input", 2))
        n_y, n_u = self.c.shape[0], self.d.shape[1]
        if self.d.shape[0] != n_y:
            raise ValidationError(
                f"tracking d has {self.d.shape[0]} rows, expected {n_y}"
            )
        if self.q_output.shape != (n_y, n_y):
            raise ValidationError(
                f"q_output must have shape ({n_y}, {n_y}), got {self.q_output.shape}"
            )
        if self.q_input.shape != (n_u, n_u):
            raise ValidationError(
                f"q_input must have shape ({n_u}, {n_u}), got {self.q_input.shape}"
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
    if tracking.c.shape[1] != n_x:
        raise ValidationError(
            f"tracking c has {tracking.c.shape[1]} columns, expected {n_x}"
        )
    if tracking.d.shape[1] != n_u:
        raise ValidationError(
            f"tracking d has {tracking.d.shape[1]} columns, expected {n_u}"
        )

    c_stack = np.vstack([tracking.c, np.zeros((n_u, n_x))])
    d_stack = np.vstack([tracking.d, np.eye(n_u)])
    q_stack = np.zeros((n_y + n_u, n_y + n_u))
    q_stack[:n_y, :n_y] = tracking.q_output
    q_stack[n_y:, n_y:] = tracking.q_input

    def _rows(v):
        a = np.asarray(v, dtype=float)
        return 1 if a.ndim <= 1 else a.shape[0]

    n = max(_rows(inputs), _rows(output_targets), _rows(input_targets))
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
        b = _array(self.b, "b", 2)
        n_u = b.shape[1]
        n_xu = n_x + n_u
        q = _array(self.q, "q", 2)
        m = _array(self.m, "m", 2)
        r_ww = _array(self.r_ww, "r_ww", 2)
        if a.shape != (n_x, n_x) or b.shape[0] != n_x:
            raise ValidationError("inconsistent a/b shapes")
        if q.shape != (n_xu, n_xu):
            raise ValidationError(
                f"q must have shape ({n_xu}, {n_xu}), got {q.shape}"
            )
        if r_ww.shape != (n_x, n_x):
            raise ValidationError(
                f"r_ww must have shape ({n_x}, {n_x}), got {r_ww.shape}"
            )
        if m.shape[0] != n_xu:
            raise ValidationError(
                f"m must have {n_xu} rows, got {m.shape[0]}"
            )
        # symmetry is structural; definiteness is not enforced here because
        # quadrature weights with negative entries can produce (slightly)
        # indefinite cost matrices at very coarse steps
        for mat, name in ((q, "q"), (r_ww, "r_ww")):
            msg = _symmetry_violation(mat, name, 1e-10)
            if msg:
                raise ValidationError(msg)
        q_k = _array(self.q_k, "q_k", 2)
        rho_k = np.asarray(self.rho_k, dtype=float)
        if q_k.shape[1] != n_xu or rho_k.shape != (q_k.shape[0],):
            raise ValidationError("q_k / rho_k sequences have wrong shape")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", _array(self.c, "c", 2))
        object.__setattr__(self, "d", _array(self.d, "d", 2))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r_ww", r_ww)
        object.__setattr__(self, "t_s", float(self.t_s))
        object.__setattr__(self, "q_k", q_k)
        rho_k = np.ascontiguousarray(rho_k)
        rho_k.setflags(write=False)
        object.__setattr__(self, "rho_k", rho_k)

    @property
    def n_x(self) -> int:
        return self.a.shape[0]

    @property
    def n_u(self) -> int:
        return self.b.shape[1]

    @property
    def horizon(self) -> int:
        return self.q_k.shape[0]

    def stage_cost(self, x, u, k: int) -> float:
        """Stage cost at step k for state x and input u."""
        xu = np.concatenate([np.asarray(x, float), np.asarray(u, float)])
        return float(
            0.5 * xu @ self.q @ xu + self.q_k[k] @ xu + self.rho_k[k]
        )


def _matrix_list(a):
    return np.asarray(a, dtype=float).tolist()


_CONTINUOUS_KEYS = {
    "A_c", "B_c", "G_c", "T_s", "N", "u", "x0_mean", "x0_cov",
    "C_c", "D_c", "Q_c", "zbar", "tracking",
}
_TRACKING_KEYS = {"C", "D", "Q_zz", "Q_uu", "zbar", "ubar"}


def continuous_model_from_dict(payload: dict) -> ContinuousLqModel:
    """Build a model from the documented JSON schema (strict keys)."""
    if not isinstance(payload, dict):
        raise ValidationError("model file must contain a JSON object")
    unknown = set(payload) - _CONTINUOUS_KEYS
    if unknown:
        raise ValidationError(f"unknown model keys: {sorted(unknown)}")
    missing = {"A_c", "B_c", "G_c", "T_s", "N", "u", "x0_mean", "x0_cov"} - set(payload)
    if missing:
        raise ValidationError(f"missing model keys: {sorted(missing)}")
    has_stacked = {"C_c", "D_c", "Q_c", "zbar"} <= set(payload)
    has_tracking = "tracking" in payload
    if has_tracking and ({"C_c", "D_c", "Q_c", "zbar"} & set(payload)):
        raise ValidationError("give either C_c/D_c/Q_c/zbar or tracking, not both")
    if not has_stacked and not has_tracking:
        raise ValidationError(
            "model needs either the stacked keys C_c/D_c/Q_c/zbar or a tracking block"
        )

    n = payload["N"]
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"N must be a positive integer, got {n!r}")
    a_c = _array(payload["A_c"], "A_c", 2)
    b_c = _array(payload["B_c"], "B_c", 2)
    n_u = b_c.shape[1]
    inputs = _sequence(payload["u"], n, n_u, "u")

    if has_tracking:
        t = payload["tracking"]
        if not isinstance(t, dict):
            raise ValidationError("tracking must be an object")
        unknown = set(t) - _TRACKING_KEYS
        if unknown:
            raise ValidationError(f"unknown tracking keys: {sorted(unknown)}")
        missing = _TRACKING_KEYS - set(t)
        if missing:
            raise ValidationError(f"missing tracking keys: {sorted(missing)}")
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
    keys = {"A", "B", "C", "D", "Q", "M", "R_ww", "T_s", "q_k", "rho_k"}
    unknown = set(payload) - keys
    if unknown:
        raise ValidationError(f"unknown discrete-model keys: {sorted(unknown)}")
    missing = keys - set(payload)
    if missing:
        raise ValidationError(f"missing discrete-model keys: {sorted(missing)}")
    return DiscreteLqModel(
        a=payload["A"], b=payload["B"], c=payload["C"], d=payload["D"],
        q=payload["Q"], m=payload["M"], r_ww=payload["R_ww"],
        t_s=payload["T_s"], q_k=payload["q_k"], rho_k=payload["rho_k"],
    )
