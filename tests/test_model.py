import dataclasses
import re

import numpy as np
import pytest

from lqdisc import (
    ContinuousLqModel,
    DiscreteLqModel,
    TrackingSpec,
    ValidationError,
    build_stacked_model,
    continuous_model_from_dict,
    continuous_model_to_dict,
    discrete_model_from_dict,
    discrete_model_to_dict,
    discretize_expm,
)
from conftest import make_benchmark_model


def _raises_exactly(message):
    """``pytest.raises`` for a ``ValidationError`` with exactly ``message``."""
    return pytest.raises(ValidationError, match=f"^{re.escape(message)}$")


def test_benchmark_model_is_admissible(benchmark_model):
    # construction is the check, so a copy of a valid model checks clean
    copy = dataclasses.replace(benchmark_model)
    assert (copy.n_x, copy.horizon) == (benchmark_model.n_x, benchmark_model.horizon)


def test_validate_reports_asymmetric_weight():
    q = np.eye(3)
    q[1, 2] = 1e-3
    m = make_benchmark_model()
    with _raises_exactly("q_c is not symmetric (max asymmetry 1.000e-03)"):
        ContinuousLqModel(
            a_c=m.a_c, b_c=m.b_c, g_c=m.g_c, c_c=m.c_c, d_c=m.d_c,
            q_c=q, t_s=m.t_s, inputs=m.inputs, targets=m.targets,
            x0_mean=m.x0_mean, x0_cov=m.x0_cov,
        )


def test_validate_reports_indefinite_weights_with_their_eigenvalue():
    m = make_benchmark_model()
    with _raises_exactly(
        "q_c is not positive semidefinite (min eigenvalue -5.000e-01); "
        "x0_cov is not positive semidefinite (min eigenvalue -2.000e-01)"
    ):
        ContinuousLqModel(
            a_c=m.a_c, b_c=m.b_c, g_c=m.g_c, c_c=m.c_c, d_c=m.d_c,
            q_c=np.diag([1.0, 1.0, -0.5]), t_s=m.t_s, inputs=m.inputs,
            targets=m.targets, x0_mean=m.x0_mean, x0_cov=np.diag([0.1, -0.2]),
        )


def test_validate_reports_nonpositive_sample_time():
    m = make_benchmark_model()
    with _raises_exactly("t_s must be positive and finite, got 0.0"):
        ContinuousLqModel(
            a_c=m.a_c, b_c=m.b_c, g_c=m.g_c, c_c=m.c_c, d_c=m.d_c,
            q_c=m.q_c, t_s=0.0, inputs=m.inputs, targets=m.targets,
            x0_mean=m.x0_mean, x0_cov=m.x0_cov,
        )


def test_replace_checks_the_new_model(benchmark_model):
    a_c = np.array(benchmark_model.a_c)
    a_c[0, 1] = np.inf
    with _raises_exactly(
        "t_s must be positive and finite, got nan; a_c contains non-finite entries"
    ):
        dataclasses.replace(benchmark_model, a_c=a_c, t_s=float("nan"))
    with _raises_exactly("x0_cov is not symmetric (max asymmetry 5.000e-02)"):
        dataclasses.replace(benchmark_model, x0_cov=[[0.1, 0.05], [0.0, 0.1]])


def test_build_stacked_model_checks_the_stacked_weight():
    tracking = TrackingSpec(
        c=[[1.0, 1.0]], d=[[0.0, 0.0]], q_output=[[1.0]], q_input=np.diag([1.0, -2.0])
    )
    with _raises_exactly("q_c is not positive semidefinite (min eigenvalue -2.000e+00)"):
        build_stacked_model(
            a_c=-np.eye(2), b_c=np.eye(2), g_c=np.eye(2), t_s=1.0,
            tracking=tracking, output_targets=[0.0], input_targets=[0.0, 0.0],
            inputs=[0.0, 0.0], x0_mean=[0.0, 0.0], x0_cov=np.zeros((2, 2)),
        )


def test_model_from_dict_checks_the_model(benchmark_model):
    payload = continuous_model_to_dict(benchmark_model)
    payload["T_s"] = -1.0
    payload["u"] = [[1.0, float("nan")]]
    with _raises_exactly(
        "t_s must be positive and finite, got -1.0; inputs contains non-finite entries"
    ):
        continuous_model_from_dict(payload)


def test_dimension_mismatch_raises():
    with pytest.raises(ValidationError):
        ContinuousLqModel(
            a_c=[[0.0, 1.0]],  # not square
            b_c=[[1.0]], g_c=[[0.0]], c_c=[[1.0]], d_c=[[0.0]],
            q_c=[[1.0]], t_s=1.0, inputs=[[0.0]], targets=[[0.0]],
            x0_mean=[0.0], x0_cov=[[0.0]],
        )


def _benchmark_stacked():
    tracking = TrackingSpec(
        c=[[1.0, 1.0]], d=[[0.0, 0.0]],
        q_output=[[1.0]], q_input=np.eye(2),
    )
    return build_stacked_model(
        a_c=[[-49.0, 24.0], [-64.0, 31.0]],
        b_c=[[2.0, 0.5], [1.0, 3.0]],
        g_c=0.1 * np.eye(2),
        t_s=1.0,
        tracking=tracking,
        output_targets=[[3.0]],
        input_targets=[[0.0, 0.0]],
        inputs=[[1.0, 1.0]],
        x0_mean=[0.0, 1.0],
        x0_cov=0.1 * np.eye(2),
    )


def test_stacking_matches_benchmark_layout(benchmark_model):
    stacked = _benchmark_stacked()
    assert np.array_equal(stacked.c_c, benchmark_model.c_c)
    assert np.array_equal(stacked.d_c, benchmark_model.d_c)
    assert np.array_equal(stacked.q_c, benchmark_model.q_c)
    assert np.array_equal(stacked.targets, [[3.0, 0.0, 0.0]])


def test_stacked_cost_identity():
    # one quadratic on the stacked output reproduces tracking + input costs
    rng = np.random.default_rng(11)
    c = rng.normal(size=(2, 3))
    d = rng.normal(size=(2, 2))
    q_out_half = rng.normal(size=(2, 2))
    q_out = q_out_half @ q_out_half.T
    q_in = np.diag(rng.uniform(0.1, 2.0, size=2))
    tracking = TrackingSpec(c=c, d=d, q_output=q_out, q_input=q_in)
    y_ref = rng.normal(size=2)
    u_ref = rng.normal(size=2)
    model = build_stacked_model(
        a_c=-np.eye(3), b_c=rng.normal(size=(3, 2)), g_c=np.zeros((3, 3)),
        t_s=0.5, tracking=tracking,
        output_targets=[y_ref], input_targets=[u_ref],
        inputs=[[0.0, 0.0]], x0_mean=np.zeros(3), x0_cov=np.zeros((3, 3)),
    )
    target = model.targets[0]
    for _ in range(100):
        x = rng.normal(size=3)
        u = rng.normal(size=2)
        z = model.c_c @ x + model.d_c @ u
        stacked_cost = 0.5 * (z - target) @ model.q_c @ (z - target)
        y = c @ x + d @ u
        direct = (0.5 * (y - y_ref) @ q_out @ (y - y_ref)
                  + 0.5 * (u - u_ref) @ q_in @ (u - u_ref))
        assert abs(stacked_cost - direct) <= 1e-12 * max(1.0, abs(direct))


def test_stacking_zero_input_weight_degenerates():
    tracking = TrackingSpec(
        c=[[1.0, 0.0]], d=[[0.0]], q_output=[[2.0]], q_input=[[0.0]],
    )
    model = build_stacked_model(
        a_c=-np.eye(2), b_c=[[1.0], [0.0]], g_c=np.zeros((2, 2)),
        t_s=1.0, tracking=tracking,
        output_targets=[[0.5]], input_targets=[[0.0]],
        inputs=[[0.0]], x0_mean=[0.0, 0.0], x0_cov=np.zeros((2, 2)),
    )
    assert np.array_equal(model.q_c, [[2.0, 0.0], [0.0, 0.0]])


def test_stacking_autonomous_no_inputs():
    tracking = TrackingSpec(
        c=[[1.0, 0.0]], d=np.zeros((1, 0)),
        q_output=[[1.0]], q_input=np.zeros((0, 0)),
    )
    model = build_stacked_model(
        a_c=-np.eye(2), b_c=np.zeros((2, 0)), g_c=np.zeros((2, 2)),
        t_s=1.0, tracking=tracking,
        output_targets=[[0.0]], input_targets=[[]],
        inputs=[[]], x0_mean=[1.0, 0.0], x0_cov=np.zeros((2, 2)),
    )
    assert model.n_u == 0
    assert model.n_z == 1
    assert np.array_equal(model.q_c, [[1.0]])


def test_broadcast_single_input_and_target():
    m = ContinuousLqModel(
        a_c=[[-1.0]], b_c=[[1.0]], g_c=[[0.0]], c_c=[[1.0]], d_c=[[0.0]],
        q_c=[[1.0]], t_s=1.0,
        inputs=np.broadcast_to([0.5], (4, 1)), targets=np.broadcast_to([0.0], (4, 1)),
        x0_mean=[0.0], x0_cov=[[0.0]],
    )
    assert m.horizon == 4
    assert np.array_equal(m.inputs, 0.5 * np.ones((4, 1)))


def test_discrete_model_carries_output_maps(benchmark_model):
    disc = discretize_expm(benchmark_model)
    assert np.array_equal(disc.c, benchmark_model.c_c)
    assert np.array_equal(disc.d, benchmark_model.d_c)
    assert np.max(np.abs(disc.q - disc.q.T)) <= 1e-10
    assert np.max(np.abs(disc.r_ww - disc.r_ww.T)) <= 1e-10


def test_continuous_round_trip(benchmark_model):
    payload = continuous_model_to_dict(benchmark_model)
    back = continuous_model_from_dict(payload)
    for name in ("a_c", "b_c", "g_c", "c_c", "d_c", "q_c",
                 "inputs", "targets", "x0_mean", "x0_cov"):
        assert np.array_equal(getattr(back, name), getattr(benchmark_model, name))
    assert back.t_s == benchmark_model.t_s


def test_discrete_round_trip_is_bitwise(benchmark_model):
    disc = discretize_expm(benchmark_model)
    back = discrete_model_from_dict(discrete_model_to_dict(disc))
    for name in ("a", "b", "c", "d", "q", "m", "r_ww", "q_k", "rho_k"):
        assert np.array_equal(getattr(back, name), getattr(disc, name)), name


def test_from_dict_rejects_unknown_keys(benchmark_model):
    payload = continuous_model_to_dict(benchmark_model)
    payload["extra"] = 1
    with pytest.raises(ValidationError):
        continuous_model_from_dict(payload)


def test_from_dict_broadcasts_one_row_matrices_like_vectors(benchmark_model):
    payload = continuous_model_to_dict(benchmark_model)
    payload["N"] = 10
    payload["u"] = [[1.0, 1.0]]
    payload["zbar"] = [[3.0, 0.0, 0.0]]
    as_rows = continuous_model_from_dict(payload)
    payload["u"] = [1.0, 1.0]
    payload["zbar"] = [3.0, 0.0, 0.0]
    as_vectors = continuous_model_from_dict(payload)
    assert as_rows.horizon == 10
    assert np.array_equal(as_rows.inputs, as_vectors.inputs)
    assert np.array_equal(as_rows.targets, as_vectors.targets)
    # a matrix with more rows than one must still match the horizon
    payload["u"] = [[1.0, 1.0], [2.0, 2.0]]
    with pytest.raises(ValidationError, match=r"u must have shape \(10, 2\)"):
        continuous_model_from_dict(payload)


def _grow(value, axis):
    """``value`` with one more zero row (axis 0) or column (axis 1)."""
    a = np.asarray(value, dtype=float)
    pad = list(a.shape)
    pad[axis] = 1
    return np.concatenate([a, np.zeros(pad)], axis=axis)


def _valid_instances():
    model = make_benchmark_model()
    return {
        ContinuousLqModel: model,
        DiscreteLqModel: discretize_expm(model),
        TrackingSpec: TrackingSpec(
            c=[[1.0, 1.0]], d=[[0.0, 0.0]], q_output=[[1.0]], q_input=np.eye(2),
        ),
    }


# (class, field, axis to grow for a wrong dimension); ``None`` marks a
# field that only sets the dimensions its siblings are checked against
_SHAPED_FIELDS = [
    (ContinuousLqModel, "a_c", 1),
    (ContinuousLqModel, "b_c", 0),
    (ContinuousLqModel, "g_c", 0),
    (ContinuousLqModel, "c_c", 1),
    (ContinuousLqModel, "d_c", 1),
    (ContinuousLqModel, "q_c", 0),
    (ContinuousLqModel, "inputs", 1),
    (ContinuousLqModel, "targets", 1),
    (ContinuousLqModel, "x0_mean", 0),
    (ContinuousLqModel, "x0_cov", 0),
    (DiscreteLqModel, "a", 1),
    (DiscreteLqModel, "b", 0),
    (DiscreteLqModel, "c", 1),
    (DiscreteLqModel, "d", 1),
    (DiscreteLqModel, "q", 0),
    (DiscreteLqModel, "m", 0),
    (DiscreteLqModel, "r_ww", 0),
    (DiscreteLqModel, "q_k", 1),
    (DiscreteLqModel, "rho_k", 0),
    (TrackingSpec, "c", None),
    (TrackingSpec, "d", 0),
    (TrackingSpec, "q_output", 0),
    (TrackingSpec, "q_input", 0),
]
_SHAPE_CASES = [
    pytest.param(cls, name, kind, axis, id=f"{cls.__name__}.{name}-{kind}")
    for cls, name, grow in _SHAPED_FIELDS
    for kind, axis in (("rank", None), ("dimension", grow))
    if kind == "rank" or grow is not None
]


@pytest.mark.parametrize("cls, name, kind, axis", _SHAPE_CASES)
def test_each_array_field_rejects_a_wrong_shape_by_name(cls, name, kind, axis):
    valid = _valid_instances()[cls]
    value = getattr(valid, name)
    bad = value[None] if kind == "rank" else _grow(value, axis)
    with pytest.raises(ValidationError, match=rf"\b{name}\b"):
        dataclasses.replace(valid, **{name: bad})


@pytest.mark.parametrize("cls, name", [
    (ContinuousLqModel, "a_c"),
    (ContinuousLqModel, "x0_cov"),
    (DiscreteLqModel, "a"),
    (DiscreteLqModel, "q"),
    (TrackingSpec, "q_input"),
])
def test_coercion_leaves_the_callers_array_writeable(cls, name):
    valid = _valid_instances()[cls]
    mine = np.array(getattr(valid, name), dtype=float, order="C")
    built = dataclasses.replace(valid, **{name: mine})
    stored = getattr(built, name)
    # no copy was needed, and only the stored view is frozen
    assert np.shares_memory(stored, mine)
    assert mine.flags.writeable
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored[0] = 1.0
