"""Finite-horizon solver: closed forms, a dense QP cross-check, optimality."""

import numpy as np
import pytest

from lqdisc.doubling import discretize_step_doubling
from lqdisc.errors import ConvexityError, ValidationError
from lqdisc.expm_method import discretize_expm
from lqdisc.lqsolve import solve_finite_horizon
from lqdisc.model import DiscreteLqModel

from conftest import dense_qp_solution, make_benchmark_model, random_stable_model


def _plain_model(a, b, q, horizon, q_k=None, rho_k=None):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n_x, n_u = b.shape
    return DiscreteLqModel(
        a=a,
        b=b,
        c=np.eye(1, n_x),
        d=np.zeros((1, n_u)),
        q=np.asarray(q, dtype=float),
        m=np.zeros((n_x + n_u, 1)),
        r_ww=np.zeros((n_x, n_x)),
        t_s=1.0,
        q_k=np.zeros((horizon, n_x + n_u)) if q_k is None else np.asarray(q_k, float),
        rho_k=np.zeros(horizon) if rho_k is None else np.asarray(rho_k, float),
    )


def _total_cost(disc, x0, inputs):
    x = np.asarray(x0, dtype=float)
    total = 0.0
    for k in range(disc.horizon):
        total += disc.stage_cost(x, inputs[k], k)
        x = disc.a @ x + disc.b @ inputs[k]
    return total


def test_single_step_decoupled_cost_leaves_input_at_zero():
    disc = _plain_model([[1.0]], [[1.0]], np.eye(2), horizon=1)
    sol = solve_finite_horizon(disc, [3.0])
    assert sol.inputs[0][0] == pytest.approx(0.0, abs=1e-14)
    assert sol.value == pytest.approx(0.5 * 9.0, abs=1e-12)
    assert np.max(np.abs(sol.gain)) == pytest.approx(0.0, abs=1e-14)


def test_scalar_two_step_hand_solution():
    # min 0.5(x0^2+u0^2) + 0.5(x1^2+u1^2), x1 = x0 + u0
    # u1* = 0, then u0* = -x0/2, value = 0.5 x0^2 + x0^2/8 + x0^2/8
    disc = _plain_model([[1.0]], [[1.0]], np.eye(2), horizon=2)
    x0 = 2.0
    sol = solve_finite_horizon(disc, [x0])
    assert sol.inputs[0][0] == pytest.approx(-x0 / 2.0, abs=1e-12)
    assert sol.inputs[1][0] == pytest.approx(0.0, abs=1e-12)
    assert sol.value == pytest.approx(0.75 * x0 ** 2, abs=1e-12)


@pytest.mark.parametrize(
    "horizon, n_x, n_u",
    [pytest.param(h, None, None, id=str(h)) for h in (1, 2, 3, 4)]
    + [pytest.param(50, n_x, 3, id=f"wide{n_x}") for n_x in (10, 40)],
)
def test_matches_dense_qp_solution(horizon, n_x, n_u):
    # random small sizes, five models each, and the wide-state benchmark sizes
    rng = np.random.default_rng(500 + horizon)
    for _ in range(5 if n_x is None else 1):
        model = random_stable_model(
            rng, n_x=n_x or int(rng.integers(1, 5)), n_u=n_u or int(rng.integers(1, 3)),
            n_z=3, horizon=horizon,
        )
        disc = discretize_expm(model)
        x0 = rng.normal(size=disc.n_x)
        sol = solve_finite_horizon(disc, x0)
        want_u, want_value = dense_qp_solution(disc, x0)
        scale = max(1.0, np.max(np.abs(want_u)))
        assert np.max(np.abs(sol.inputs - want_u)) <= 1e-9 * scale
        assert abs(sol.value - want_value) <= 1e-9 * max(1.0, abs(want_value))


def test_value_equals_rolled_out_cost():
    rng = np.random.default_rng(77)
    model = random_stable_model(rng, n_z=3, horizon=5)
    disc = discretize_expm(model)
    x0 = rng.normal(size=disc.n_x)
    sol = solve_finite_horizon(disc, x0)
    rolled = _total_cost(disc, x0, sol.inputs)
    assert abs(sol.value - rolled) <= 1e-9 * max(1.0, abs(rolled))


def test_dynamics_residual_is_tiny():
    rng = np.random.default_rng(78)
    model = random_stable_model(rng, n_z=3, horizon=4)
    disc = discretize_expm(model)
    sol = solve_finite_horizon(disc, model.x0_mean)
    for k in range(disc.horizon):
        residual = sol.states[k + 1] - disc.a @ sol.states[k] - disc.b @ sol.inputs[k]
        assert np.max(np.abs(residual)) <= 1e-10


def test_perturbing_the_plan_never_helps():
    rng = np.random.default_rng(79)
    model = make_benchmark_model(horizon=6)
    disc = discretize_expm(model)
    x0 = np.array(model.x0_mean)
    sol = solve_finite_horizon(disc, x0)
    base = _total_cost(disc, x0, sol.inputs)
    assert abs(base - sol.value) <= 1e-9 * max(1.0, abs(base))
    for _ in range(50):
        bumped = sol.inputs + 1e-4 * rng.normal(size=sol.inputs.shape)
        assert _total_cost(disc, x0, bumped) >= base - 1e-12


def test_policy_is_affine_in_the_state():
    model = make_benchmark_model(horizon=3)
    disc = discretize_expm(model)
    sol = solve_finite_horizon(disc, [0.0, 1.0])
    for k in range(disc.horizon):
        reconstructed = -sol.gain[k] @ sol.states[k] - sol.offset[k]
        assert np.max(np.abs(reconstructed - sol.inputs[k])) <= 1e-12


def test_discretization_routes_agree_on_the_plan():
    model = make_benchmark_model(horizon=10)
    via_expm = solve_finite_horizon(discretize_expm(model), model.x0_mean)
    via_doubling = solve_finite_horizon(
        discretize_step_doubling(model, scheme="classic_rk4", doublings=12),
        model.x0_mean,
    )
    assert np.max(np.abs(via_expm.inputs - via_doubling.inputs)) <= 1e-8
    assert via_expm.value == pytest.approx(via_doubling.value, rel=1e-6)


def test_indefinite_input_block_is_reported():
    disc = _plain_model([[1.0]], [[1.0]], np.diag([1.0, -1.0]), horizon=1)
    with pytest.raises(ConvexityError, match="positive definite"):
        solve_finite_horizon(disc, [1.0])


def test_inputless_model_is_rejected():
    disc = DiscreteLqModel(
        a=np.eye(1),
        b=np.zeros((1, 0)),
        c=np.eye(1),
        d=np.zeros((1, 0)),
        q=np.eye(1),
        m=np.zeros((1, 1)),
        r_ww=np.zeros((1, 1)),
        t_s=1.0,
        q_k=np.zeros((1, 1)),
        rho_k=np.zeros(1),
    )
    with pytest.raises(ValidationError, match="input"):
        solve_finite_horizon(disc, [1.0])


def test_bad_initial_state_shape_is_rejected():
    disc = _plain_model([[1.0]], [[1.0]], np.eye(2), horizon=1)
    with pytest.raises(ValidationError, match="x0"):
        solve_finite_horizon(disc, [1.0, 2.0])
