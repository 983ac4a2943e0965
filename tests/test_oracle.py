"""Checks that the quadrature reference itself is trustworthy.

The reference is what everything else is judged against, so it gets its own
closed-form and convergence tests here.
"""

import numpy as np
import pytest

from lqdisc.expm_method import discretize_expm
from lqdisc.model import ContinuousLqModel
from conftest import make_benchmark_model, random_stable_model
from oracle import OracleConfig, oracle_cost, oracle_discretize


def _feedthrough_only_model():
    # z = u exactly, no dynamics in the cost path
    return ContinuousLqModel(
        a_c=np.zeros((1, 1)),
        b_c=np.zeros((1, 1)),
        g_c=np.zeros((1, 1)),
        c_c=np.zeros((1, 1)),
        d_c=np.eye(1),
        q_c=np.eye(1),
        t_s=2.0,
        inputs=np.ones((1, 1)),
        targets=np.zeros((1, 1)),
        x0_mean=np.zeros(1),
        x0_cov=np.zeros((1, 1)),
    )


def test_constant_integrand_is_exact():
    model = _feedthrough_only_model()
    # rate == 0.5 * u^2 == 0.5 everywhere, so the integral is 0.5 * t_s
    val = oracle_cost(model, [0.0], [1.0], [0.0], OracleConfig(n_nodes=16))
    assert val == pytest.approx(1.0, abs=1e-14)


def test_scalar_integrator_ramp_cost(scalar_integrator):
    # x(t) = t under u = 1 from x0 = 0; integral of 0.5 t^2 over [0, 1]
    val = oracle_cost(scalar_integrator, [0.0], [1.0], [0.0])
    assert val == pytest.approx(1.0 / 6.0, rel=1e-7)


def test_cost_matches_quadratic_form_of_discretization():
    """The integral equals the quadratic form built from the discrete weights."""
    model = make_benchmark_model()
    disc = discretize_expm(model)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x0 = rng.normal(size=2)
        u0 = rng.normal(size=2)
        target = rng.normal(size=3)
        xu = np.concatenate([x0, u0])
        form = (
            0.5 * xu @ disc.q @ xu
            + (disc.m @ target) @ xu
            + 0.5 * target @ model.q_c @ target * model.t_s
        )
        ref = oracle_cost(model, x0, u0, target)
        assert abs(ref - form) <= 1e-7 * max(1.0, abs(ref))


def test_oracle_discretize_matches_expm_route():
    rng = np.random.default_rng(23)
    model = random_stable_model(rng)
    ref = oracle_discretize(model)
    disc = discretize_expm(model)
    for name in ("a", "b", "q", "m", "r_ww"):
        got = getattr(disc, name)
        want = getattr(ref, name)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-6 * scale, name


def test_static_dynamics_give_identity_transition():
    model = _feedthrough_only_model()
    disc = oracle_discretize(model, OracleConfig(n_nodes=32))
    assert np.array_equal(disc.a, np.eye(1))
    assert np.max(np.abs(disc.b)) == 0.0


def test_node_doubling_converges_at_second_order():
    model = make_benchmark_model()
    x0 = np.array([0.5, -1.0])
    u0 = np.array([1.0, 1.0])
    target = np.array([3.0, 0.0, 0.0])
    truth = oracle_cost(model, x0, u0, target, OracleConfig(n_nodes=2 ** 14))
    errs = [
        abs(oracle_cost(model, x0, u0, target, OracleConfig(n_nodes=n)) - truth)
        for n in (2 ** 7, 2 ** 8, 2 ** 9)
    ]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.4 <= coarse / fine <= 4.6


def test_zero_horizon_weights_on_zero_cost_output():
    """With q_c = 0 the quadratic and linear weights vanish, the maps do not."""
    base = make_benchmark_model()
    model = ContinuousLqModel(
        a_c=base.a_c,
        b_c=base.b_c,
        g_c=base.g_c,
        c_c=base.c_c,
        d_c=base.d_c,
        q_c=np.zeros((3, 3)),
        t_s=base.t_s,
        inputs=base.inputs,
        targets=base.targets,
        x0_mean=base.x0_mean,
        x0_cov=base.x0_cov,
    )
    disc = oracle_discretize(model, OracleConfig(n_nodes=256))
    assert np.max(np.abs(disc.q)) == 0.0
    assert np.max(np.abs(disc.m)) == 0.0
    assert np.max(np.abs(disc.a)) > 0.0
    assert np.max(np.abs(disc.r_ww)) > 0.0
