import numpy as np
import pytest

from lqdisc import (
    ContinuousLqModel,
    DivergenceError,
    SCHEMES,
    ValidationError,
    discretize_expm,
    discretize_ode,
)
from lqdisc.butcher import precompute
from lqdisc.linalg import expm, symmetrize
from lqdisc.intervals import IntervalMaps, compose, repeat, to_discrete
from lqdisc.ode_method import rk_seed, weighted_conjugation
from conftest import is_psd, make_benchmark_model, random_stable_model
from oracle import oracle_cost


def _per_step_recursion(model, scheme, n_steps):
    """Reference fixed-step recursion with separate transition and input
    accumulators, the stage conjugation applied at every step, and both
    cost and noise accumulators symmetrized at every step.  Kept as the
    definition that :func:`discretize_ode` must reproduce.
    """
    coeffs = precompute(model, scheme, n_steps)
    n_x, n_u = model.n_x, model.n_u
    trans = np.eye(n_x)
    inp = np.zeros((n_x, n_u))
    ext = np.eye(n_x + n_u)
    quad = np.zeros((n_x + n_u, n_x + n_u))
    lin = np.zeros((n_x + n_u, model.n_z))
    cov = np.zeros((n_x, n_x))
    for _ in range(n_steps):
        quad = symmetrize(quad + ext.T @ coeffs.q_bar @ ext)
        lin = lin + ext.T @ coeffs.m_bar
        cov = symmetrize(
            cov + weighted_conjugation(coeffs, trans @ coeffs.r_bar @ trans.T)
        )
        inp = inp + coeffs.theta @ (trans @ coeffs.b_bar)
        trans = coeffs.lam @ trans
        ext = coeffs.omega @ ext
    costs = to_discrete(model, IntervalMaps(ext, quad, lin, cov), "reference")
    return {"a": trans, "b": inp, "q": quad, "m": lin, "r_ww": cov,
            "q_k": costs.q_k, "rho_k": costs.rho_k}


def _recursion_test_models():
    rng = np.random.default_rng(404)
    return [
        make_benchmark_model(horizon=2),
        random_stable_model(rng, n_x=3, n_u=2, n_z=2, horizon=3),
        random_stable_model(rng, n_x=4, n_u=1, n_z=3, horizon=2),
    ]


@pytest.mark.parametrize("n_steps", [1, 2, 7, 64])
@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_matches_the_per_step_recursion(name, n_steps):
    for index, model in enumerate(_recursion_test_models()):
        disc = discretize_ode(model, scheme=name, n_steps=n_steps)
        for field, want in _per_step_recursion(model, name, n_steps).items():
            got = getattr(disc, field)
            assert got.shape == want.shape, (index, field)
            err = np.linalg.norm(got - want)
            assert err <= 1e-12 * np.linalg.norm(want), (index, field, err)


def test_scalar_integrator_closed_form(scalar_integrator):
    disc = discretize_ode(scalar_integrator, scheme="classic_rk4", n_steps=64)
    assert abs(disc.a[0, 0] - 1.0) < 1e-12
    assert abs(disc.b[0, 0] - 1.0) < 1e-12
    assert np.max(np.abs(disc.q - [[1.0, 0.5], [0.5, 1.0 / 3.0]])) < 1e-10
    assert np.max(np.abs(disc.m - [[-1.0], [-0.5]])) < 1e-10


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_pure_noise_covariance_is_sample_time(name):
    model = ContinuousLqModel(
        a_c=[[0.0]], b_c=[[0.0]], g_c=[[1.0]], c_c=[[1.0]], d_c=[[0.0]],
        q_c=[[1.0]], t_s=0.7, inputs=[[0.0]], targets=[[0.0]],
        x0_mean=[0.0], x0_cov=[[0.0]],
    )
    disc = discretize_ode(model, scheme=name, n_steps=16)
    assert abs(disc.r_ww[0, 0] - 0.7) < 1e-13


def test_transition_matches_exponential_on_random_models():
    rng = np.random.default_rng(55)
    for _ in range(10):
        model = random_stable_model(rng, n_x=int(rng.integers(1, 5)), n_u=1)
        disc = discretize_ode(model, scheme="classic_rk4", n_steps=256)
        assert np.max(np.abs(disc.a - expm(model.a_c * model.t_s))) <= 1e-9


def test_semigroup_composition():
    rng = np.random.default_rng(56)
    model = random_stable_model(rng, n_x=3, n_u=2, t_s=0.6)
    double = ContinuousLqModel(
        a_c=model.a_c, b_c=model.b_c, g_c=model.g_c, c_c=model.c_c,
        d_c=model.d_c, q_c=model.q_c, t_s=2 * model.t_s,
        inputs=model.inputs, targets=model.targets,
        x0_mean=model.x0_mean, x0_cov=model.x0_cov,
    )
    one = discretize_ode(model, scheme="esdirk34", n_steps=32)
    two = discretize_ode(double, scheme="esdirk34", n_steps=64)
    assert np.max(np.abs(two.a - one.a @ one.a)) < 1e-10
    assert np.max(np.abs(two.b - (one.a @ one.b + one.b))) < 1e-10


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_cost_weights_are_psd(name, benchmark_model):
    disc = discretize_ode(benchmark_model, scheme=name, n_steps=64)
    assert is_psd(disc.q)
    assert is_psd(disc.r_ww)


def test_affine_terms_follow_targets(benchmark_model):
    disc = discretize_ode(benchmark_model, scheme="classic_rk4", n_steps=32)
    for k in range(benchmark_model.horizon):
        zbar = benchmark_model.targets[k]
        assert np.array_equal(disc.q_k[k], disc.m @ zbar)
        want_rho = 0.5 * zbar @ benchmark_model.q_c @ zbar * benchmark_model.t_s
        assert abs(disc.rho_k[k] - want_rho) < 1e-14


def test_convergence_order_on_random_model():
    rng = np.random.default_rng(57)
    model = random_stable_model(rng, n_x=3, n_u=2, t_s=0.8)
    truth = discretize_expm(model)
    for name, order in (("explicit_euler", 1), ("classic_rk4", 4)):
        errs = []
        for n in (16, 32, 64, 128):
            disc = discretize_ode(model, scheme=name, n_steps=n)
            errs.append(max(np.max(np.abs(disc.a - truth.a)),
                            np.max(np.abs(disc.b - truth.b))))
        fit = np.polyfit(np.log([16, 32, 64, 128]), np.log(errs), 1)
        assert abs(-fit[0] - order) < 0.3, (name, errs)


def test_stage_cost_matches_quadrature():
    rng = np.random.default_rng(58)
    model = random_stable_model(rng, n_x=3, n_u=2, n_z=2, t_s=0.9)
    disc = discretize_ode(model, scheme="classic_rk4", n_steps=2 ** 10)
    for _ in range(20):
        x0 = rng.normal(size=3)
        u0 = rng.normal(size=2)
        zbar = rng.normal(size=2)
        xu = np.concatenate([x0, u0])
        stage = (0.5 * xu @ disc.q @ xu + (disc.m @ zbar) @ xu
                 + 0.5 * zbar @ model.q_c @ zbar * model.t_s)
        ref = oracle_cost(model, x0, u0, zbar)
        assert abs(stage - ref) <= 1e-6 * max(1.0, abs(ref))


def test_divergence_raises_clean_error():
    model = ContinuousLqModel(
        a_c=[[-64000.0]], b_c=[[1.0]], g_c=[[1.0]], c_c=[[1.0]], d_c=[[0.0]],
        q_c=[[1.0]], t_s=1.0, inputs=[[0.0]], targets=[[0.0]],
        x0_mean=[0.0], x0_cov=[[0.0]],
    )
    with pytest.raises(DivergenceError) as err:
        discretize_ode(model, scheme="explicit_euler", n_steps=64)
    assert "step" in str(err.value)


def _stiff_scalar_model():
    return ContinuousLqModel(
        a_c=[[-64000.0]], b_c=[[1.0]], g_c=[[1.0]], c_c=[[1.0]], d_c=[[0.0]],
        q_c=[[1.0]], t_s=1.0, inputs=[[0.0]], targets=[[0.0]],
        x0_mean=[0.0], x0_cov=[[0.0]],
    )


@pytest.mark.parametrize("n_steps, step", [(64, 53), (256, 66), (1000, 88)])
def test_divergence_names_the_first_diverged_step(n_steps, step):
    with pytest.raises(DivergenceError) as err:
        discretize_ode(_stiff_scalar_model(), scheme="explicit_euler", n_steps=n_steps)
    assert str(err.value) == (
        f"scheme 'explicit_euler' diverged at step {step} of {n_steps} "
        f"(step size {1.0 / n_steps:.6g})"
    )


@pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_repeat_matches_a_compose_loop(name, n):
    for index, model in enumerate(_recursion_test_models()):
        seed = rk_seed(precompute(model, name, n))
        want = seed
        for _ in range(n - 1):
            want = compose(want, seed)
        got = repeat(seed, n)
        for field, value, ref in zip(IntervalMaps._fields, got, want):
            assert value.shape == ref.shape, (index, field)
            if n == 1:
                assert np.array_equal(value, ref), (index, field)
            err = np.abs(value - ref).max()
            assert err <= 1e-13 * np.abs(ref).max(), (index, field, err)


def test_repeat_rejects_fewer_than_one_copy(benchmark_model):
    seed = rk_seed(precompute(benchmark_model, "classic_rk4", 4))
    with pytest.raises(ValidationError):
        repeat(seed, 0)


def test_bad_step_count_rejected(benchmark_model):
    with pytest.raises(ValidationError):
        discretize_ode(benchmark_model, scheme="classic_rk4", n_steps=0)


def test_step_count_above_the_bound_rejected_before_any_work(benchmark_model):
    # 2**21 steps would run for seconds; the bound refuses them at once
    with pytest.raises(ValidationError, match=r"n_steps must be <= 1048576") as info:
        discretize_ode(benchmark_model, scheme="classic_rk4", n_steps=2 ** 21)
    assert "--method expm" in str(info.value)


def test_step_count_too_large_for_a_float_rejected(benchmark_model):
    # t_s / n_steps needs n_steps as a float; 2**1024 has none
    with pytest.raises(ValidationError, match="n_steps"):
        discretize_ode(benchmark_model, scheme="classic_rk4", n_steps=2 ** 1024)
