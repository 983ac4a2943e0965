import numpy as np
import pytest

from lqdisc import (
    ContinuousLqModel,
    DivergenceError,
    SCHEMES,
    ValidationError,
    discretize_expm,
    discretize_ode,
    discretize_step_doubling,
)
from lqdisc.butcher import precompute
from lqdisc.intervals import compose
from conftest import is_psd, make_benchmark_model, random_stable_model

FIELDS = ("a", "b", "q", "m", "r_ww")


def test_geometric_series_pattern():
    # contrived scalar drift: one explicit-Euler sub-step doubles the state
    model = ContinuousLqModel(
        a_c=[[8.0]], b_c=[[1.0]], g_c=[[0.0]], c_c=[[1.0]], d_c=[[0.0]],
        q_c=[[1.0]], t_s=1.0, inputs=[[0.0]], targets=[[0.0]],
        x0_mean=[0.0], x0_cov=[[0.0]],
    )
    maps = precompute(model, "explicit_euler", 8)
    assert maps.ext[0, 0] == 2.0
    for _ in range(3):
        maps = compose(maps, maps)
    # [[2^8, (1 + 2 + ... + 2^7) * h], [0, 1]] with h = 1/8
    assert np.array_equal(maps.ext, [[256.0, 255.0 * 0.125], [0.0, 1.0]])


def test_zero_doublings_bit_identical_to_single_step(benchmark_model):
    for name in sorted(SCHEMES):
        one = discretize_ode(benchmark_model, scheme=name, n_steps=1)
        sqr = discretize_step_doubling(benchmark_model, scheme=name, doublings=0)
        for field in FIELDS:
            assert np.array_equal(getattr(one, field), getattr(sqr, field)), (
                name, field)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_matches_ode_method_across_doublings(name, benchmark_model):
    for j in range(0, 7):
        ode = discretize_ode(benchmark_model, scheme=name, n_steps=2 ** j)
        sqr = discretize_step_doubling(benchmark_model, scheme=name, doublings=j)
        for field in FIELDS:
            ref = getattr(ode, field)
            scale = max(1.0, np.max(np.abs(ref)))
            diff = np.max(np.abs(getattr(sqr, field) - ref))
            assert diff <= 1e-11 * scale, (name, j, field, diff)


def test_matches_ode_method_on_random_models():
    rng = np.random.default_rng(99)
    for _ in range(5):
        model = random_stable_model(rng, n_x=int(rng.integers(1, 5)), n_u=2)
        for j in (0, 3, 6):
            ode = discretize_ode(model, scheme="esdirk34", n_steps=2 ** j)
            sqr = discretize_step_doubling(model, scheme="esdirk34", doublings=j)
            for field in FIELDS:
                scale = max(1.0, np.max(np.abs(getattr(ode, field))))
                assert np.max(np.abs(getattr(sqr, field) - getattr(ode, field))) \
                    <= 1e-11 * scale


def _squared(seed, times):
    maps = seed
    for _ in range(times):
        maps = compose(maps, maps)
    return maps


def test_accumulators_match_direct_power_sums(benchmark_model):
    # after j squarings the cost and noise maps equal explicit power sums
    seed = precompute(benchmark_model, "implicit_trapezoidal", 2 ** 4)
    maps = _squared(seed, 4)
    r_tilde = seed.cov
    n = 2 ** 4
    n_xu = seed.ext.shape[0]

    lin_direct = np.zeros_like(seed.lin)
    quad_direct = np.zeros((n_xu, n_xu))
    omega_pow = np.eye(n_xu)
    for _ in range(n):
        lin_direct += omega_pow.T @ seed.lin
        quad_direct += omega_pow.T @ seed.quad @ omega_pow
        omega_pow = omega_pow @ seed.ext
    assert np.max(np.abs(maps.ext - omega_pow)) < 1e-11
    assert np.max(np.abs(maps.lin - lin_direct)) < 1e-11
    assert np.max(np.abs(maps.quad - quad_direct)) < 1e-11

    cov_direct = np.zeros((2, 2))
    lam_pow = np.eye(2)
    for _ in range(n):
        cov_direct += lam_pow @ r_tilde @ lam_pow.T
        lam_pow = seed.ext[:2, :2] @ lam_pow
    assert np.max(np.abs(maps.cov - cov_direct)) < 1e-13


def test_psd_throughout(benchmark_model):
    maps = precompute(benchmark_model, "classic_rk4", 2 ** 6)
    for _ in range(6):
        maps = compose(maps, maps)
        assert is_psd(maps.quad)
        assert is_psd(maps.cov)
        # compose does not symmetrize; rounding alone may break symmetry
        for field in (maps.quad, maps.cov):
            assert np.max(np.abs(field - field.T)) <= 1e-14 * np.max(np.abs(field))


def test_divergence_is_clean():
    model = ContinuousLqModel(
        a_c=[[-64000.0]], b_c=[[1.0]], g_c=[[1.0]], c_c=[[1.0]], d_c=[[0.0]],
        q_c=[[1.0]], t_s=1.0, inputs=[[0.0]], targets=[[0.0]],
        x0_mean=[0.0], x0_cov=[[0.0]],
    )
    with pytest.raises(DivergenceError):
        discretize_step_doubling(model, scheme="explicit_euler", doublings=6)


def test_divergence_names_the_first_diverged_iteration():
    model = ContinuousLqModel(
        a_c=[[-64000.0]], b_c=[[1.0]], g_c=[[1.0]], c_c=[[1.0]], d_c=[[0.0]],
        q_c=[[1.0]], t_s=1.0, inputs=[[0.0]], targets=[[0.0]],
        x0_mean=[0.0], x0_cov=[[0.0]],
    )
    with pytest.raises(DivergenceError) as err:
        discretize_step_doubling(model, scheme="explicit_euler", doublings=6)
    assert str(err.value) == (
        "step doubling diverged at iteration 6 (covering 64 sub-steps)"
    )


def test_negative_doublings_rejected(benchmark_model):
    with pytest.raises(ValidationError):
        discretize_step_doubling(benchmark_model, doublings=-1)


def test_doublings_above_the_step_bound_are_refused_before_any_work(
    benchmark_model, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("precompute ran for a refused doubling count")

    monkeypatch.setattr("lqdisc.doubling.precompute", refuse)
    with pytest.raises(ValidationError, match="n_steps") as info:
        discretize_step_doubling(benchmark_model, doublings=21)
    assert "2**20" in str(info.value) and "--method expm" in str(info.value)


def test_doublings_at_the_step_bound_match_the_closed_form(benchmark_model):
    # 2**20 sub-steps is the most the squaring route takes (ode_method.MAX_STEPS)
    got = discretize_step_doubling(benchmark_model, doublings=20)
    want = discretize_expm(benchmark_model)
    for name in FIELDS:
        ref = getattr(want, name)
        err = np.abs(getattr(got, name) - ref).max() / np.abs(ref).max()
        assert err <= 1e-9, (name, err)
