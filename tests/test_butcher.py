import numpy as np
import pytest

from lqdisc import (
    SCHEMES, ContinuousLqModel, SingularMatrixError, ValidationError, discretize_ode, tableau,
)
from lqdisc.butcher import precompute
from lqdisc.linalg import expm

import rk_reference
from conftest import is_psd, make_benchmark_model, random_stable_model


def test_canonical_tableaus():
    ee = tableau("explicit_euler")
    assert ee.stages == 1 and ee.a[0, 0] == 0.0 and ee.b[0] == 1.0
    ie = tableau("implicit_euler")
    assert ie.stages == 1 and ie.a[0, 0] == 1.0 and ie.b[0] == 1.0
    rk4 = tableau("classic_rk4")
    assert rk4.stages == 4
    assert np.array_equal(rk4.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])


def test_unknown_scheme_rejected():
    with pytest.raises(ValidationError):
        tableau("rk45")


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_tableau_consistency(name):
    tab = tableau(name)
    assert abs(tab.b.sum() - 1.0) < 1e-14
    # no entries above the diagonal: every scheme here is at most DIRK
    assert np.all(np.triu(tab.a, k=1) == 0.0)
    if name.startswith("explicit") or name == "classic_rk4":
        assert np.all(np.diag(tab.a) == 0.0)


def test_esdirk34_structure():
    tab = tableau("esdirk34")
    g = tab.a[1, 1]
    assert tab.a[0, 0] == 0.0                 # explicit first stage
    assert tab.a[2, 2] == g and tab.a[3, 3] == g
    assert np.array_equal(tab.a[-1], tab.b)   # stiffly accurate
    assert abs(tab.c[1] - 2.0 * g) < 1e-15
    # third-order conditions
    assert abs(tab.b @ tab.c - 0.5) < 1e-12
    assert abs(tab.b @ tab.c**2 - 1.0 / 3.0) < 1e-12
    assert abs(tab.b @ (tab.a @ tab.c) - 1.0 / 6.0) < 1e-12


def test_precompute_explicit_euler_maps(benchmark_model):
    ext = precompute(benchmark_model, "explicit_euler", 8).ext
    h = benchmark_model.t_s / 8
    assert np.allclose(ext[:2, :2], np.eye(2) + h * benchmark_model.a_c, atol=1e-15)
    # theta = I: the input map is b_bar = h b_c
    assert np.array_equal(ext[:2, 2:], h * benchmark_model.b_c)


def test_precompute_implicit_euler_theta_equals_lam(benchmark_model):
    ext = precompute(benchmark_model, "implicit_euler", 16).ext
    b_bar = benchmark_model.t_s / 16 * benchmark_model.b_c
    assert np.allclose(ext[:2, 2:], ext[:2, :2] @ b_bar, atol=1e-14)


def test_precompute_explicit_trapezoidal_polynomials(benchmark_model):
    ext = precompute(benchmark_model, "explicit_trapezoidal", 4).ext
    h = benchmark_model.t_s / 4
    a = benchmark_model.a_c
    b_bar = h * benchmark_model.b_c
    assert np.allclose(ext[:2, :2], np.eye(2) + h * a + 0.5 * h * h * (a @ a), atol=1e-12)
    assert np.allclose(ext[:2, 2:], (np.eye(2) + 0.5 * h * a) @ b_bar, atol=1e-13)


def test_precompute_rk4_is_truncated_exponential(benchmark_model):
    ext = precompute(benchmark_model, "classic_rk4", 16).ext
    h = benchmark_model.t_s / 16
    ha = h * benchmark_model.a_c
    want = (np.eye(2) + ha + (ha @ ha) / 2.0
            + (ha @ ha @ ha) / 6.0 + (ha @ ha @ ha @ ha) / 24.0)
    assert np.max(np.abs(ext[:2, :2] - want)) < 1e-13


def test_precompute_implicit_trapezoidal_is_cayley(benchmark_model):
    ext = precompute(benchmark_model, "implicit_trapezoidal", 8).ext
    h = benchmark_model.t_s / 8
    a = benchmark_model.a_c
    want = np.linalg.solve(np.eye(2) - 0.5 * h * a, np.eye(2) + 0.5 * h * a)
    assert np.max(np.abs(ext[:2, :2] - want)) < 1e-12


def test_extended_map_block_structure(benchmark_model):
    co = rk_reference.precompute(benchmark_model, "esdirk34", 8)
    n_x, n_u = 2, 2
    assert np.array_equal(co.omega[:n_x, :n_x], co.lam)
    assert np.array_equal(co.omega[:n_x, n_x:], co.theta @ co.b_bar)
    assert np.array_equal(co.omega[n_x:, :n_x], np.zeros((n_u, n_x)))
    assert np.array_equal(co.omega[n_x:, n_x:], np.eye(n_u))
    for lam_i, theta_i, omega_i in zip(co.lam_stages, co.theta_stages,
                                       co.omega_stages):
        assert np.array_equal(omega_i[:n_x, :n_x], lam_i)
        assert np.array_equal(omega_i[:n_x, n_x:], theta_i @ co.b_bar)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_quadratic_increment_is_psd(name, benchmark_model):
    quad = precompute(benchmark_model, name, 32).quad
    assert np.max(np.abs(quad - quad.T)) < 1e-14
    assert is_psd(quad)


@pytest.mark.parametrize("name,order", [
    ("explicit_euler", 1), ("implicit_euler", 1),
    ("explicit_trapezoidal", 2), ("implicit_trapezoidal", 2),
    ("esdirk34", 3), ("classic_rk4", 4),
])
def test_single_step_map_order(name, order):
    # ||lam - expm(h A_c)|| should shrink like h^(p+1) when h halves
    rng = np.random.default_rng(33)
    model = random_stable_model(rng, n_x=3, n_u=1, t_s=1.0)
    rho = max(abs(np.linalg.eigvals(model.a_c)))
    base = max(8, int(np.ceil(2.0 * rho)))  # keep rho * h <= 0.5
    errs = []
    for mult in (1, 2, 4):
        n = base * mult
        lam = precompute(model, name, n).ext[:model.n_x, :model.n_x]
        h = model.t_s / n
        errs.append(np.max(np.abs(lam - expm(h * model.a_c))))
    for e0, e1 in zip(errs, errs[1:]):
        ratio = e0 / e1
        assert 0.7 * 2 ** (order + 1) <= ratio <= 1.4 * 2 ** (order + 1), (
            name, errs)


def test_singular_implicit_stage_is_reported():
    from lqdisc import ContinuousLqModel
    # h = 1 and a_ii = 1 make (I - h a_ii A_c) exactly singular for A_c = I
    model = ContinuousLqModel(
        a_c=[[1.0]], b_c=[[1.0]], g_c=[[0.0]], c_c=[[1.0]], d_c=[[0.0]],
        q_c=[[1.0]], t_s=1.0, inputs=[[0.0]], targets=[[0.0]],
        x0_mean=[0.0], x0_cov=[[0.0]],
    )
    with pytest.raises(SingularMatrixError) as err:
        precompute(model, "implicit_euler", 1)
    assert "stage" in str(err.value)


def _seed_test_models():
    rng = np.random.default_rng(2024)
    return [make_benchmark_model()] + [
        random_stable_model(rng, n_x=n_x, n_u=n_u) for n_x, n_u in ((1, 1), (3, 2), (5, 3))
    ]


@pytest.mark.parametrize("n_steps", [1, 7, 64])
@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_seed_matches_the_state_form_reference(name, n_steps):
    # the extended-drift stage maps against per-stage state maps and their
    # weighted input integrals, rebuilt into extended maps afterwards
    for index, model in enumerate(_seed_test_models()):
        n_x, n_u = model.n_x, model.n_u
        seed = precompute(model, name, n_steps)
        want = rk_reference.rk_seed(rk_reference.precompute(model, name, n_steps))
        for field, value, ref in zip(seed._fields, seed, want):
            assert value.shape == ref.shape, (index, field)
            err = np.abs(value - ref).max()
            assert err <= 1e-14 * np.abs(ref).max(), (index, field, err)
        assert np.array_equal(seed.ext[n_x:, :n_x], np.zeros((n_u, n_x)))
        assert np.array_equal(seed.ext[n_x:, n_x:], np.eye(n_u))


@pytest.mark.parametrize("name", ["esdirk34", "implicit_euler"])
def test_large_input_gain_does_not_make_a_stage_singular(name):
    # the extended stage matrix [[1 + h a_ii, -h a_ii 1e12], [0, 1]] has a
    # 1-norm condition number above 1e23, yet its solve is block
    # back-substitution and loses nothing; the check reads the state block,
    # whose condition number is 1
    model = ContinuousLqModel(
        a_c=[[-1.0]], b_c=[[1e12]], g_c=[[0.0]], c_c=[[1.0]], d_c=[[0.0]],
        q_c=[[1.0]], t_s=1.0, inputs=[[0.0]], targets=[[0.0]],
        x0_mean=[0.0], x0_cov=[[0.0]],
    )
    disc = discretize_ode(model, scheme=name, n_steps=1)
    assert np.isfinite(disc.b).all() and disc.b[0, 0] > 1e11
