import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from lqdisc import (
    ContinuousLqModel,
    continuous_model_from_dict,
    discretize_expm,
    discretize_ode,
)
from lqdisc.expm_method import expm_seed, noise_trace_integral
from lqdisc.linalg import expm, norm1, pade_squarings
from conftest import is_psd, make_benchmark_model, random_stable_model

BENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def test_scalar_integrator_closed_form(scalar_integrator):
    disc = discretize_expm(scalar_integrator)
    assert abs(disc.a[0, 0] - 1.0) < 1e-14
    assert abs(disc.b[0, 0] - 1.0) < 1e-14
    assert np.max(np.abs(disc.q - [[1.0, 0.5], [0.5, 1.0 / 3.0]])) < 1e-13
    assert np.max(np.abs(disc.m - [[-1.0], [-0.5]])) < 1e-13


def test_zero_diffusion_gives_zero_covariance(scalar_integrator):
    disc = discretize_expm(scalar_integrator)
    assert np.array_equal(disc.r_ww, np.zeros((1, 1)))


def test_benchmark_transition(benchmark_model):
    disc = discretize_expm(benchmark_model)
    want = np.array([[-0.73575876, 0.5518191], [-1.4715176, 1.10363824]])
    assert np.max(np.abs(disc.a - want)) < 5e-8


# The benchmark model's discrete quantities to 20 significant digits, from a
# 50-digit mpmath evaluation of the defining integrals.
BENCHMARK_EXACT = {
    "a": [
        [-7.3575875814475307964e-1, 5.5181909965809770062e-1],
        [-1.471517599088260535, 1.1036382407155725891],
    ],
    "b": [
        [-1.3155955256771116869, 2.0359513749704302017],
        [-2.8076616322837450466, 4.1895498038938748519],
    ],
    "q": [
        [1.2338474776735776512e+1, -9.4768952893539526602, 6.8093810212285482872, -1.1006781029950337963e+1],
        [-9.4768952893539526602, 7.3650244015288192538, -5.1181372471193758463, 8.293940992998531651],
        [6.8093810212285482872, -5.1181372471193758463, 7.4249414650448110358, -9.9784513823170826955],
        [-1.1006781029950337963e+1, 8.293940992998531651, -9.9784513823170826955, 1.653383233498802107e+1],
    ],
    "m": [
        [3.3809586641357955007, 0.0, 0.0],
        [-2.638660170310734268, 0.0, 0.0],
        [2.1777809283889542269, -1.0, 0.0],
        [-3.4751908787022355867, 0.0, -1.0],
    ],
    "r_ww": [
        [2.1162929401209095756e-2, 4.3175531958496525252e-2],
        [4.3175531958496525252e-2, 8.9520998464443833274e-2],
    ],
}


# The benchmark model's within-interval noise cost int_0^1 tr(W Sigma(t)) dt,
# from the drift's eigendecomposition at 50 mpmath digits (an mpmath
# quadrature at 40 digits agrees to 30).
BENCHMARK_NOISE_TRACE = 0.11653953389070025316067


def test_benchmark_against_high_precision_reference(benchmark_model):
    disc = discretize_expm(benchmark_model)
    for field, rows in BENCHMARK_EXACT.items():
        exact = np.array(rows)
        err = np.max(np.abs(getattr(disc, field) - exact)) / np.max(np.abs(exact))
        assert err <= 1e-13, (field, err)


@pytest.mark.parametrize("system", ["wide10", "wide40"])
def test_wide_systems_against_high_precision_reference(system):
    with open(BENCH_DATA / f"{system}.json", encoding="utf-8") as fh:
        model = continuous_model_from_dict(json.load(fh))
    with open(BENCH_DATA / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)[system]
    disc = discretize_expm(model)
    for field, key in (("a", "A"), ("b", "B"), ("q", "Q"), ("m", "M"), ("r_ww", "R_ww")):
        exact = np.array([[float(v) for v in row] for row in reference[key]])
        err = np.max(np.abs(getattr(disc, field) - exact)) / np.max(np.abs(exact))
        assert err <= 1e-13, (field, err)


@pytest.mark.parametrize("system", ["stiff", "wide10", "wide40"])
def test_result_does_not_depend_on_the_units_of_the_kernels(system):
    # The cost and noise blocks are linear in q_c and g_c g_c'; rescaling
    # them must rescale Q, M and R_ww and leave A and B untouched, which
    # holds only if a large kernel does not set the exponentials' squarings.
    with open(BENCH_DATA / f"{system}.json", encoding="utf-8") as fh:
        model = continuous_model_from_dict(json.load(fh))
    base = discretize_expm(model)
    scaled = discretize_expm(
        dataclasses.replace(model, q_c=1e8 * model.q_c, g_c=1e4 * model.g_c)
    )
    assert np.array_equal(scaled.a, base.a) and np.array_equal(scaled.b, base.b)
    for field in ("q", "m", "r_ww"):
        want = getattr(base, field)
        err = np.max(np.abs(getattr(scaled, field) / 1e8 - want)) / np.max(np.abs(want))
        assert err <= 1e-13, (field, err)


def test_block_structure(benchmark_model):
    rng = np.random.default_rng(79)
    models = [benchmark_model] + [
        random_stable_model(rng, n_x=int(rng.integers(1, 6)), n_u=int(rng.integers(1, 3)))
        for _ in range(10)
    ]
    for model in models:
        n_x, n_u = model.n_x, model.n_u
        halvings = pade_squarings(norm1(model.a_c) * model.t_s)
        seed = expm_seed(model, halvings)
        # the extended transition's [0, I] rows are exact, not approximate
        assert np.array_equal(seed.ext[n_x:], np.hstack([np.zeros((n_u, n_x)), np.eye(n_u)]))
        # raw (pre-symmetrization) weight is already nearly symmetric
        q_raw = seed.quad
        assert np.max(np.abs(q_raw - q_raw.T)) <= 1e-13 * np.max(np.abs(q_raw))


def test_agreement_with_ode_method():
    rng = np.random.default_rng(77)
    for _ in range(20):
        model = random_stable_model(
            rng, n_x=int(rng.integers(1, 6)), n_u=int(rng.integers(1, 3)))
        a = discretize_expm(model)
        b = discretize_ode(model, scheme="classic_rk4", n_steps=256)
        for field in ("a", "b", "q", "m", "r_ww"):
            scale = max(1.0, np.max(np.abs(getattr(a, field))))
            diff = np.max(np.abs(getattr(a, field) - getattr(b, field)))
            assert diff < 1e-9 * scale, (field, diff)


def test_noise_covariance_against_quadrature():
    rng = np.random.default_rng(78)
    for _ in range(5):
        model = random_stable_model(rng, n_x=3, n_u=1)
        disc = discretize_expm(model)
        # independent reference: trapezoidal quadrature of the propagated
        # diffusion outer product on a fine grid
        n = 2 ** 14
        dt = model.t_s / n
        gg = model.g_c @ model.g_c.T
        vals = np.empty((n + 1, 3, 3))
        step = expm(model.a_c * dt)
        cur = np.eye(3)
        for i in range(n + 1):
            vals[i] = cur @ gg @ cur.T
            cur = step @ cur
        ref = dt * (vals.sum(axis=0) - 0.5 * (vals[0] + vals[-1]))
        assert np.max(np.abs(disc.r_ww - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))


def test_weights_psd(benchmark_model):
    disc = discretize_expm(benchmark_model)
    assert is_psd(disc.q)
    assert is_psd(disc.r_ww)
    assert np.array_equal(disc.q, disc.q.T)
    assert np.array_equal(disc.r_ww, disc.r_ww.T)


def test_pure_noise_scalar():
    model = ContinuousLqModel(
        a_c=[[0.0]], b_c=[[0.0]], g_c=[[1.0]], c_c=[[1.0]], d_c=[[0.0]],
        q_c=[[1.0]], t_s=1.0, inputs=[[0.0]], targets=[[0.0]],
        x0_mean=[0.0], x0_cov=[[0.0]],
    )
    disc = discretize_expm(model)
    assert abs(disc.r_ww[0, 0] - 1.0) < 1e-14


def test_noise_trace_integral_against_high_precision_reference(benchmark_model):
    got = noise_trace_integral(benchmark_model)
    assert abs(got - BENCHMARK_NOISE_TRACE) <= 1e-14 * BENCHMARK_NOISE_TRACE


def test_noise_trace_integral_closed_forms(scalar_integrator):
    # Brownian motion with cost x^2: E x(t)^2 = t, so J = int_0^1 t dt
    brownian = dataclasses.replace(scalar_integrator, g_c=np.array([[1.0]]))
    assert noise_trace_integral(brownian) == 0.5
    # no noise input at all (n_w = 0)
    quiet = dataclasses.replace(make_benchmark_model(), g_c=np.zeros((2, 0)))
    assert noise_trace_integral(quiet) == 0.0


@pytest.mark.parametrize("system", ["stiff", "wide10", "wide40"])
def test_noise_trace_integral_does_not_depend_on_the_units_of_q_c(system):
    with open(BENCH_DATA / f"{system}.json", encoding="utf-8") as fh:
        model = continuous_model_from_dict(json.load(fh))
    base = noise_trace_integral(model)
    scaled = noise_trace_integral(dataclasses.replace(model, q_c=1e8 * model.q_c))
    assert abs(scaled / 1e8 - base) <= 1e-13 * abs(base)
