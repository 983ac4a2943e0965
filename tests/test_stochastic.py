"""Cost moments (materialized and streaming), expected cost, Monte Carlo."""

import dataclasses
import json
import os
import tracemalloc
from concurrent.futures import Future
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from lqdisc import stochastic
from lqdisc.errors import ResourceLimitError, ValidationError
from lqdisc.expm_method import discretize_expm, noise_trace_integral
from lqdisc.linalg import symmetrize
from lqdisc.model import ContinuousLqModel, DiscreteLqModel, continuous_model_from_dict
from lqdisc.sampling import normal_block
from lqdisc.stochastic import (
    STREAMS,
    _BLOCK,
    _CHUNK,
    _WALK_BLOCK,
    _block_streams,
    _mc_plan,
    _noise_block,
    _pathwise_cost,
    _powers,
    _state_blocks,
    _trace_integral,
    cost_moments,
    cost_moments_streaming,
    em_interval_ops,
    em_reformulate,
    expected_costs,
    monte_carlo,
)

from conftest import make_benchmark_model, random_stable_model, stage_cost
from rk_reference import precompute, weighted_conjugation

BENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def pure_noise_model():
    """Scalar Brownian motion, cost 0.5 x^2, unit horizon.

    E x(t)^2 = t, so the expected cost is exactly 1/4; the refinement at
    n sub-steps gives (1/4)(1 + 1/n) in closed form.
    """
    return ContinuousLqModel(
        a_c=[[0.0]], b_c=[[0.0]], g_c=[[1.0]], c_c=[[1.0]], d_c=[[0.0]],
        q_c=[[1.0]], t_s=1.0, inputs=[[0.0]], targets=[[0.0]],
        x0_mean=[0.0], x0_cov=[[0.0]],
    )


def _deterministic_total(disc, x0, inputs):
    x = np.asarray(x0, dtype=float)
    total = 0.0
    for k in range(disc.horizon):
        total += stage_cost(disc, x, inputs[k], k)
        x = disc.a @ x + disc.b @ inputs[k]
    return total


def _with_noise_input(rng, model, n_w):
    """The same model with a random ``n_x`` by ``n_w`` noise-input matrix."""
    return dataclasses.replace(model, g_c=0.3 * rng.normal(size=(model.n_x, n_w)))


def _loop_interval_ops(model, n_sub):
    """Reference definition of every EmIntervalOps field, of the dense
    ``noise_quad`` and of the noise trace integral, one block at a time.

    A direct transcription of the sums over pairs of sub-steps (double
    loop over block lags and columns), kept as the definition that the
    prefix-sum constructions of :func:`em_interval_ops`, ``_noise_block``
    and ``_trace_integral`` must reproduce.
    """
    n_x, n_u, n_z, n_w = model.n_x, model.n_u, model.n_z, model.n_w
    dt = model.t_s / n_sub
    euler = np.eye(n_x) + dt * model.a_c
    powers = np.empty((n_sub + 1, n_x, n_x))
    held = np.empty((n_sub + 1, n_x, n_u))
    powers[0] = np.eye(n_x)
    held[0] = np.zeros((n_x, n_u))
    for i in range(n_sub):
        powers[i + 1] = euler @ powers[i]
        held[i + 1] = euler @ held[i] + dt * model.b_c

    gam = np.empty((n_sub, n_z, n_x + n_u))
    gam[:, :, :n_x] = model.c_c @ powers[1:]
    gam[:, :, n_x:] = model.c_c @ held[1:] + model.d_c

    noise_w = model.c_c.T @ model.q_c @ model.c_c
    f = powers[:n_sub] @ model.g_c
    wf = noise_w @ f
    m_blk = n_sub * n_w
    noise_quad = np.zeros((m_blk, m_blk))
    for lag in range(n_sub):
        terms = np.einsum("kxa,kxb->kab", f[lag:], wf[: n_sub - lag])
        partial = np.cumsum(terms, axis=0)
        for q in range(lag, n_sub):
            block = dt * partial[n_sub - 1 - q]
            p = q - lag
            noise_quad[p * n_w:(p + 1) * n_w, q * n_w:(q + 1) * n_w] = block
            if lag:
                noise_quad[q * n_w:(q + 1) * n_w, p * n_w:(p + 1) * n_w] = block.T
    noise_quad = 0.5 * (noise_quad + noise_quad.T)

    cross = np.empty((n_x + n_u, m_blk))
    out_f = np.einsum("zx,kxw->kzw", model.q_c @ model.c_c, f)
    for q in range(n_sub):
        cross[:, q * n_w:(q + 1) * n_w] = dt * np.einsum(
            "kzr,kzw->rw", gam[q:], out_f[: n_sub - q]
        )

    f_cum = np.cumsum(f, axis=0)
    noise_lin = np.empty((m_blk, n_z))
    for q in range(n_sub):
        noise_lin[q * n_w:(q + 1) * n_w] = (
            -dt * f_cum[n_sub - 1 - q].T @ model.c_c.T @ model.q_c
        )

    gram_g = np.empty((n_sub, n_x, n_w))
    acc = np.zeros((n_x, n_w))
    for r in range(n_sub):
        acc = acc + powers[r].T @ noise_w @ f[r]
        gram_g[r] = acc

    per_node = np.einsum("kxw,xy,kyw->k", f, noise_w, f)
    trace_integral = dt * dt * float(((n_sub - np.arange(n_sub)) * per_node).sum())
    return {
        "dt": dt,
        "powers": powers,
        "held": held,
        "f": f,
        "gram_g": gram_g,
        "noise_map": f[::-1].transpose(1, 0, 2).reshape(n_x, m_blk),
        "cross": cross,
        "noise_quad": noise_quad,
        "noise_lin": noise_lin,
        "trace_integral": trace_integral,
    }


def _dense_noise_quad(ops):
    """``noise_quad`` as a new ``m_blk x m_blk`` array: :func:`_noise_block`
    added into zeros."""
    out = np.zeros((ops.block_dim, ops.block_dim))
    _noise_block(ops, out)
    return out


def _interval_test_models():
    rng = np.random.default_rng(2024)
    one_column = _with_noise_input(
        rng, random_stable_model(rng, n_x=3, n_u=2, n_z=2), n_w=1
    )
    wide_noise = _with_noise_input(
        rng, random_stable_model(rng, n_x=2, n_u=2, n_z=3), n_w=4
    )
    return {
        "benchmark": make_benchmark_model(),
        "one_noise_column": one_column,
        "n_w_above_n_x": wide_noise,
    }


# ---------------------------------------------------------------------------
# within-interval noise refinement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_sub", [1, 2, 3, 17, 64])
@pytest.mark.parametrize("name", ["benchmark", "one_noise_column", "n_w_above_n_x"])
def test_interval_ops_match_the_loop_definition(name, n_sub):
    model = _interval_test_models()[name]
    if name == "n_w_above_n_x":
        assert model.n_w > model.n_x and np.abs(model.d_c).max() > 0.0
    ops = em_interval_ops(model, n_sub)
    want = _loop_interval_ops(model, n_sub)
    want["coarse_a"], want["coarse_b"] = want["powers"][n_sub], want["held"][n_sub]
    want["grad"] = np.vstack([want.pop("cross"), want.pop("noise_lin").T])
    got = {f.name: getattr(ops, f.name) for f in dataclasses.fields(ops)} | {
        "f": ops.f,
        "coarse_a": ops.powers[n_sub],
        "coarse_b": ops.held[n_sub],
        "noise_quad": _dense_noise_quad(ops),
        "trace_integral": _trace_integral(model, ops.dt, ops.powers),
    }
    assert set(got) == set(want)
    assert ops.n_sub == n_sub and ops.dt == want["dt"]
    assert ops.block_dim == n_sub * model.n_w
    for field_name, ref in want.items():
        if field_name == "dt":
            continue
        value = np.asarray(got[field_name])
        ref = np.asarray(ref)
        assert value.shape == ref.shape, field_name
        err = np.abs(value - ref).max()
        assert err <= 1e-12 * np.abs(ref).max(), (field_name, err)


def test_interval_ops_store_one_noise_gradient_and_view_f_in_noise_map():
    ops = em_interval_ops(make_benchmark_model(), 16)
    assert [f.name for f in dataclasses.fields(ops)] == [
        "dt", "powers", "held", "gram_g", "noise_map", "grad",
    ]
    assert np.shares_memory(ops.f, ops.noise_map)
    assert not ops.f.flags.writeable


# ---------------------------------------------------------------------------
# materialized quadratic form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_sub", [1, 4, 64, 256])
def test_pure_noise_mean_closed_form(n_sub):
    model = pure_noise_model()
    mean, _ = cost_moments(em_reformulate(model, n_sub))
    assert mean == 0.25 * (1.0 + 1.0 / n_sub)


def test_pure_noise_variance_limit_and_halving():
    model = pure_noise_model()
    errs = []
    for n_sub in (256, 512, 1024):
        _, var = cost_moments(em_reformulate(model, n_sub))
        errs.append(abs(var - 1.0 / 12.0))
    assert errs[-1] < 2e-3
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.7 <= coarse / fine <= 2.4


def test_zero_noise_moments_collapse_to_deterministic():
    model = make_benchmark_model(horizon=3)
    quiet = ContinuousLqModel(
        a_c=model.a_c, b_c=model.b_c, g_c=np.zeros((2, 2)),
        c_c=model.c_c, d_c=model.d_c, q_c=model.q_c, t_s=model.t_s,
        inputs=model.inputs, targets=model.targets,
        x0_mean=model.x0_mean, x0_cov=np.zeros((2, 2)),
    )
    disc = discretize_expm(quiet)
    mean, var = cost_moments(em_reformulate(quiet, 16))
    det = _deterministic_total(disc, quiet.x0_mean, quiet.inputs)
    assert abs(mean - det) <= 1e-10 * max(1.0, abs(det))
    assert abs(var) <= 1e-12 * max(1.0, det ** 2)


def _p_bar(ref):
    """Materialized covariance of [x0; W]: ``blockdiag(x0_cov, dt I)``."""
    n_x = ref.n_x
    out = np.zeros((ref.dim, ref.dim))
    out[:n_x, :n_x] = ref.model.x0_cov
    idx = np.arange(n_x, ref.dim)
    out[idx, idx] = ref.dt
    return out


def test_reformulation_spine_is_the_exact_discretization():
    model = make_benchmark_model(horizon=2)
    ref = em_reformulate(model, 8)
    disc = discretize_expm(model)
    assert np.array_equal(ref.disc.a, disc.a)
    assert np.array_equal(ref.disc.b, disc.b)
    n_x = model.n_x
    assert np.array_equal(ref.m_bar[:n_x], np.asarray(model.x0_mean))
    assert np.max(np.abs(ref.m_bar[n_x:])) == 0.0
    pbar = _p_bar(ref)
    assert np.array_equal(pbar[:n_x, :n_x], np.asarray(model.x0_cov))
    tail = np.diag(pbar)[n_x:]
    assert np.all(tail == ref.dt)


def test_dimension_cap_is_enforced():
    model = make_benchmark_model(horizon=1)
    # 2 + 1 * 4096 * 2 = 8194 > 4096
    with pytest.raises(ResourceLimitError, match="cap"):
        em_reformulate(model, 4096)
    # custom cap trips earlier
    with pytest.raises(ResourceLimitError, match="cap"):
        em_reformulate(model, 8, dim_cap=10)
    # boundary fits: 2 + 8 * 2 = 18
    ref = em_reformulate(model, 8, dim_cap=18)
    assert ref.dim == 18


# ---------------------------------------------------------------------------
# streaming moments
# ---------------------------------------------------------------------------

def test_streaming_matches_materialized_small():
    rng = np.random.default_rng(888)
    for _ in range(5):
        model = random_stable_model(
            rng, n_x=int(rng.integers(1, 4)), n_u=1, n_z=2,
            horizon=int(rng.integers(1, 5)),
        )
        ref = em_reformulate(model, 8)
        want = cost_moments(ref)
        got = cost_moments_streaming(model, 8)
        assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n_sub", [1, 8])
def test_streaming_matches_materialized_with_n_w_unlike_n_x(n_sub):
    rng = np.random.default_rng(4711)
    for n_x, n_w in ((1, 3), (2, 1), (3, 5), (3, 2)):
        model = _with_noise_input(
            rng,
            random_stable_model(
                rng, n_x=n_x, n_u=2, n_z=2, horizon=int(rng.integers(2, 7))
            ),
            n_w,
        )
        # per-step inputs and targets differ from step to step
        assert np.ptp(model.inputs, axis=0).min() > 0.0
        assert np.ptp(model.targets, axis=0).min() > 0.0
        want = cost_moments(em_reformulate(model, n_sub))
        got = cost_moments_streaming(model, n_sub)
        assert got[0] == pytest.approx(want[0], rel=1e-10)
        assert got[1] == pytest.approx(want[1], rel=1e-10)


def test_streaming_matches_materialized_benchmark():
    model = make_benchmark_model(horizon=4)
    want = cost_moments(em_reformulate(model, 64))
    got = cost_moments_streaming(model, 64)
    assert got[0] == pytest.approx(want[0], rel=1e-10)
    assert got[1] == pytest.approx(want[1], rel=1e-10)


def test_streaming_handles_sizes_past_the_cap():
    model = make_benchmark_model(horizon=8)
    # materialized would need 2 + 8 * 512 * 2 = 8194 entries per side
    with pytest.raises(ResourceLimitError):
        em_reformulate(model, 512)
    mean, var = cost_moments_streaming(model, 512)
    assert np.isfinite(mean) and np.isfinite(var) and var > 0.0


# ---------------------------------------------------------------------------
# state walk and expected cost
# ---------------------------------------------------------------------------

def _walk_states(model, disc, step_cov):
    """Every state mean and covariance of :func:`_state_blocks`, steps
    0 .. horizon, with the blocks checked to tile the horizon."""
    powers = _powers(disc.a, min(model.horizon, _WALK_BLOCK))
    blocks = list(_state_blocks(powers, model, disc, step_cov))
    starts = [start for start, *_ in blocks]
    assert starts == list(range(0, model.horizon, _WALK_BLOCK))
    assert [stop for _, stop, *_ in blocks] == starts[1:] + [model.horizon]
    for start, stop, means, covs in blocks:
        assert len(means) == len(covs) == stop - start + 1
    means = np.concatenate([m[:-1] for _, _, m, _ in blocks] + [blocks[-1][2][-1:]])
    covs = np.concatenate([c[:-1] for *_, c in blocks] + [blocks[-1][3][-1:]])
    return means, covs


def test_propagate_covariance_scalar_recursion():
    disc = DiscreteLqModel(
        a=[[0.5]], b=[[1.0]], c=[[1.0]], d=[[0.0]],
        q=np.eye(2), m=np.zeros((2, 1)), r_ww=[[0.75]], t_s=1.0,
        q_k=np.zeros((1, 2)), rho_k=np.zeros(1),
    )
    model = dataclasses.replace(pure_noise_model(), inputs=np.zeros((3, 1)),
                                targets=np.zeros((3, 1)), x0_cov=[[1.0]])
    _, covs = _walk_states(model, disc, disc.r_ww)
    # P_{k+1} = P_k / 4 + 3/4 has fixed point 1
    assert covs.shape == (4, 1, 1)
    assert np.allclose(covs[:, 0, 0], 1.0, atol=1e-15)
    _, ramp = _walk_states(dataclasses.replace(model, x0_cov=[[0.0]]), disc, disc.r_ww)
    assert ramp[1, 0, 0] == 0.75
    assert ramp[2, 0, 0] == 0.75 + 0.75 / 4.0


def test_expected_cost_zero_noise_reduces_to_deterministic():
    model = make_benchmark_model(horizon=3)
    quiet = ContinuousLqModel(
        a_c=model.a_c, b_c=model.b_c, g_c=np.zeros((2, 2)),
        c_c=model.c_c, d_c=model.d_c, q_c=model.q_c, t_s=model.t_s,
        inputs=model.inputs, targets=model.targets,
        x0_mean=model.x0_mean, x0_cov=np.zeros((2, 2)),
    )
    disc = discretize_expm(quiet)
    det = _deterministic_total(disc, quiet.x0_mean, quiet.inputs)
    values = expected_costs(quiet)
    assert set(values) == {"ode", "em"}
    for val in values.values():
        assert val == pytest.approx(det, rel=1e-10)


def test_expected_cost_pure_noise_quarter():
    model = pure_noise_model()
    assert expected_costs(model)["ode"] == 0.25     # the noise integral is exact
    assert expected_costs(model, n_sub=64)["em"] == (
        pytest.approx(0.25 * (1.0 + 1.0 / 64.0), abs=1e-12)
    )


def test_expected_cost_routes_converge_to_each_other():
    model = make_benchmark_model(horizon=4)
    ode_val = expected_costs(model)["ode"]
    gaps = [
        abs(ode_val - expected_costs(model, n_sub=n)["em"])
        for n in (64, 128, 256)
    ]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.7 <= coarse / fine <= 2.4


def test_expected_cost_em_route_approaches_reformulation_mean():
    """Trace route and reformulation mean differ at first order in the
    sub-step (exact vs refined interval covariance) and meet in the limit."""
    model = make_benchmark_model(horizon=4)
    gaps = []
    for n_sub in (32, 64, 128):
        via_trace = expected_costs(model, n_sub=n_sub)["em"]
        via_form, _ = cost_moments(em_reformulate(model, n_sub))
        gaps.append(abs(via_trace - via_form))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.7 <= coarse / fine <= 2.4


@pytest.mark.parametrize("n_sub", [16, 64, 256])
def test_expected_cost_em_route_is_the_streaming_mean_at_one_interval(n_sub):
    # at H = 1 the covariance walk reads x0_cov only, so the exact and the
    # refined interval covariances give the same mean
    model = make_benchmark_model(horizon=1)
    via_trace = expected_costs(model, n_sub=n_sub)["em"]
    via_stream, _ = cost_moments_streaming(model, n_sub)
    assert abs(via_trace - via_stream) <= 1e-14 * abs(via_stream)


def test_expected_costs_walk_the_horizon_once_for_both_routes(monkeypatch):
    model = make_benchmark_model(horizon=6)
    want = expected_costs(model, n_sub=17)
    walks = []
    walk = stochastic._state_blocks
    monkeypatch.setattr(
        stochastic, "_state_blocks", lambda *args: walks.append(1) or walk(*args)
    )
    assert expected_costs(model, n_sub=17) == want
    assert len(walks) == 1


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_zero_noise_single_sim_hits_deterministic():
    model = make_benchmark_model(horizon=2)
    quiet = ContinuousLqModel(
        a_c=model.a_c, b_c=model.b_c, g_c=np.zeros((2, 2)),
        c_c=model.c_c, d_c=model.d_c, q_c=model.q_c, t_s=model.t_s,
        inputs=model.inputs, targets=model.targets,
        x0_mean=model.x0_mean, x0_cov=np.zeros((2, 2)),
    )
    disc = discretize_expm(quiet)
    summary = monte_carlo(quiet, 16, 1, seed=0)
    det = _deterministic_total(disc, quiet.x0_mean, quiet.inputs)
    for stream, val in summary.sample_mean.items():
        assert abs(val - det) <= 1e-8 * max(1.0, abs(det)), stream
        assert summary.sample_var[stream] == 0.0


def test_monte_carlo_streams_are_the_same_random_variable():
    model = make_benchmark_model(horizon=2)
    summary = monte_carlo(model, 32, 4096, seed=3)
    means = summary.sample_mean
    scale = abs(means["em_form"])
    assert abs(means["discrete"] - means["em_form"]) <= 1e-10 * scale
    assert abs(means["continuous"] - means["em_form"]) <= 1e-10 * scale
    for pair, corr in summary.correlations.items():
        assert corr >= 0.999999, pair


def test_monte_carlo_pure_noise_recovers_analytic_moments():
    model = pure_noise_model()
    analytic_mean, analytic_var = cost_moments_streaming(model, 64)
    n_sims = 8192
    summary = monte_carlo(model, 64, n_sims, seed=7)
    se_mean = np.sqrt(analytic_var / n_sims)
    # chi-squared-type cost: spread of the sample variance needs kurtosis;
    # 5 relative standard errors with the Gaussian-quadratic excess ~ sqrt(2)
    for stream in summary.sample_mean:
        assert abs(summary.sample_mean[stream] - analytic_mean) <= 3.0 * se_mean
        assert abs(summary.sample_var[stream] - analytic_var) <= (
            5.0 * analytic_var * np.sqrt(8.0 / n_sims)
        )
    assert summary.analytic_mean == analytic_mean
    assert summary.analytic_var == analytic_var
    exact = cost_moments(em_reformulate(model, 64))
    assert abs(analytic_mean - exact[0]) <= 1e-12 * abs(exact[0])
    assert abs(analytic_var - exact[1]) <= 1e-12 * abs(exact[1])


def test_monte_carlo_identical_across_worker_counts():
    model = make_benchmark_model(horizon=1)
    one = monte_carlo(model, 16, 5000, seed=11, workers=1)
    three = monte_carlo(model, 16, 5000, seed=11, workers=3)
    assert one.to_dict() == three.to_dict()


def test_monte_carlo_starts_at_most_one_thread_per_block_and_cpu(monkeypatch):
    # three blocks and a huge workers value: the pool is bounded by the
    # blocks and the usable CPUs, and the recording pool runs the blocks
    # in this thread, so the test itself starts no thread
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            done = Future()
            done.set_result(fn(job))
            return done

    monkeypatch.setattr(stochastic, "ThreadPoolExecutor", RecordingPool)
    model = make_benchmark_model(horizon=1)
    many = monte_carlo(model, 4, 3 * _BLOCK, seed=2, workers=10 ** 6)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    bound = min(3, cpus)
    assert pools == ([bound] if bound > 1 else [])
    assert many.to_dict() == monte_carlo(model, 4, 3 * _BLOCK, seed=2).to_dict()


def test_monte_carlo_histogram_counts_every_sample():
    model = make_benchmark_model(horizon=1)
    summary = monte_carlo(model, 16, 3000, seed=5)
    edges = summary.histogram["edges"]
    assert len(edges) == 61
    for stream, counts in summary.histogram["counts"].items():
        assert len(counts) == 60
        # 6-sigma window: nothing should fall outside for this size
        assert sum(counts) == 3000, stream


def test_monte_carlo_rejects_bad_arguments():
    model = make_benchmark_model(horizon=1)
    with pytest.raises(ValidationError, match="n_sims"):
        monte_carlo(model, 8, 0, seed=0)
    with pytest.raises(ValidationError, match="workers"):
        monte_carlo(model, 8, 10, seed=0, workers=0)
    with pytest.raises(ValidationError, match="n_bins must be >= 1, got 0"):
        monte_carlo(model, 8, 10, seed=0, n_bins=0)


# ---------------------------------------------------------------------------
# Monte Carlo and moment kernels against their direct definitions
# ---------------------------------------------------------------------------

def _loop_pathwise_cost(model, n_sub, starts, noise):
    """Reference for the pathwise stream: one Euler sub-step per iteration.

    Advances the drift and the noise deviation side by side and sums the
    deviation-dependent cost at every right-end node, as ``(quad, lin)``:
    the part quadratic in the deviation and the part linear in it.
    """
    dt = model.t_s / n_sub
    m_blk = n_sub * model.n_w
    euler_t = (np.eye(model.n_x) + dt * model.a_c).T
    quad = np.zeros(noise.shape[0])
    lin = np.zeros(noise.shape[0])
    for k, x in enumerate(starts):
        u, target = model.inputs[k], model.targets[k]
        increments = noise[:, k * m_blk:(k + 1) * m_blk].reshape(len(x), n_sub, model.n_w)
        drift = x.copy()
        dev = np.zeros_like(x)
        for i in range(n_sub):
            drift = drift @ euler_t + dt * (u @ model.b_c.T)
            dev = dev @ euler_t + increments[:, i, :] @ model.g_c.T
            z_det = drift @ model.c_c.T + (model.d_c @ u - target)
            dz = dev @ model.c_c.T
            quad += 0.5 * dt * np.einsum("ri,ri->r", dz @ model.q_c, dz)
            lin += dt * np.einsum("ri,ri->r", z_det @ model.q_c, dz)
    return quad, lin


def _hstack_cost_moments(ref):
    """Reference moments through the ``dim x dim`` product ``q_big P``."""
    n_x = ref.n_x
    q_big, q_vec, m_bar = ref.q_big, ref.q_vec, ref.m_bar
    qm = q_big[:, :n_x] @ m_bar[:n_x]
    trace_qp = float(
        np.einsum("ij,ji->", q_big[:n_x, :n_x], ref.model.x0_cov)
    ) + ref.dt * float(np.trace(q_big[n_x:, n_x:]))
    mean = (
        0.5 * float(m_bar[:n_x] @ qm[:n_x])
        + float(q_vec @ m_bar)
        + ref.rho
        + 0.5 * trace_qp
    )
    lin = qm + q_vec
    p_lin = np.concatenate([ref.model.x0_cov @ lin[:n_x], ref.dt * lin[n_x:]])
    qp = np.hstack([q_big[:, :n_x] @ ref.model.x0_cov, ref.dt * q_big[:, n_x:]])
    var = float(lin @ p_lin) + 0.5 * float(np.einsum("ij,ji->", qp, qp))
    return mean, var


def _starts_and_noise(rng, model, n_sub, reps=48):
    starts = [rng.normal(size=(reps, model.n_x)) for _ in range(model.horizon)]
    noise = rng.normal(size=(reps, model.horizon * n_sub * model.n_w))
    return starts, noise * np.sqrt(model.t_s / n_sub)


@pytest.mark.parametrize("n_sub", [1, 7, 16, 17, 256])
@pytest.mark.parametrize("name", ["benchmark", "n_w_above_n_x"])
def test_pathwise_stream_matches_the_sub_step_loop(name, n_sub):
    rng = np.random.default_rng(n_sub)
    model = _interval_test_models()[name]
    model = dataclasses.replace(
        model,
        inputs=rng.normal(size=(3, model.n_u)),
        targets=rng.normal(size=(3, model.n_z)),
    )
    starts, noise = _starts_and_noise(rng, model, n_sub)
    ops = em_interval_ops(model, n_sub)
    plan, m_blk = _mc_plan(model, n_sub), ops.block_dim
    normals = noise / np.sqrt(ops.dt)
    got = sum(
        sum(_pathwise_cost(plan, k, x, normals[:, k * m_blk:(k + 1) * m_blk], np.zeros(len(x))))
        for k, x in enumerate(starts)
    )
    want = sum(_loop_pathwise_cost(model, n_sub, starts, noise))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _em_panel_refs():
    """Materialized forms for the Monte Carlo pieces: the benchmark model,
    one noise column, ``n_sub = 1`` (``m_blk <= n_x``), a wider random
    model, one interval (no block below the diagonal) and no noise at
    all."""
    rng = np.random.default_rng(17)
    model = make_benchmark_model(horizon=4)
    wide = _with_noise_input(rng, random_stable_model(rng, n_x=5, horizon=3), n_w=2)
    return {
        "benchmark": em_reformulate(model, 16),
        "n_w_1": em_reformulate(dataclasses.replace(model, g_c=model.g_c[:, :1]), 16),
        "n_sub_1": em_reformulate(model, 1),
        "n_x_5_n_w_2": em_reformulate(wide, 8),
        "one_interval": em_reformulate(make_benchmark_model(horizon=1), 16),
        "noise_free": em_reformulate(dataclasses.replace(model, g_c=model.g_c[:, :0]), 16),
    }


_EM_FORM_CASES = ["1-8", "3-16", "4-5", "10-8", *_em_panel_refs()]


def _em_form_ref(case):
    """The reformulation named by ``case``: ``"horizon-n_sub"`` of the
    benchmark model, or a key of :func:`_em_panel_refs`."""
    refs = _em_panel_refs()
    if case not in refs:
        horizon, n_sub = map(int, case.split("-"))
        refs[case] = em_reformulate(make_benchmark_model(horizon=horizon), n_sub)
    return refs[case]


def _dense_em_form(ref, normals):
    """The quadratic form at ``chi = [x0; sqrt(dt) z]`` for rows ``[x0; z]``
    of ``normals``, through the dense ``q_big``."""
    chi = normals.copy()
    chi[:, ref.n_x:] *= np.sqrt(ref.dt)
    return 0.5 * np.einsum("ri,ri->r", chi @ ref.q_big, chi) + chi @ ref.q_vec + ref.rho


def _stream_views(plan, normals):
    """The ``(x0, z)`` that a Monte Carlo block of ``plan`` hands to
    :func:`_block_streams`, for replicates given as rows ``[x0; z_0; ..;
    z_{H-1}]`` of ``normals``: one buffer in stream order (every row's
    ``x0``, then every row's ``z_0``, and so on), with ``x0`` its ``(reps,
    n_x)`` view and ``z[k]`` the ``(reps, m_blk)`` view of interval ``k``."""
    n_x, horizon, m_blk = plan.model.n_x, plan.model.horizon, plan.ops.block_dim
    reps = len(normals)
    noise = normals[:, n_x:].reshape(reps, horizon, m_blk).transpose(1, 0, 2)
    draws = np.concatenate([normals[:, :n_x].ravel(), noise.ravel()])
    return draws[:reps * n_x].reshape(reps, n_x), draws[reps * n_x:].reshape(horizon, reps, m_blk)


@pytest.mark.parametrize("case", _EM_FORM_CASES)
def test_em_form_matches_the_dense_quadratic_form(case):
    ref = _em_form_ref(case)
    rng = np.random.default_rng(ref.model.horizon)
    normals = rng.normal(size=(40, ref.dim))
    want = _dense_em_form(ref, normals)
    plan = _mc_plan(ref.model, ref.n_sub)
    got = _block_streams(plan, *_stream_views(plan, normals))["em_form"]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _loop_reformulation(model, n_sub):
    """Reference ``(q_big, q_vec, rho)``: a forward walk over the stages.

    Carries the chi-dependence of ``[x_k; u_k]`` (the ``x0`` columns and
    one noise block per past interval) and adds each stage's cost into
    the whole active square of ``q_big``, then symmetrizes.
    """
    disc = discretize_expm(model)
    ops = em_interval_ops(model, n_sub)
    noise_quad = _dense_noise_quad(ops)
    n_x, n_u, m_blk = model.n_x, model.n_u, ops.block_dim
    cross, noise_lin = ops.grad[:n_x + n_u], ops.grad[n_x + n_u:].T
    dim = n_x + model.horizon * m_blk
    q_big = np.zeros((dim, dim))
    q_vec = np.zeros(dim)
    rho = 0.0
    carrier = np.zeros((n_x + n_u, dim))
    carrier[:n_x, :n_x] = np.eye(n_x)
    shift = np.zeros(n_x + n_u)
    for k in range(model.horizon):
        blk = slice(n_x + k * m_blk, n_x + (k + 1) * m_blk)
        active = slice(0, n_x + k * m_blk)
        shift[n_x:] = model.inputs[k]
        l_act = carrier[:, active]
        q_big[active, active] += l_act.T @ (disc.q @ l_act)
        q_big[active, blk] += l_act.T @ cross
        q_big[blk, active] += cross.T @ l_act
        q_big[blk, blk] += noise_quad
        q_vec[active] += l_act.T @ (disc.q @ shift + disc.q_k[k])
        q_vec[blk] += cross.T @ shift + noise_lin @ model.targets[k]
        rho += (
            0.5 * float(shift @ disc.q @ shift)
            + float(disc.q_k[k] @ shift)
            + float(disc.rho_k[k])
        )
        carrier[:n_x] = disc.a @ carrier[:n_x]
        carrier[:n_x, blk] = ops.noise_map
        shift[:n_x] = disc.a @ shift[:n_x] + disc.b @ model.inputs[k]
    return symmetrize(q_big), q_vec, rho


@pytest.mark.parametrize("case", _EM_FORM_CASES)
def test_em_reformulate_matches_the_carrier_loop(case):
    ref = _em_form_ref(case)
    q_big, q_vec, rho = _loop_reformulation(ref.model, ref.n_sub)
    assert np.array_equal(ref.q_big, ref.q_big.T)
    assert np.abs(ref.q_big - q_big).max() <= 1e-13 * np.abs(q_big).max()
    assert np.abs(ref.q_vec - q_vec).max() <= 1e-13 * np.abs(q_vec).max()
    assert abs(ref.rho - rho) <= 1e-13 * abs(rho)


def test_em_reformulate_long_horizon_matches_the_carrier_loop():
    # the chi-free state means come from a doubling scan over 500 steps
    ref = em_reformulate(make_benchmark_model(horizon=500), 1)
    _, q_vec, rho = _loop_reformulation(ref.model, 1)
    assert np.abs(ref.q_vec - q_vec).max() <= 1e-12 * np.abs(q_vec).max()
    assert abs(ref.rho - rho) <= 1e-12 * abs(rho)


def _refuse_build(*args, **kwargs):
    raise AssertionError("built before the request's size was checked")


def test_em_reformulate_refuses_an_unallocatable_q_big_before_other_work(monkeypatch):
    # q_big at dimension 2 + 2**23 is about 512 TiB, more than a 47-bit
    # address space: refused under any overcommit policy, before the
    # interval ops at n_sub 2**22 are built
    def refuse(*args, **kwargs):
        raise AssertionError("interval ops built before q_big was reserved")

    monkeypatch.setattr(stochastic, "em_interval_ops", refuse)
    with pytest.raises(ResourceLimitError, match=r"dimension 8388610 needs [0-9.]+ GiB"):
        em_reformulate(make_benchmark_model(horizon=1), 2 ** 22, dim_cap=2 ** 24)


def test_em_reformulate_refusals_point_to_the_library_not_the_cli(monkeypatch):
    # no command calls em_reformulate, so neither refusal names a flag
    monkeypatch.setattr(stochastic, "em_interval_ops", _refuse_build)
    messages = []
    for n_sub, dim_cap in ((4096, stochastic.DEFAULT_DIM_CAP), (2 ** 22, 2 ** 24)):
        with pytest.raises(ResourceLimitError) as info:
            em_reformulate(make_benchmark_model(horizon=1), n_sub, dim_cap=dim_cap)
        messages.append(str(info.value))
    assert "exceeds the cap" in messages[0] and "could not be allocated" in messages[1]
    for message in messages:
        assert "--" not in message, message
        assert "cost_moments_streaming(model, n_sub)" in message, message


@pytest.mark.parametrize("case", list(_em_panel_refs()))
def test_mc_plan_factors_rebuild_the_blocks_below_the_diagonal(case):
    # block (j, k) below the diagonal is R_j a^(j-k-1) noise_map, and the
    # x0 column of block row j is R_j a^j
    ref = _em_panel_refs()[case]
    n_x, m_blk, q_big = ref.n_x, ref.ops.block_dim, ref.q_big
    plan = _mc_plan(ref.model, ref.n_sub)
    factors, a = plan.stages.factors, plan.disc.a
    assert factors.shape == (ref.model.horizon, m_blk, n_x)
    tol = 1e-13 * np.abs(q_big).max()
    for j, r_j in enumerate(factors):
        rows = slice(n_x + j * m_blk, n_x + (j + 1) * m_blk)
        x0_col = r_j @ np.linalg.matrix_power(a, j)
        assert np.abs(q_big[rows, :n_x] - x0_col).max(initial=0.0) <= tol, j
        for k in range(j):
            cols = slice(n_x + k * m_blk, n_x + (k + 1) * m_blk)
            rebuilt = r_j @ np.linalg.matrix_power(a, j - k - 1) @ ref.ops.noise_map
            assert np.abs(q_big[rows, cols] - rebuilt).max(initial=0.0) <= tol, (j, k)


@pytest.mark.parametrize("n_sub, dim_cap, match", [
    (4096, stochastic.DEFAULT_DIM_CAP, r"dimension 8194 .*exceeds the cap 4096"),
    (2 ** 22, 2 ** 24, r"dimension 8388610 .*exceeds the cap 2097152"),
], ids=["dim_cap", "draw_budget"])
def test_monte_carlo_refuses_a_dim_above_its_caps_before_other_work(
    monkeypatch, n_sub, dim_cap, match
):
    # 2048 x dim draws per block: refused before the interval ops at
    # n_sub 2**22 are built
    def refuse(*args, **kwargs):
        raise AssertionError("interval ops built before the size was checked")

    monkeypatch.setattr(stochastic, "em_interval_ops", refuse)
    with pytest.raises(ResourceLimitError, match=match):
        monte_carlo(make_benchmark_model(horizon=1), n_sub, 1, seed=0, dim_cap=dim_cap)


@pytest.mark.parametrize("reps", [511, 513, 1031])
@pytest.mark.parametrize("n_w", [2, 0])
def test_em_form_matches_the_dense_quadratic_form_across_row_chunks(reps, n_w):
    rng = np.random.default_rng(reps)
    model = make_benchmark_model(horizon=3)
    model = dataclasses.replace(model, g_c=model.g_c[:, :n_w])
    ref = em_reformulate(model, 4)
    normals = rng.normal(size=(reps, ref.dim))
    want = _dense_em_form(ref, normals)
    plan = _mc_plan(ref.model, ref.n_sub)
    got = _block_streams(plan, *_stream_views(plan, normals))["em_form"]
    assert got.shape == (reps,)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n_sub, n_w", [
    (1, 2), (_CHUNK - 1, 2), (_CHUNK, 2), (13, 2), (16 * _CHUNK + 3, 2), (13, 0),
])
def test_em_form_matches_the_dense_quadratic_form_across_chunks(n_sub, n_w):
    # em_form's scan of noise_quad walks n_sub sub-steps _CHUNK at a time:
    # one partial chunk, one full one, a partial last chunk after full
    # ones, and no noise at all
    model = make_benchmark_model(horizon=2)
    ref = em_reformulate(dataclasses.replace(model, g_c=model.g_c[:, :n_w]), n_sub)
    plan = _mc_plan(ref.model, ref.n_sub)
    normals = np.random.default_rng(n_sub).normal(size=(40, ref.dim))
    want = _dense_em_form(ref, normals)
    got = _block_streams(plan, *_stream_views(plan, normals))["em_form"]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_mc_plan_holds_no_m_blk_by_m_blk_array():
    # H = 1, n_sub 2047, n_w 2: m_blk 4094, where a dense noise_quad would
    # take 128 MiB; the plan's peak stays under 64 m_blk n_x^2 doubles
    model = make_benchmark_model(horizon=1)
    assert model.n_w == 2
    peak = _traced_peak(lambda: _mc_plan(model, 2047))
    assert peak < 64 * 2047 * model.n_w * model.n_x ** 2 * 8, peak / 2 ** 20


class _IntervalLog(np.ndarray):
    """Draws ``z`` (``z[k]`` interval ``k``'s) that log the first index of
    every item taken of them; what an item returns is a plain array and
    logs nothing."""

    def __getitem__(self, key):
        self.log.append(key[0] if isinstance(key, tuple) else key)
        return super().__getitem__(key).view(np.ndarray)


@pytest.mark.parametrize("case", ["3-16", "10-8", "n_sub_1", "n_x_5_n_w_2"])
def test_block_streams_read_the_draws_in_stream_order(case):
    # a block walks its intervals once, k = 0 .. H-1: every item taken of
    # the draws is one interval's, and the intervals never go back
    ref = _em_form_ref(case)
    plan = _mc_plan(ref.model, ref.n_sub)
    x0, z = _stream_views(plan, np.random.default_rng(3).normal(size=(1031, ref.dim)))
    z = z.view(_IntervalLog)
    z.log = []
    _block_streams(plan, x0, z)
    assert all(type(k) is int for k in z.log), z.log
    assert z.log == sorted(z.log), z.log
    assert set(z.log) == set(range(ref.model.horizon)), z.log


@pytest.mark.parametrize("n_sub", [1, 7, 17, 256])
@pytest.mark.parametrize("name", ["benchmark", "one_noise_column", "n_w_above_n_x"])
def test_pathwise_quadratic_is_the_noise_quad_form(name, n_sub):
    # the shared quadratic of the deviation pass, interval by interval, and
    # em_form's scan term that the same pass adds through gram_g
    rng = np.random.default_rng(n_sub)
    model = _interval_test_models()[name]
    model = dataclasses.replace(
        model,
        inputs=rng.normal(size=(3, model.n_u)),
        targets=rng.normal(size=(3, model.n_z)),
    )
    ops = em_interval_ops(model, n_sub)
    noise_quad = _dense_noise_quad(ops)
    plan = _mc_plan(model, n_sub)
    starts, noise = _starts_and_noise(rng, model, n_sub)
    m_blk = n_sub * model.n_w
    for k, x in enumerate(starts):
        w = noise[:, k * m_blk:(k + 1) * m_blk]
        em = np.zeros(len(x))
        quad, _ = _pathwise_cost(plan, k, x, w / np.sqrt(ops.dt), em)
        want = 0.5 * np.einsum("ri,ri->r", w @ noise_quad, w)
        assert np.abs(quad - want).max() <= 1e-12 * np.abs(want).max(), k
        assert np.abs(em - want).max() <= 1e-12 * np.abs(want).max(), k


def test_block_streams_walk_each_interval_deviation_once(monkeypatch):
    # one Euler deviation walk per interval feeds all three streams
    calls = []
    walk = stochastic._deviation_chunks

    def counted(plan, z):
        calls.append(len(z))
        return walk(plan, z)

    plan = _mc_plan(make_benchmark_model(horizon=3), 16)
    normals = np.random.default_rng(5).normal(size=(40, plan.dim))
    monkeypatch.setattr(stochastic, "_deviation_chunks", counted)
    _block_streams(plan, *_stream_views(plan, normals))
    assert calls == [40] * 3, calls


def _refuse_noise_quad(*args, **kwargs):
    raise AssertionError("the dense noise_quad block was formed")


def test_monte_carlo_streams_read_no_noise_quad(monkeypatch):
    # no Monte Carlo request forms noise_quad: not the plan, and no block
    # of the two blocks of 3000 replicates
    calls = []
    monkeypatch.setattr(stochastic, "_noise_block", lambda *args: calls.append(args))
    monte_carlo(make_benchmark_model(horizon=3), 16, 3000, seed=13)
    assert calls == []


def test_monte_carlo_builds_the_exact_spine_and_interval_ops_once(monkeypatch):
    # the plan's disc and ops feed both the blocks and the analytic moments
    calls = []
    for name in ("discretize_expm", "em_interval_ops"):
        build = getattr(stochastic, name)
        monkeypatch.setattr(
            stochastic, name,
            lambda *args, name=name, build=build: calls.append(name) or build(*args),
        )
    model = make_benchmark_model(horizon=3)
    summary = monte_carlo(model, 16, 64, seed=5)
    assert sorted(calls) == ["discretize_expm", "em_interval_ops"]
    analytic = (summary.analytic_mean, summary.analytic_var)
    assert analytic == cost_moments_streaming(model, 16)


def test_monte_carlo_stream_means_agree_at_benchmark_size():
    model = make_benchmark_model(horizon=4)
    summary = monte_carlo(model, 256, 2048, seed=31)
    means = summary.sample_mean
    spread = max(means.values()) - min(means.values())
    assert spread <= 1e-9 * abs(summary.analytic_mean)


def _loop_streams(ref, normals):
    """Reference for the three streams per row ``[x0; z]`` of ``normals``
    (increments ``w = sqrt(dt) z``): a forward walk with one product per
    term (``w_k cross'``, ``w_k noise_lin zbar_k``, ``w_k noise_map'``) and
    a list of the interval start states, the sub-step loop of the pathwise
    terms over those states, and the dense quadratic form."""
    model, disc, ops = ref.model, ref.disc, ref.ops
    n_x, m_blk = ref.n_x, ops.block_dim
    n_xu = n_x + model.n_u
    cross, noise_lin = ops.grad[:n_xu], ops.grad[n_xu:].T
    noise = normals[:, n_x:] * np.sqrt(ref.dt)
    x = normals[:, :n_x]
    det_vals = noise_vals = 0.0
    starts = []
    for k in range(model.horizon):
        starts.append(x)
        w_k = noise[:, k * m_blk:(k + 1) * m_blk]
        xu = np.hstack([x, np.broadcast_to(model.inputs[k], (len(x), model.n_u))])
        det_vals = det_vals + (
            0.5 * np.einsum("ri,ri->r", xu @ disc.q, xu) + xu @ disc.q_k[k] + disc.rho_k[k]
        )
        noise_vals = noise_vals + (
            np.einsum("ri,ri->r", w_k @ cross.T, xu)
            + w_k @ noise_lin @ model.targets[k]
        )
        x = x @ disc.a.T + model.inputs[k] @ disc.b.T + w_k @ ops.noise_map.T
    quad, lin = _loop_pathwise_cost(model, ref.n_sub, starts, noise)
    return {
        "continuous": det_vals + lin + quad,
        "discrete": det_vals + noise_vals + quad,
        "em_form": _dense_em_form(ref, normals),
    }


def _assert_streams_close(got, want):
    assert set(got) == set(want)
    for name, vals in want.items():
        assert np.abs(got[name] - vals).max() <= 1e-13 * np.abs(vals).max(), name


@pytest.mark.parametrize("case", _EM_FORM_CASES)
def test_block_streams_match_the_reference_walk_per_replicate(case):
    ref = _em_form_ref(case)
    normals = np.random.default_rng(ref.dim).normal(size=(37, ref.dim))
    plan = _mc_plan(ref.model, ref.n_sub)
    _assert_streams_close(_block_streams(plan, *_stream_views(plan, normals)), _loop_streams(ref, normals))


def _block_rows(plan, seed, block, reps):
    """Rows ``[x0; z_0; ..; z_{H-1}]`` of the ``reps`` replicates of Monte
    Carlo block ``block``: its draws in stream order (every replicate's
    ``x0``, then every replicate's ``z_0``, and so on), with ``x0`` built
    from the initial-state law as the block builds it."""
    n_x, horizon, m_blk = plan.model.n_x, plan.model.horizon, plan.ops.block_dim
    draws = normal_block(seed, block, reps * plan.dim)
    x0 = plan.model.x0_mean + draws[:reps * n_x].reshape(reps, n_x) @ plan.x0_root
    noise = draws[reps * n_x:].reshape(horizon, reps, m_blk).transpose(1, 0, 2)
    return np.hstack([x0, noise.reshape(reps, horizon * m_blk)])


@pytest.mark.parametrize("case", ["3-16", "noise_free", "n_sub_1", "one_interval"])
def test_simulate_block_sums_the_reference_streams(case):
    # the block's partial sums are those of the reference streams at its
    # own draws: x0 from the block's normals, the increments sqrt(dt) z
    ref = _em_form_ref(case)
    plan = _mc_plan(ref.model, ref.n_sub)
    want = _loop_streams(ref, _block_rows(plan, 9, 5, 300))
    edges = np.linspace(-1e3, 1e3, 5)
    record = stochastic._simulate_block((plan, 9, 5, 300, edges))
    # stream i's sum, then row i of the gram: its sums against every stream
    _assert_streams_close(
        {name: np.append(record["sum"][i], record["gram"][i])
         for i, name in enumerate(STREAMS)},
        {name: np.array([vals.sum(), *((vals * want[other]).sum() for other in STREAMS)])
         for name, vals in want.items()},
    )


@pytest.mark.parametrize("n_sims", [5000, 1])
def test_monte_carlo_summary_is_numpy_on_the_replicate_streams(n_sims):
    # 5000 replicates span three blocks; one replicate has no spread, and
    # the summary reports variances and correlations of 0 for it
    ref = _em_form_ref("3-16")
    plan = _mc_plan(ref.model, ref.n_sub)
    normals = np.vstack([
        _block_rows(plan, 4, block, min(_BLOCK, n_sims - start))
        for block, start in enumerate(range(0, n_sims, _BLOCK))
    ])
    streams = _block_streams(plan, *_stream_views(plan, normals))
    values = np.stack([streams[name] for name in STREAMS])
    if n_sims > 1:
        var, corr = values.var(axis=1, ddof=1), np.corrcoef(values)
    else:
        var, corr = np.zeros(3), np.zeros((3, 3))
    summary = monte_carlo(ref.model, ref.n_sub, n_sims, seed=4, workers=2)
    for i, name in enumerate(STREAMS):
        assert summary.sample_mean[name] == pytest.approx(values[i].mean(), rel=1e-12)
        assert summary.sample_var[name] == pytest.approx(var[i], rel=1e-12, abs=0.0)
        for j in range(i + 1, 3):
            got = summary.correlations[f"{name}|{STREAMS[j]}"]
            assert got == pytest.approx(corr[i, j], rel=1e-12, abs=0.0)


def test_stage_costs_match_the_model_stage_cost_row_by_row():
    rng = np.random.default_rng(23)
    model = random_stable_model(rng, n_x=3, n_u=2, n_z=2, horizon=6)
    disc = discretize_expm(model)
    xu = rng.normal(size=(6, 5))
    want = np.array([
        [stage_cost(disc, row[:3], row[3:], k) for row in xu] for k in range(6)
    ])
    # one stage for every row, then row k at stage k
    got = np.array([stochastic._stage_costs(disc, xu, k) for k in range(6)])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(
        stochastic._stage_costs(disc, xu, slice(0, 6)), np.diag(want), rtol=1e-14, atol=0.0
    )


def _moment_test_models():
    rng = np.random.default_rng(77)
    off_diagonal = random_stable_model(rng, n_x=3, n_u=2, n_z=2, horizon=3)
    assert np.abs(off_diagonal.x0_cov - np.diag(np.diag(off_diagonal.x0_cov))).max() > 0.0
    return [
        (make_benchmark_model(horizon=3), 8),
        (make_benchmark_model(horizon=3), 64),
        (off_diagonal, 8),
    ]


@pytest.mark.parametrize("case", range(3))
def test_cost_moments_match_the_dense_formula(case):
    model, n_sub = _moment_test_models()[case]
    ref = em_reformulate(model, n_sub)
    got = cost_moments(ref)
    want = _hstack_cost_moments(ref)
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1], rel=1e-12)


# ---------------------------------------------------------------------------
# blocked horizon walks against the per-step recursions
# ---------------------------------------------------------------------------

def _loop_streaming_moments(model, n_sub, disc):
    """Reference for the streaming moments: one Python iteration per step.

    Propagates the state mean and covariance and the two accumulators
    (``hist_quad``, ``hist_lin``) that carry every earlier stage's
    covariance with the current one.
    """
    ops = em_interval_ops(model, n_sub)
    n_x = model.n_x
    dt = ops.dt
    a, b = disc.a, disc.b
    n_xu = n_x + model.n_u
    quad, cross, noise_quad = disc.q, ops.grad[:n_xu], _dense_noise_quad(ops)
    noise_map, noise_lin = ops.noise_map, ops.grad[n_xu:].T
    q_xx = quad[:n_x, :n_x]

    trace_noise = dt * float(np.trace(noise_quad))
    trace_noise_sq = dt * dt * float(np.einsum("ij,ij->", noise_quad, noise_quad))
    cross_gram = cross @ cross.T
    cross_lin = cross @ noise_lin
    lin_gram = noise_lin.T @ noise_lin
    map_cross = noise_map @ cross.T
    map_lin = noise_map @ noise_lin
    cross_map = map_cross[:, :n_x].T
    map_quad = noise_map @ noise_quad @ noise_map.T
    noise_cov_step = dt * (noise_map @ noise_map.T)

    mean = 0.0
    var = 0.0
    state_mean = np.asarray(model.x0_mean, dtype=float).copy()
    state_cov = np.asarray(model.x0_cov, dtype=float).copy()
    hist_quad = np.zeros((n_x, n_x))
    hist_lin = np.zeros(n_x)

    for k in range(model.horizon):
        mu = np.concatenate([state_mean, model.inputs[k]])
        target = model.targets[k]
        b_xi = disc.q_k[k]

        mean += (
            0.5 * float(mu @ quad @ mu)
            + float(b_xi @ mu)
            + float(disc.rho_k[k])
            + 0.5 * (float(np.einsum("ij,ji->", q_xx, state_cov)) + trace_noise)
        )

        g_xi = quad @ mu + b_xi
        g_w_sq = float(
            mu @ cross_gram @ mu
            + 2.0 * (mu @ cross_lin @ target)
            + target @ lin_gram @ target
        )

        t1 = quad[:, :n_x] @ state_cov
        own = (
            0.5 * (
                float(np.einsum("ij,ji->", t1[:n_x], t1[:n_x]))
                + 2.0 * dt * float(
                    np.einsum("ab,ab->", state_cov, cross_gram[:n_x, :n_x])
                )
                + trace_noise_sq
            )
            + float(g_xi[:n_x] @ state_cov @ g_xi[:n_x])
            + dt * g_w_sq
        )

        var += own + 2.0 * (
            0.5 * float(np.einsum("ij,ji->", q_xx, hist_quad))
            + float(g_xi[:n_x] @ hist_lin)
        )

        k_xi = state_cov @ a.T
        kernel = (
            k_xi.T @ (q_xx @ k_xi + dt * cross_map)
            + dt * (cross_map.T @ k_xi)
            + (dt * dt) * map_quad
        )
        gamma = k_xi.T @ g_xi[:n_x] + dt * (map_cross @ mu + map_lin @ target)
        hist_quad = a @ hist_quad @ a.T + kernel
        hist_lin = a @ hist_lin + gamma

        state_mean = a @ state_mean + b @ model.inputs[k]
        state_cov = symmetrize(a @ state_cov @ a.T + noise_cov_step)

    return mean, var


def _loop_propagate_covariance(disc, p0, n_steps):
    """Reference covariance recursion, one symmetrized step at a time."""
    p0 = np.asarray(p0, dtype=float)
    out = np.empty((n_steps + 1,) + p0.shape)
    out[0] = symmetrize(p0)
    for k in range(n_steps):
        out[k + 1] = symmetrize(disc.a @ out[k] @ disc.a.T + disc.r_ww)
    return out


def _loop_noise_rate_integral(model, scheme="classic_rk4", n_steps=256):
    """The scheme-weight noise quadrature, one step at a time: the fixed-step
    solution of the covariance-integral ODE that the exact integral replaced."""
    coeffs = precompute(model, scheme, n_steps)
    tab = coeffs.scheme
    noise_w = model.c_c.T @ model.q_c @ model.c_c
    beta = tab.b @ tab.a
    stage_kernel = sum(
        beta[j] * (coeffs.lam_stages[j].T @ noise_w @ coeffs.lam_stages[j])
        for j in range(tab.stages)
    )
    h = coeffs.h
    r_tilde = weighted_conjugation(coeffs, coeffs.r_bar)
    trans = np.eye(model.n_x)
    cov = np.zeros((model.n_x, model.n_x))
    total = 0.0
    for _ in range(n_steps):
        inc = trans @ coeffs.r_bar @ trans.T
        total += h * float(np.einsum("ij,ji->", noise_w, cov))
        total += h * float(np.einsum("ij,ji->", stage_kernel, inc))
        cov += trans @ r_tilde @ trans.T
        trans = coeffs.lam @ trans
    return total


def _loop_expected_cost(model, disc, noise_trace):
    """Reference expected cost: stage costs along the mean, one step at a time."""
    n_x = model.n_x
    covs = _loop_propagate_covariance(disc, model.x0_cov, model.horizon)
    total = 0.0
    x = np.asarray(model.x0_mean, dtype=float)
    for k in range(model.horizon):
        total += stage_cost(disc, x, model.inputs[k], k)
        total += 0.5 * (
            float(np.einsum("ij,ji->", disc.q[:n_x, :n_x], covs[k])) + noise_trace
        )
        x = disc.a @ x + disc.b @ model.inputs[k]
    return total


# horizons around the block size: one step, a partial block, a full one,
# and a ragged third block that needs both carried accumulators
_WALK_HORIZONS = [1, 2, _WALK_BLOCK - 1, _WALK_BLOCK, 2 * _WALK_BLOCK + 3]


def _varied_benchmark_model(horizon):
    """The benchmark system with inputs and targets that change every step."""
    rng = np.random.default_rng(horizon)
    model = make_benchmark_model(horizon=horizon)
    return dataclasses.replace(
        model,
        inputs=rng.normal(size=(horizon, model.n_u)),
        targets=rng.normal(size=(horizon, model.n_z)),
    )


def _random_walk_model(horizon, n_x, n_w):
    rng = np.random.default_rng(100 * n_x + n_w)
    model = random_stable_model(rng, n_x=n_x, n_u=2, n_z=2, horizon=horizon)
    model = _with_noise_input(rng, model, n_w)
    assert np.abs(model.x0_cov - np.diag(np.diag(model.x0_cov))).max() > 0.0
    return model


_WALK_MODELS = {
    **{f"benchmark-H{h}": partial(_varied_benchmark_model, h) for h in _WALK_HORIZONS},
    **{f"random-H{h}-nx{n_x}-nw{n_w}": partial(_random_walk_model, h, n_x, n_w)
       for h, n_x, n_w in ((3, 3, 1), (_WALK_BLOCK + 5, 2, 3),
                           (2 * _WALK_BLOCK + 3, 3, 2))},
}


def _assert_close(got, want, rel=1e-12):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    err = np.abs(got - want).max()
    assert err <= rel * np.abs(want).max(), err


@pytest.mark.parametrize("name", list(_WALK_MODELS))
def test_streaming_moments_match_the_step_loop(name):
    model = _WALK_MODELS[name]()
    disc = discretize_expm(model)
    got = cost_moments_streaming(model, 8)
    want = _loop_streaming_moments(model, 8, disc)
    _assert_close(got[0], want[0])
    _assert_close(got[1], want[1])


@pytest.mark.parametrize("name", list(_WALK_MODELS))
def test_expected_cost_matches_the_step_loop(name):
    model = _WALK_MODELS[name]()
    disc = discretize_expm(model)
    got = expected_costs(model, n_sub=16)
    noise_traces = {
        "ode": noise_trace_integral(model),
        "em": _loop_interval_ops(model, 16)["trace_integral"],
    }
    assert set(got) == set(noise_traces)
    for route, noise_trace in noise_traces.items():
        _assert_close(got[route], _loop_expected_cost(model, disc, noise_trace))


@pytest.mark.parametrize("n_steps", _WALK_HORIZONS)
@pytest.mark.parametrize("name", ["benchmark-H1", "random-H3-nx3-nw1"])
def test_propagate_covariance_matches_the_step_loop(name, n_steps):
    # the system of ``name`` walked over ``n_steps`` steps by _state_blocks
    build = _WALK_MODELS[name]
    model = build.func(n_steps, *build.args[1:])
    disc = discretize_expm(model)
    means, covs = _walk_states(model, disc, disc.r_ww)
    want_means = [np.asarray(model.x0_mean, dtype=float)]
    for u in model.inputs:
        want_means.append(disc.a @ want_means[-1] + disc.b @ u)
    _assert_close(means, want_means)
    _assert_close(covs, _loop_propagate_covariance(disc, model.x0_cov, model.horizon))


@pytest.mark.parametrize("scheme, steps, ratios", [
    ("classic_rk4", (128, 256, 512), (14.0, 18.0)),             # order 4
    ("implicit_trapezoidal", (32, 64, 128), (3.8, 4.2)),        # order 2
])
def test_step_loop_noise_quadrature_converges_to_the_exact_integral(scheme, steps, ratios):
    # the fixed-step quadrature's gap to the exact value falls at the
    # scheme's order per step doubling, so the exact value is its limit
    model = make_benchmark_model()
    exact = noise_trace_integral(model)
    gaps = [abs(_loop_noise_rate_integral(model, scheme, n) - exact) for n in steps]
    low, high = ratios
    for coarse, fine in zip(gaps, gaps[1:]):
        assert low <= coarse / fine <= high, gaps


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_block_holds_little_beyond_its_draws():
    # one 2048-replicate block: its draws chi plus cache-sized pieces, no
    # second full-width array in em_form or in the Euler deviation pass
    ref = em_reformulate(make_benchmark_model(horizon=2), 256)
    chi_bytes = 2048 * ref.dim * np.dtype(float).itemsize
    peak = _traced_peak(lambda: monte_carlo(ref.model, ref.n_sub, 2048, seed=1, workers=1))
    assert peak <= 1.5 * chi_bytes, peak / chi_bytes


def test_monte_carlo_block_memory_does_not_grow_with_the_horizon():
    # at a long, thin horizon the per-interval state would be as large as
    # the draws; the forward walk keeps only the current state
    ref = em_reformulate(make_benchmark_model(horizon=100), 1)
    chi_bytes = 2048 * ref.dim * np.dtype(float).itemsize
    peak = _traced_peak(lambda: monte_carlo(ref.model, ref.n_sub, 2048, seed=1))
    assert peak <= 1.5 * chi_bytes, peak / chi_bytes


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_holds_no_block_records(monkeypatch, workers):
    # a block's record (sum, gram and a 3 x 60 histogram) is ~2.1 KB and a
    # pool's future ~1.8 KB; each record goes into running totals as it
    # arrives and a pool runs a few blocks ahead, so 5000 blocks hold their
    # job list and no records or futures
    def record(job):
        bins = len(job[4]) - 1
        return {"sum": np.ones(3), "gram": np.ones((3, 3)),
                "hist": np.ones((3, bins), dtype=np.int64)}

    monkeypatch.setattr(stochastic, "_simulate_block", record)
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    blocks = 5000
    summary = []
    peak = _traced_peak(lambda: summary.append(monte_carlo(
        make_benchmark_model(horizon=2), 4, blocks * _BLOCK, seed=0, workers=workers)))
    assert summary[0].sample_mean["em_form"] == 1.0 / _BLOCK
    assert peak <= 1024 * blocks, peak / blocks


def test_monte_carlo_stops_submitting_blocks_after_one_fails(monkeypatch):
    # block 3 of 200 runs out of memory on a pool thread: the error reaches
    # the caller, and of the blocks after it only the 2 * 2 submitted ahead
    # of it may have run
    ran = []

    def block(job):
        ran.append(job[2])
        if job[2] == 3:
            raise MemoryError("block 3")
        return {"sum": np.ones(3), "gram": np.ones((3, 3)), "hist": np.ones((3, 60), dtype=np.int64)}

    monkeypatch.setattr(stochastic, "_simulate_block", block)
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    with pytest.raises(MemoryError, match="block 3"):
        monte_carlo(make_benchmark_model(horizon=1), 4, 200 * _BLOCK, seed=0, workers=2)
    assert 3 in ran and max(ran) <= 3 + 2 * 2, sorted(ran)


def test_em_reformulate_holds_little_beyond_q_big_at_one_interval():
    # one interval: the diagonal block is all of q_big but two rows, so an
    # m_blk x m_blk temporary next to it would double the peak
    built = []
    peak = _traced_peak(lambda: built.append(
        em_reformulate(make_benchmark_model(horizon=1), 511)))
    q_bytes = built[0].q_big.nbytes
    assert peak <= 1.10 * q_bytes, peak / q_bytes


def test_em_reformulate_holds_little_beyond_q_big_at_few_intervals():
    # two intervals: one m_blk x m_blk block is a quarter of q_big, so a
    # dense temporary of one block shows
    built = []
    peak = _traced_peak(lambda: built.append(
        em_reformulate(make_benchmark_model(horizon=2), 255)))
    q_bytes = built[0].q_big.nbytes
    assert peak <= 1.30 * q_bytes, peak / q_bytes


def test_em_reformulate_holds_little_beyond_q_big():
    # the backward sweep writes every block of q_big once, through views:
    # beyond q_big it holds O(dim n_x), no block-sized or dim x dim temporary
    built = []
    peak = _traced_peak(lambda: built.append(
        em_reformulate(make_benchmark_model(horizon=4), 256)))
    q_bytes = built[0].q_big.nbytes
    assert peak <= 1.25 * q_bytes, peak / q_bytes


def test_mc_plan_keeps_no_copy_of_q_big_columns_when_the_basis_is_square():
    # n_sub 1, n_w 2: m_blk = n_x; the plan holds O(dim n_x) factors and
    # no piece of q_big
    ref = em_reformulate(make_benchmark_model(horizon=1000), 1)
    tracemalloc.start()
    try:
        plan = _mc_plan(ref.model, ref.n_sub)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(plan.stages.factors) == 1000
    assert held <= 0.1 * ref.q_big.nbytes, held / ref.q_big.nbytes


def test_streaming_memory_does_not_grow_with_the_horizon():
    peaks = []
    for horizon in (_WALK_BLOCK, 8 * _WALK_BLOCK):
        model = make_benchmark_model(horizon=horizon)
        peaks.append(_traced_peak(lambda: cost_moments_streaming(model, 8)))
    assert peaks[1] < 2 * peaks[0], peaks


def test_expected_cost_em_route_builds_no_interval_ops(monkeypatch):
    model = make_benchmark_model(horizon=4)
    disc = discretize_expm(model)
    want = expected_costs(model, n_sub=64)["em"]
    noise_trace = _loop_interval_ops(model, 64)["trace_integral"]

    def refuse(*args, **kwargs):
        raise AssertionError("the em route materialized the interval ops")

    monkeypatch.setattr(stochastic, "em_interval_ops", refuse)
    assert expected_costs(model, n_sub=64)["em"] == want
    _assert_close(want, _loop_expected_cost(model, disc, noise_trace))


# ---------------------------------------------------------------------------
# streaming without the dense noise block
# ---------------------------------------------------------------------------

def _loop_euler_powers(model, n_sub):
    """Reference for the Euler powers: one recursion step per sub-step."""
    dt = model.t_s / n_sub
    euler = np.eye(model.n_x) + dt * model.a_c
    powers = np.empty((n_sub + 1, model.n_x, model.n_x))
    held = np.empty((n_sub + 1, model.n_x, model.n_u))
    powers[0] = np.eye(model.n_x)
    held[0] = 0.0
    for i in range(n_sub):
        powers[i + 1] = euler @ powers[i]
        held[i + 1] = euler @ held[i] + dt * model.b_c
    return dt, powers, held


@pytest.mark.parametrize("n_sub", [1, 2, 3, 17, 256, 1024])
@pytest.mark.parametrize("name", ["benchmark", "one_noise_column", "n_w_above_n_x"])
def test_euler_powers_match_the_step_recursion(name, n_sub):
    model = _interval_test_models()[name]
    dt, powers, held = stochastic._euler_powers(model, n_sub)
    want_dt, want_powers, want_held = _loop_euler_powers(model, n_sub)
    assert dt == want_dt
    _assert_close(powers, want_powers)
    _assert_close(held, want_held)


@pytest.mark.parametrize("n_sub", [1, 2, 3, 17, 64, 256])
@pytest.mark.parametrize("name", ["benchmark", "one_noise_column", "n_w_above_n_x"])
def test_noise_quad_summaries_match_the_dense_matrix(name, n_sub):
    model = _interval_test_models()[name]
    ops = em_interval_ops(model, n_sub)
    noise_quad, noise_map = _dense_noise_quad(ops), ops.noise_map
    frob_sq, map_quad = stochastic._noise_quad_summaries(ops)[:2]
    trace = _trace_integral(model, ops.dt, ops.powers)
    _assert_close(trace, ops.dt * np.trace(noise_quad))
    _assert_close(frob_sq, np.einsum("ij,ij->", noise_quad, noise_quad))
    _assert_close(map_quad, noise_map @ noise_quad @ noise_map.T)


def _gram_noise_quad(model, n_sub):
    """Reference ``noise_quad``: suffix sums along the block diagonals of
    the full Gram matrix ``noise_map' W noise_map``, one row-block slice
    add per sub-step, then symmetrized."""
    ops = em_interval_ops(model, n_sub)
    n_w, noise_map = model.n_w, ops.noise_map
    noise_w = model.c_c.T @ model.q_c @ model.c_c
    m_blk = n_sub * n_w
    gram = (noise_map.T @ (noise_w @ noise_map)).reshape(n_sub, n_w, n_sub, n_w)
    for p in range(n_sub - 2, -1, -1):
        gram[p, :, :-1] += gram[p + 1, :, 1:]
    gram = gram.reshape(m_blk, m_blk)
    return 0.5 * ops.dt * (gram + gram.T)


@pytest.mark.parametrize("n_sub", [1, 17, 256])
@pytest.mark.parametrize("system", ["stiff", "wide10"])
def test_noise_quad_matches_the_gram_construction(system, n_sub):
    # with no later stage weight on the next state, then a random PSD one
    with open(BENCH_DATA / f"{system}.json", encoding="utf-8") as fh:
        model = continuous_model_from_dict(json.load(fh))
    ops = em_interval_ops(model, n_sub)
    root = np.random.default_rng(n_sub).normal(size=(model.n_x, model.n_x))
    for gram in (np.zeros((model.n_x, model.n_x)), root @ root.T):
        got = ops.noise_map.T @ gram @ ops.noise_map
        assert _noise_block(ops, got) is None
        want = _gram_noise_quad(model, n_sub) + ops.noise_map.T @ gram @ ops.noise_map
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(got, got.T)


def test_streaming_moments_form_no_noise_quad(monkeypatch):
    model = make_benchmark_model(horizon=4)
    want = cost_moments_streaming(model, 64)
    monkeypatch.setattr(stochastic, "_noise_block", _refuse_noise_quad)
    assert cost_moments_streaming(model, 64) == want


def test_streaming_memory_grows_linearly_with_n_sub():
    # linear growth gives ~4x from 512 to 2048 sub-steps; a dense
    # m_blk x m_blk block would give ~16x
    model = make_benchmark_model()
    peaks = [
        _traced_peak(lambda n=n: cost_moments_streaming(model, n))
        for n in (512, 2048)
    ]
    assert peaks[1] < 8 * peaks[0], peaks


@pytest.mark.parametrize("n_sub", [0, -1])
def test_euler_maruyama_paths_refuse_n_sub_below_one(n_sub):
    model = make_benchmark_model()
    calls = {
        "em_interval_ops": lambda: em_interval_ops(model, n_sub),
        "em_reformulate": lambda: em_reformulate(model, n_sub),
        "streaming": lambda: cost_moments_streaming(model, n_sub),
        "expected_costs": lambda: expected_costs(model, n_sub=n_sub),
        "monte_carlo": lambda: monte_carlo(model, n_sub, 16, seed=0),
    }
    for name, call in calls.items():
        with pytest.raises(ValidationError, match="n_sub") as info:
            call()
        assert f"got {n_sub}" in str(info.value), name
