"""End-to-end acceptance checks, one test per release gate.

Every test here pins a user-visible guarantee of the package on the stiff
two-state tracking benchmark (drift eigenvalues -1 and -17) or on random
stable models: accuracy against the closed-form route, equivalence of the
fixed-step and doubling routes, convergence orders, cost weights against
independent quadrature, stochastic moments and Monte Carlo behavior,
relative speed, solver consistency, and bit-level determinism.
"""

import json
import statistics
import time

import numpy as np

from lqdisc.butcher import SCHEMES
from lqdisc.cli import main as cli_main
from lqdisc.doubling import discretize_step_doubling
from lqdisc.expm_method import discretize_expm
from lqdisc.lqsolve import solve_finite_horizon
from lqdisc.ode_method import discretize_ode
from lqdisc.stochastic import (
    cost_moments,
    em_reformulate,
    expected_costs,
    monte_carlo,
)

from conftest import dense_qp_solution, make_benchmark_model, random_stable_model
from oracle import oracle_cost

FIELDS = ("a", "b", "q", "m", "r_ww", "q_k", "rho_k")


def _max_err(got, want, name):
    return float(np.max(np.abs(getattr(got, name) - getattr(want, name))))


def _median_seconds(fn, reps=9, warmups=2):
    for _ in range(warmups):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_01_fixed_step_and_doubling_hit_closed_form_accuracy_targets():
    """classic_rk4 at 2^12 sub-steps (both routes) against the closed form.

    Fourth-order truncation keeps ``q`` above its target at fewer
    sub-steps: against a 50-digit reference it is off by 6.0e-7 at 2^8 and
    by 1.4e-10 at 2^11.  2^12 (1.0e-11) is the smallest power of two at
    which every target holds.
    """
    bounds = {"a": 1e-10, "b": 1e-10, "m": 1e-10, "q": 1e-10, "r_ww": 1e-9}
    model = make_benchmark_model()
    t0 = time.perf_counter()
    truth = discretize_expm(model)
    routes = {
        "fixed-step": discretize_ode(model, scheme="classic_rk4", n_steps=2 ** 12),
        "doubling": discretize_step_doubling(
            model, scheme="classic_rk4", doublings=12
        ),
    }
    elapsed = time.perf_counter() - t0
    failures = []
    for route, disc in routes.items():
        for name, bound in bounds.items():
            err = _max_err(disc, truth, name)
            line = f"{route} {name}: {err:.3e} (target {bound:.0e})"
            print(line)
            if err > bound:
                failures.append(line)
    assert elapsed < 5.0, f"accuracy run took {elapsed:.2f}s"
    assert not failures, "accuracy targets missed: " + "; ".join(failures)


def test_02_doubling_reproduces_fixed_step_outputs():
    """Doubling with j iterations equals 2^j fixed steps, every scheme."""
    model = make_benchmark_model()
    for scheme in sorted(SCHEMES):
        for j in range(7):
            ode = discretize_ode(model, scheme=scheme, n_steps=2 ** j)
            sqr = discretize_step_doubling(model, scheme=scheme, doublings=j)
            for name in FIELDS:
                want = getattr(ode, name)
                scale = max(1.0, float(np.max(np.abs(want))))
                err = _max_err(sqr, ode, name)
                assert err <= 1e-11 * scale, f"{scheme} j={j} {name}: {err:.3e}"


def test_03_convergence_orders_match_scheme_design(tmp_path, capsys):
    """Transition/input-map errors decay at each scheme's design order.

    Order is the median of consecutive halving exponents over 2^4..2^10
    sub-steps; the rounding floor (~1e-13 here) makes a least-squares fit
    across all points meaningless for the fourth-order scheme.  A blow-up
    must surface as the numerical-failure exit code, never as output.
    """
    nominal = {
        "explicit_euler": 1.0,
        "implicit_euler": 1.0,
        "explicit_trapezoidal": 2.0,
        "implicit_trapezoidal": 2.0,
        "classic_rk4": 4.0,
    }
    model = make_benchmark_model()
    truth = discretize_expm(model)
    for scheme, want in nominal.items():
        errs_a, errs_b = [], []
        for j in range(4, 11):
            disc = discretize_ode(model, scheme=scheme, n_steps=2 ** j)
            errs_a.append(_max_err(disc, truth, "a"))
            errs_b.append(_max_err(disc, truth, "b"))
        for label, errs in (("A", errs_a), ("B", errs_b)):
            pairs = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
            order = float(np.median(pairs))
            print(f"{scheme} {label}: order {order:.3f}")
            assert abs(order - want) <= 0.3, f"{scheme} {label}: {order:.3f}"

    # divergence path: clean failure exit, no output file
    stiff = tmp_path / "stiff.json"
    stiff.write_text(json.dumps({
        "A_c": [[-64000.0]], "B_c": [[1.0]], "G_c": [[0.0]],
        "C_c": [[1.0]], "D_c": [[0.0]], "Q_c": [[1.0]],
        "T_s": 1.0, "N": 1, "u": [[0.0]], "zbar": [[0.0]],
        "x0_mean": [0.0], "x0_cov": [[0.0]],
    }))
    out = tmp_path / "diverged.json"
    code = cli_main([
        "discretize", str(stiff), "--method", "ode:explicit_euler",
        "--steps", "64", "-o", str(out),
    ])
    err_text = capsys.readouterr().err
    assert code == 4
    assert err_text.startswith("lqdisc:")
    assert not out.exists()


def test_04_cost_weights_match_independent_quadrature():
    """Closed-form stage cost equals fine-grid quadrature on random models."""
    rng = np.random.default_rng(42)
    for trial in range(20):
        model = random_stable_model(
            rng, n_x=int(rng.integers(1, 5)), n_u=int(rng.integers(1, 3)),
            horizon=1,
        )
        disc = discretize_expm(model)
        x0 = rng.normal(size=model.n_x)
        u0 = rng.normal(size=model.n_u)
        zbar = rng.normal(size=model.n_z)
        xu = np.concatenate([x0, u0])
        got = (
            0.5 * xu @ disc.q @ xu
            + (disc.m @ zbar) @ xu
            + 0.5 * zbar @ model.q_c @ zbar * model.t_s
        )
        ref = oracle_cost(model, x0, u0, zbar)
        assert abs(got - ref) <= 1e-7 * abs(ref), f"trial {trial}"


def test_05_stochastic_moments_and_monte_carlo():
    """Noise-cost moments: scalar closed forms, then a full sampled run."""
    t0 = time.perf_counter()
    from test_stochastic import pure_noise_model

    scalar = pure_noise_model()
    mean_errs, var_errs = [], []
    for n_sub in (256, 512, 1024):
        mean, var = cost_moments(em_reformulate(scalar, n_sub))
        mean_errs.append(abs(mean - 0.25))
        var_errs.append(abs(var - 1.0 / 12.0))
    for errs in (mean_errs, var_errs):
        assert errs[-1] < 2e-3
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.7 <= coarse / fine <= 2.4, errs

    model = make_benchmark_model(horizon=4)
    ref = em_reformulate(model, 2 ** 8)
    summary = monte_carlo(ref, n_sims=30000, seed=0, workers=4)
    se = np.sqrt(summary.analytic_var / summary.n_sims)
    gap = abs(summary.sample_mean["em_form"] - summary.analytic_mean)
    print(f"sample-vs-analytic mean gap {gap:.4f} ({gap / se:.2f} standard errors)")
    assert gap <= 3.0 * se
    for pair, corr in summary.correlations.items():
        assert corr > 0.99, (pair, corr)

    # refinement bias shrinks as the noise grid gets finer
    psi = expected_costs(model)["ode"]
    offset_coarse = abs(cost_moments(em_reformulate(model, 2 ** 6))[0] - psi)
    offset_fine = abs(summary.analytic_mean - psi)
    assert offset_fine < offset_coarse

    elapsed = time.perf_counter() - t0
    print(f"stochastic acceptance took {elapsed:.1f}s")
    assert elapsed < 60.0


def test_06_doubling_is_not_slower_than_fixed_step(tmp_path, capsys):
    """Median runtime ordering at 2^8 sub-steps, and all three methods in CSV."""
    model = make_benchmark_model()
    t_ode = _median_seconds(
        lambda: discretize_ode(model, scheme="classic_rk4", n_steps=2 ** 8)
    )
    t_sqr = _median_seconds(
        lambda: discretize_step_doubling(model, scheme="classic_rk4", doublings=8)
    )
    print(f"median fixed-step {t_ode * 1e3:.3f} ms, doubling {t_sqr * 1e3:.3f} ms")
    assert t_sqr <= t_ode

    model_file = tmp_path / "bench_model.json"
    model_file.write_text(json.dumps({
        "A_c": [[-49.0, 24.0], [-64.0, 31.0]],
        "B_c": [[2.0, 0.5], [1.0, 3.0]],
        "G_c": [[0.1, 0.0], [0.0, 0.1]],
        "C_c": [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
        "D_c": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "Q_c": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "T_s": 1.0, "N": 1, "u": [[1.0, 1.0]], "zbar": [[3.0, 0.0, 0.0]],
        "x0_mean": [0.0, 1.0], "x0_cov": [[0.1, 0.0], [0.0, 0.1]],
    }))
    out = tmp_path / "bench.csv"
    assert cli_main([
        "benchmark", str(model_file), "--schemes", "classic_rk4",
        "--max-exp", "3", "--reps", "3", "-o", str(out),
    ]) == 0
    capsys.readouterr()
    methods = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
    assert methods == {"expm", "ode", "sqr"}


def test_07_solver_agrees_across_routes_and_with_dense_qp():
    """Ten-interval plans from both discretization routes, plus a QP check."""
    model = make_benchmark_model(horizon=10)
    via_expm = solve_finite_horizon(discretize_expm(model), model.x0_mean)
    via_sqr = solve_finite_horizon(
        discretize_step_doubling(model, scheme="classic_rk4", doublings=12),
        model.x0_mean,
    )
    gap = float(np.max(np.abs(via_expm.inputs - via_sqr.inputs)))
    print(f"plan gap across routes: {gap:.3e}")
    assert gap <= 1e-8

    rng = np.random.default_rng(7)
    for horizon in (1, 2, 3, 4):
        inst = random_stable_model(
            rng, n_x=int(rng.integers(1, 4)), n_u=int(rng.integers(1, 3)),
            n_z=3, horizon=horizon,
        )
        disc = discretize_expm(inst)
        x0 = rng.normal(size=disc.n_x)
        sol = solve_finite_horizon(disc, x0)
        want_u, want_value = dense_qp_solution(disc, x0)
        scale = max(1.0, float(np.max(np.abs(want_u))))
        assert np.max(np.abs(sol.inputs - want_u)) <= 1e-9 * scale
        assert abs(sol.value - want_value) <= 1e-9 * max(1.0, abs(want_value))


def test_08_monte_carlo_output_is_identical_across_worker_counts(tmp_path, capsys):
    """Same seed, different parallelism: byte-identical summary files."""
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps({
        "A_c": [[-49.0, 24.0], [-64.0, 31.0]],
        "B_c": [[2.0, 0.5], [1.0, 3.0]],
        "G_c": [[0.1, 0.0], [0.0, 0.1]],
        "C_c": [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
        "D_c": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "Q_c": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "T_s": 1.0, "N": 1, "u": [[1.0, 1.0]], "zbar": [[3.0, 0.0, 0.0]],
        "x0_mean": [0.0, 1.0], "x0_cov": [[0.1, 0.0], [0.0, 0.1]],
    }))
    args = ["montecarlo", str(model_file), "--sims", "4096", "--seed", "123",
            "--subdiv", "8"]
    assert cli_main(args + ["--workers", "1", "-o", str(tmp_path / "one")]) == 0
    assert cli_main(args + ["--workers", "2", "-o", str(tmp_path / "two")]) == 0
    capsys.readouterr()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
