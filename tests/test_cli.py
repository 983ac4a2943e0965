"""Command line surface: exit codes, file formats, round trips, determinism."""

import csv
import functools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lqdisc import cli, errors
from lqdisc.cli import _json_text, main
from lqdisc.doubling import discretize_step_doubling
from lqdisc.expm_method import discretize_expm
from lqdisc.model import (
    continuous_model_from_dict,
    discrete_model_from_dict,
    discrete_model_to_dict,
)
from lqdisc.ode_method import discretize_ode
from lqdisc.stochastic import expected_costs, monte_carlo

BENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def benchmark_payload(horizon=1):
    return {
        "A_c": [[-49.0, 24.0], [-64.0, 31.0]],
        "B_c": [[2.0, 0.5], [1.0, 3.0]],
        "G_c": [[0.1, 0.0], [0.0, 0.1]],
        "C_c": [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
        "D_c": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "Q_c": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "T_s": 1.0,
        "N": horizon,
        "u": [1.0, 1.0],
        "x0_mean": [0.0, 1.0],
        "x0_cov": [[0.1, 0.0], [0.0, 0.1]],
    }


def scalar_payload():
    return {
        "A_c": [[0.0]], "B_c": [[1.0]], "G_c": [[0.0]],
        "C_c": [[1.0]], "D_c": [[0.0]], "Q_c": [[1.0]],
        "T_s": 1.0, "N": 1, "u": [[1.0]], "zbar": [[0.0]],
        "x0_mean": [0.0], "x0_cov": [[0.0]],
    }


def write_model(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def bench_file(tmp_path):
    payload = benchmark_payload()
    payload["zbar"] = [[3.0, 0.0, 0.0]]
    return write_model(tmp_path, payload)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "lqdisc" in capsys.readouterr().out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lqdisc.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "lqdisc" in proc.stdout


def test_missing_model_file_is_an_argument_error(tmp_path, capsys):
    assert main(["discretize", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lqdisc:")
    assert err.strip().count("\n") == 0


def test_unparseable_json_is_a_model_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["discretize", str(path)]) == 3
    assert capsys.readouterr().err.startswith("lqdisc:")


def test_unknown_model_key_is_a_model_error(tmp_path, capsys):
    payload = scalar_payload()
    payload["extra"] = 1
    assert main(["discretize", write_model(tmp_path, payload)]) == 3
    assert "extra" in capsys.readouterr().err


def test_invalid_model_data_is_a_model_error(tmp_path, capsys):
    payload = scalar_payload()
    payload["Q_c"] = [[1.0, 2.0], [0.0, 1.0]]  # wrong shape for one output
    assert main(["discretize", write_model(tmp_path, payload)]) == 3
    assert capsys.readouterr().err.startswith("lqdisc:")


@pytest.mark.parametrize("key, value", [
    ("A_c", [[-49.0, 24.0], [-64.0]]),              # ragged row
    ("u", [[1.0, 1.0], [1.0]]),
    ("A_c", [["x", 24.0], [-64.0, 31.0]]),          # non-numeric entries
    ("B_c", [[{}, 0.5], [1.0, 3.0]]),
    ("T_s", None),
    ("T_s", [1.0]),
    ("N", True),                                    # bool is an int subclass
], ids=["ragged-A_c", "ragged-u", "string", "object", "T_s-null", "T_s-list",
        "N-true"])
def test_malformed_numbers_are_one_model_error_line(tmp_path, capsys, key, value):
    payload = benchmark_payload(horizon=2) | {"zbar": [3.0, 0.0, 0.0], key: value}
    assert main(["discretize", write_model(tmp_path, payload)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqdisc:"), lines
    assert key.lower() in lines[0].lower()


@pytest.mark.parametrize("args", [
    ["discretize"],
    ["solve"],
    ["expected-cost", "--subdiv", "4"],
    ["montecarlo", "--sims", "8", "--subdiv", "4"],
    ["benchmark", "--schemes", "classic_rk4", "--max-exp", "0", "--reps", "1"],
], ids=lambda args: args[0])
def test_unwritable_output_is_an_argument_error(tmp_path, capsys, args):
    model = write_model(tmp_path, scalar_payload())
    out = tmp_path / "missing" / "out"
    assert main([args[0], model, *args[1:], "-o", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqdisc:"), lines
    assert "cannot write output file" in lines[0]


def test_unknown_method_is_an_argument_error(tmp_path, capsys):
    path = write_model(tmp_path, scalar_payload())
    assert main(["discretize", path, "--method", "magic"]) == 2
    assert main(["discretize", path, "--method", "ode:rk9"]) == 2
    assert main(["discretize", path, "--steps", "0"]) == 2
    assert main(
        ["discretize", path, "--method", "sqr:classic_rk4", "--steps", "12"]
    ) == 2
    capsys.readouterr()


def test_divergence_is_a_numerical_error(tmp_path, capsys):
    payload = scalar_payload()
    payload["A_c"] = [[-64000.0]]
    path = write_model(tmp_path, payload)
    code = main(
        ["discretize", path, "--method", "ode:explicit_euler", "--steps", "64"]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("lqdisc:")
    assert "diverged" in err


def test_dimension_cap_is_a_resource_error(bench_file, capsys):
    code = main(
        ["montecarlo", bench_file, "--sims", "1", "--subdiv", "4096"]
    )
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("lqdisc:")
    assert "exceeds the cap" in err
    # the way out names flags the command has
    assert "--subdiv" in err and "--dim-cap" in err


def test_draws_above_the_sampler_budget_per_replicate_are_a_resource_error(bench_file, capsys):
    # under the cap, but 8388610 draws per replicate are above the
    # sampler's budget: refused before any other work
    code = main(["montecarlo", bench_file, "--subdiv", str(2 ** 22),
                 "--dim-cap", str(2 ** 24)])
    assert code == 5
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqdisc:"), lines
    assert "dimension 8388610" in lines[0]
    assert "the sampler's budget per replicate" in lines[0]
    assert "--subdiv" in lines[0]


@pytest.mark.parametrize("args", [
    ["montecarlo", "--subdiv", "16", "--sims", "64", "--bins", str(10 ** 14)],
    ["montecarlo", "--subdiv", "16", "--sims", str(10 ** 17)],
    ["expected-cost", "--subdiv", str(10 ** 13)],
], ids=["montecarlo-bins", "montecarlo-sims", "expected-cost-subdiv"])
def test_an_allocation_the_system_refuses_is_a_resource_error(tmp_path, capsys, args):
    # each request needs an array or list of more than 128 TiB, beyond a
    # 47-bit address space, so the system refuses it under any overcommit
    # policy; no cap of the library foresees these sizes
    model = write_model(tmp_path, json.loads((BENCH_DATA / "stiff.json").read_text()))
    assert main([args[0], model, *args[1:], "-o", str(tmp_path / "out")]) == 5
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqdisc:"), lines
    assert "allocate" in lines[0]
    assert not list(tmp_path.glob("out*"))


# README's exit-code table, by failure class; a library error class that is
# missing here has no documented code, and its case below fails
DOCUMENTED_EXIT_CODES = {
    "_UsageError": 2,
    "LqdiscError": 3,
    "ValidationError": 3,
    "SingularMatrixError": 4,
    "DivergenceError": 4,
    "NormOverflowError": 4,
    "IllConditionedError": 4,
    "ConvexityError": 4,
    "ResourceLimitError": 5,
    "MemoryError": 5,
}
LIBRARY_ERRORS = [
    value for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, errors.LqdiscError)
]


@pytest.mark.parametrize("error", [cli._UsageError, *LIBRARY_ERRORS, MemoryError],
                         ids=lambda error: error.__name__)
def test_every_failure_exits_with_its_documented_code(
    tmp_path, capsys, monkeypatch, error
):
    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr("lqdisc.cli.expected_costs", fail)
    assert error.__name__ in DOCUMENTED_EXIT_CODES, "no documented exit code"
    path = write_model(tmp_path, scalar_payload())
    assert main(["expected-cost", path]) == DOCUMENTED_EXIT_CODES[error.__name__]
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqdisc:"), lines
    assert captured.out == ""


def test_montecarlo_forms_no_dim_by_dim_array(tmp_path, capsys):
    # stiff at H = 7, --subdiv 256: dim 3586, where a dim x dim q_big
    # would take 103 MB; one replicate needs pieces linear in m_blk = 512
    # and no m_blk x m_blk noise_quad (2 MB)
    payload = json.loads((BENCH_DATA / "stiff.json").read_text()) | {"N": 7}
    path = write_model(tmp_path, payload)
    dim = 2 + 7 * 256 * 2
    tracemalloc.start()
    try:
        code = main(["montecarlo", path, "--sims", "1", "--subdiv", "256",
                     "-o", str(tmp_path / "mc")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak < 0.1 * dim * dim * 8, peak / (dim * dim * 8)


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_dimension_cap_below_one_is_an_argument_error(bench_file, capsys, cap):
    assert main(["montecarlo", bench_file, "--sims", "1", "--dim-cap", cap]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"lqdisc: --dim-cap must be >= 1, got {cap}"], lines


def test_overflowing_norm_is_a_numerical_error(tmp_path, capsys):
    payload = scalar_payload() | {
        "A_c": [[-1e308, 1e308], [1e308, -1e308]],
        "B_c": [[1.0], [0.0]], "G_c": [[0.0, 0.0], [0.0, 0.0]],
        "C_c": [[1.0, 0.0]], "x0_mean": [0.0, 0.0],
        "x0_cov": [[0.0, 0.0], [0.0, 0.0]],
    }
    path = write_model(tmp_path, payload)
    assert main(["discretize", path, "--method", "expm"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqdisc:")
    assert "1-norm" in lines[0] and "overflows" in lines[0]


@pytest.mark.parametrize("scale, method", [
    (1e20, "expm"),                 # exp of the drift overflows; exact value is bounded
    (1e308, "ode:classic_rk4"),
    (1e308, "sqr:classic_rk4"),
])
def test_non_finite_result_is_one_numerical_error_line(tmp_path, scale, method):
    payload = scalar_payload() | {
        "A_c": [[-scale, scale], [scale, -scale]],
        "B_c": [[1.0], [0.0]], "G_c": [[0.0, 0.0], [0.0, 0.0]],
        "C_c": [[1.0, 0.0]], "x0_mean": [0.0, 0.0],
        "x0_cov": [[0.0, 0.0], [0.0, 0.0]],
    }
    path = write_model(tmp_path, payload)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # a subprocess, so that numpy warnings reach stderr as a user sees them
    run = subprocess.run(
        [sys.executable, "-m", "lqdisc.cli", "discretize", path, "--method", method],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 4
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqdisc:"), run.stderr
    assert "diverged" in lines[0]


def _run_cli(args):
    """The CLI in a subprocess, so that numpy warnings reach stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "lqdisc.cli", *args],
        capture_output=True, text=True, env=env,
    )


def _projector_payload(scale):
    """exp(A_c T_s) of this drift is the projector [[0.5, 0.5], [0.5, 0.5]]."""
    return scalar_payload() | {
        "A_c": [[-scale, scale], [scale, -scale]],
        "B_c": [[1.0], [0.0]], "G_c": [[0.0, 0.0], [0.0, 0.0]],
        "C_c": [[1.0, 0.0]], "x0_mean": [0.0, 0.0],
        "x0_cov": [[0.0, 0.0], [0.0, 0.0]],
    }


def test_ill_conditioned_drift_is_one_numerical_error_line(tmp_path):
    # ||A_c||_1 T_s eps = 4.4: the finite closed form was 0.32 off
    path = write_model(tmp_path, _projector_payload(1e16))
    run = _run_cli(["discretize", path, "--method", "expm"])
    assert run.returncode == 4
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqdisc:"), run.stderr
    assert "ill-conditioned" in lines[0]


def test_large_but_trustworthy_drift_still_discretizes(tmp_path):
    path = write_model(tmp_path, _projector_payload(1e12))
    run = _run_cli(["discretize", path, "--method", "expm"])
    assert run.returncode == 0, run.stderr
    a = np.array(json.loads(run.stdout)["A"])
    assert np.abs(a - 0.5).max() <= 1e-4


# ---------------------------------------------------------------------------
# parser reuse and the JSON writer
# ---------------------------------------------------------------------------

def test_parser_reuse_leaves_no_state_behind(bench_file, capsys):
    assert main(["discretize", bench_file, "--method", "ode:classic_rk4",
                 "--steps", "8"]) == 0
    flagged = capsys.readouterr().out
    assert main(["discretize", bench_file]) == 0
    second = capsys.readouterr().out
    fresh = subprocess.run(
        [sys.executable, "-m", "lqdisc.cli", "discretize", bench_file],
        capture_output=True, text=True,
    )
    assert fresh.returncode == 0
    assert second == fresh.stdout
    assert second != flagged


@functools.cache
def _writer_payloads():
    model = continuous_model_from_dict(
        benchmark_payload(horizon=3) | {"zbar": [[3.0, 0.0, 0.0]]}
    )
    disc = discretize_expm(model)
    summary = monte_carlo(model, 4, 64, seed=2, n_bins=7)
    return {
        "discretize": discrete_model_to_dict(disc),
        "discretize_ode": discrete_model_to_dict(
            discretize_ode(model, "esdirk34", 16)
        ),
        "expected-cost": {
            "expected_cost": expected_costs(model, n_sub=8)
        },
        "montecarlo": summary.to_dict(),
        "special": {
            "z": [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-310, 2.5e300],
            "a": [[], [[]], {}, [{}], [1, 2.0, True, None, "x"]],
            "nested": {"b": {"c": [1.5, [2.5, {"d": "line\nbreak"}]]},
                       "a": (0.5, 1.5), "e": math.nan},
            "ints": {3: [1.0], 1: {"q": [2.0]}},
            "floats": np.linspace(0.0, 1.0, 5).tolist(),
            "numpy_floats": list(np.linspace(0.0, 1.0, 3)),
            "int_lists": [[-3, 0, 7], [2 ** 64 + 1, -(2 ** 70)], [1, True, 0]],
            "scalar": -0.0,
        },
    }


@pytest.mark.parametrize(
    "kind",
    ["discretize", "discretize_ode", "expected-cost", "montecarlo", "special"],
)
def test_json_writer_matches_json_dumps(kind):
    payload = _writer_payloads()[kind]
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------

def test_discretize_stdout_is_pure_json(tmp_path, capsys):
    path = write_model(tmp_path, scalar_payload())
    assert main(["discretize", path, "--method", "expm"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "A", "B", "C", "D", "Q", "M", "R_ww", "T_s", "q_k", "rho_k"
    }
    q = np.array(payload["Q"])
    assert np.allclose(q, [[1.0, 0.5], [0.5, 1.0 / 3.0]], atol=1e-12)


def test_discretize_file_round_trips_bitwise(tmp_path, capsys):
    model_path = write_model(tmp_path, benchmark_payload() | {"zbar": [[3.0, 0.0, 0.0]]})
    out_path = tmp_path / "disc.json"
    assert main(["discretize", model_path, "-o", str(out_path)]) == 0
    status = capsys.readouterr().out
    assert str(out_path) in status and "method=expm" in status

    text = out_path.read_text()
    payload = json.loads(text)
    rebuilt = discrete_model_to_dict(discrete_model_from_dict(payload))
    assert json.dumps(rebuilt, indent=2, sort_keys=True) == text.rstrip("\n")


@pytest.mark.parametrize("method, steps_note", [
    ("expm", None), ("ode:classic_rk4", "N=8"), ("sqr:classic_rk4", "N=8"),
])
def test_discretize_status_line_names_a_step_count_only_for_step_methods(
        tmp_path, capsys, method, steps_note):
    model_path = write_model(tmp_path, scalar_payload())
    out_path = tmp_path / "disc.json"
    assert main(["discretize", model_path, "--method", method, "--steps", "8",
                 "-o", str(out_path)]) == 0
    status = capsys.readouterr().out
    assert f"method={method} " in status
    if steps_note is None:
        assert "N=" not in status       # the closed form takes no step count
    else:
        assert f" {steps_note} " in status


@pytest.mark.parametrize("args", [
    ["discretize", "--method", "sqr:classic_rk4", "--doubling", "1100"],
    ["discretize", "--method", "ode:classic_rk4", "--steps", str(2 ** 1024)],
    ["solve", "--method", "ode:classic_rk4", "--steps", str(2 ** 1024)],
], ids=["discretize-sqr", "discretize-ode", "solve-ode"])
def test_step_count_too_large_for_a_float_is_a_validation_error(tmp_path, capsys, args):
    path = write_model(tmp_path, scalar_payload())
    assert main([args[0], path, *args[1:]]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqdisc:"), lines
    assert "n_steps" in lines[0]


@pytest.mark.parametrize("args", [
    ["--doubling", "21"],
    ["--steps", str(2 ** 21)],
], ids=["doubling", "steps"])
def test_squaring_route_refuses_more_than_2_pow_20_steps(tmp_path, capsys, args):
    path = write_model(tmp_path, scalar_payload())
    assert main(["discretize", path, "--method", "sqr:classic_rk4", *args]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqdisc:"), lines
    assert "n_steps" in lines[0] and "--method expm" in lines[0]


@pytest.mark.parametrize("method, code", [
    ("ode:classic_rk4", 3), ("sqr:classic_rk4", 3), ("expm", 0),
])
def test_doubling_is_checked_as_an_exponent(tmp_path, capsys, method, code):
    # 2**J at this J would be a 12.5 GB integer: the step routes refuse J
    # above 20 with their own bound, and the closed form ignores it
    path = write_model(tmp_path, scalar_payload())
    out = tmp_path / "disc.json"
    assert main(["discretize", path, "--method", method,
                 "--doubling", "100000000000", "-o", str(out)]) == code
    captured = capsys.readouterr()
    if code:
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("lqdisc:"), lines
        assert "n_steps must be <= 1048576 (2**20)" in lines[0]
        assert not out.exists()
    else:
        assert captured.err == "" and "N=" not in captured.out
        assert out.exists()


@pytest.mark.parametrize("method, args, asked", [
    ("ode:classic_rk4", ["--steps", str(2 ** 21)], "2097152"),
    ("ode:classic_rk4", ["--doubling", "30"], "2**30"),
    ("sqr:classic_rk4", ["--doubling", "30"], "2**30"),
], ids=["ode-steps", "ode-doubling", "sqr-doubling"])
def test_step_bound_refusal_names_the_count_asked_for(
    tmp_path, capsys, method, args, asked
):
    path = write_model(tmp_path, scalar_payload())
    assert main(["discretize", path, "--method", method, *args]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqdisc:"), lines
    assert "n_steps must be <= 1048576 (2**20)" in lines[0]
    assert f" route, got {asked}; " in lines[0]


def test_discretize_doubling_flag_matches_power_of_two_steps(tmp_path, capsys):
    model_path = write_model(tmp_path, scalar_payload())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["discretize", model_path, "--method", "sqr:classic_rk4",
                 "--doubling", "3", "-o", str(a)]) == 0
    assert main(["discretize", model_path, "--method", "sqr:classic_rk4",
                 "--steps", "8", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("method", ["ode:classic_rk4", "sqr:classic_rk4"])
def test_doubling_writes_the_bytes_of_its_power_of_two_steps(tmp_path, capsys, method):
    model_path = str(BENCH_DATA / "stiff.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["discretize", model_path, "--method", method,
                 "--doubling", "3", "-o", str(a)]) == 0
    assert main(["discretize", model_path, "--method", method,
                 "--steps", "8", "-o", str(b)]) == 0
    assert f"method={method} N=8 " in capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()


def test_discretize_refuses_steps_and_doubling_together(tmp_path, capsys):
    model_path = write_model(tmp_path, scalar_payload())
    code = main(["discretize", model_path, "--method", "ode:classic_rk4",
                 "--steps", "5", "--doubling", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--doubling: not allowed with argument --steps" in captured.err


def test_broadcast_input_vector_fills_the_horizon(tmp_path, capsys):
    payload = benchmark_payload(horizon=4)
    payload["zbar"] = [3.0, 0.0, 0.0]  # broadcast targets too
    path = write_model(tmp_path, payload)
    assert main(["discretize", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["q_k"]) == 4
    assert len(out["rho_k"]) == 4


def test_broadcast_one_row_matrices_fill_the_horizon(tmp_path, capsys):
    rows = benchmark_payload(horizon=10)
    rows["u"] = [[1.0, 1.0]]
    rows["zbar"] = [[3.0, 0.0, 0.0]]
    vectors = dict(rows, u=[1.0, 1.0], zbar=[3.0, 0.0, 0.0])
    out_rows = tmp_path / "rows.json"
    out_vectors = tmp_path / "vectors.json"
    assert main(["discretize", write_model(tmp_path, rows, "r.json"),
                 "-o", str(out_rows)]) == 0
    assert main(["discretize", write_model(tmp_path, vectors, "v.json"),
                 "-o", str(out_vectors)]) == 0
    capsys.readouterr()
    assert len(json.loads(out_rows.read_text())["q_k"]) == 10
    assert out_rows.read_bytes() == out_vectors.read_bytes()


def test_tracking_form_equals_stacked_form(tmp_path, capsys):
    stacked = benchmark_payload()
    stacked["zbar"] = [[3.0, 0.0, 0.0]]
    tracking = {
        k: stacked[k]
        for k in ("A_c", "B_c", "G_c", "T_s", "N", "u", "x0_mean", "x0_cov")
    }
    tracking["tracking"] = {
        "C": [[1.0, 1.0]],
        "D": [[0.0, 0.0]],
        "Q_zz": [[1.0]],
        "Q_uu": [[1.0, 0.0], [0.0, 1.0]],
        "zbar": [[3.0]],
        "ubar": [[0.0, 0.0]],
    }
    out_a = tmp_path / "stacked.json"
    out_b = tmp_path / "tracking.json"
    assert main(["discretize", write_model(tmp_path, stacked, "s.json"),
                 "-o", str(out_a)]) == 0
    assert main(["discretize", write_model(tmp_path, tracking, "t.json"),
                 "-o", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_benchmark_csv_schema(tmp_path, capsys):
    model_path = write_model(tmp_path, scalar_payload())
    out = tmp_path / "bench.csv"
    assert main(["benchmark", model_path, "--schemes", "classic_rk4",
                 "--max-exp", "2", "--reps", "1", "-o", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["scheme", "method", "N", "e_A", "e_B", "e_Rww",
                       "e_M", "e_Q", "cpu_seconds"]
    assert rows[1][:3] == ["expm", "expm", "1"]
    assert all(float(v) == 0.0 for v in rows[1][3:8])
    body = rows[2:]
    assert [r[:3] for r in body] == [
        ["classic_rk4", "ode", "1"], ["classic_rk4", "sqr", "1"],
        ["classic_rk4", "ode", "2"], ["classic_rk4", "sqr", "2"],
        ["classic_rk4", "ode", "4"], ["classic_rk4", "sqr", "4"],
    ]
    for row in body:
        for cell in row[3:]:
            assert np.isfinite(float(cell))
        assert float(row[8]) >= 0.0


def test_benchmark_error_cells_are_the_routes_distances_to_the_closed_form(
    bench_file, tmp_path, capsys
):
    out = tmp_path / "bench.csv"
    assert main(["benchmark", bench_file, "--schemes", "classic_rk4",
                 "--max-exp", "2", "--reps", "1", "-o", str(out)]) == 0
    capsys.readouterr()
    model = continuous_model_from_dict(json.loads(Path(bench_file).read_text()))
    truth = discretize_expm(model)
    routes = {
        "ode": lambda j: discretize_ode(model, scheme="classic_rk4", n_steps=2 ** j),
        "sqr": lambda j: discretize_step_doubling(model, scheme="classic_rk4",
                                                  doublings=j),
    }
    body = list(csv.reader(out.read_text().splitlines()))[2:]
    assert [row[1:3] for row in body] == [
        [method, str(2 ** j)] for j in range(3) for method in ("ode", "sqr")
    ]
    for row in body:
        disc = routes[row[1]](int(row[2]).bit_length() - 1)
        want = [
            repr(float(np.max(np.abs(getattr(disc, name) - getattr(truth, name)))))
            for name in ("a", "b", "r_ww", "m", "q")
        ]
        assert row[3:8] == want, row[:3]


def test_benchmark_unknown_scheme_is_an_argument_error(tmp_path, capsys):
    model_path = write_model(tmp_path, scalar_payload())
    assert main(["benchmark", model_path, "--schemes", "rk9"]) == 2
    assert main(["benchmark", model_path, "--reps", "0"]) == 2
    capsys.readouterr()


def test_benchmark_refuses_max_exp_above_the_step_bound_before_timing(
    tmp_path, capsys, monkeypatch
):
    # 2**21 steps is above the fixed-step route's bound; the refusal comes
    # before any row is timed, not from the first call that reaches it
    def refuse(*args, **kwargs):
        raise AssertionError("a row was timed before --max-exp was checked")

    monkeypatch.setattr("lqdisc.cli.discretize_ode", refuse)
    model_path = write_model(tmp_path, scalar_payload())
    out = tmp_path / "bench.csv"
    assert main(["benchmark", model_path, "--schemes", "classic_rk4",
                 "--max-exp", "21", "--reps", "1", "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert "--max-exp must be <= 20" in err and "Traceback" not in err
    assert not out.exists()


def test_benchmark_cpu_seconds_is_cpu_time(tmp_path, capsys, monkeypatch):
    # a sleep takes wall-clock time but no CPU time, so the column must not see it
    def sleepy_expm(model):
        time.sleep(0.02)
        return discretize_expm(model)

    monkeypatch.setattr("lqdisc.cli.discretize_expm", sleepy_expm)
    model_path = write_model(tmp_path, scalar_payload())
    out = tmp_path / "bench.csv"
    assert main(["benchmark", model_path, "--schemes", "classic_rk4",
                 "--max-exp", "0", "--reps", "3", "-o", str(out)]) == 0
    capsys.readouterr()
    expm_row = list(csv.reader(out.read_text().splitlines()))[1]
    assert expm_row[:3] == ["expm", "expm", "1"]
    assert float(expm_row[8]) < 0.01


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def test_montecarlo_runs_a_model_without_noise_inputs(tmp_path, capsys):
    # G_c with no columns (n_w = 0): the quadratic form is its x0 block alone
    payload = benchmark_payload(horizon=3) | {"zbar": [3.0, 0.0, 0.0], "G_c": [[], []]}
    prefix = tmp_path / "quiet"
    assert main(["montecarlo", write_model(tmp_path, payload), "--sims", "500",
                 "--subdiv", "8", "-o", str(prefix)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "quiet.json").read_text())
    means = summary["sample_mean"]
    assert max(means.values()) - min(means.values()) <= 1e-12 * abs(summary["analytic_mean"])
    assert min(summary["correlations"].values()) >= 0.999999
    assert summary["analytic_var"] > 0.0      # x0_cov still spreads the cost


def test_montecarlo_outputs_and_worker_independence(bench_file, tmp_path, capsys):
    args = ["montecarlo", bench_file, "--sims", "2048", "--seed", "5",
            "--subdiv", "8"]
    assert main(args + ["--workers", "1", "-o", str(tmp_path / "w1")]) == 0
    assert main(args + ["--workers", "3", "-o", str(tmp_path / "w3")]) == 0
    status = capsys.readouterr().out
    assert "w1.json" in status and "w1.csv" in status

    json_1 = (tmp_path / "w1.json").read_bytes()
    json_3 = (tmp_path / "w3.json").read_bytes()
    assert json_1 == json_3
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()

    summary = json.loads(json_1)
    assert summary["n_sims"] == 2048
    assert set(summary["sample_mean"]) == {"continuous", "discrete", "em_form"}
    assert summary["analytic_var"] > 0.0

    rows = list(csv.reader((tmp_path / "w1.csv").read_text().splitlines()))
    assert rows[0] == ["bin_left", "bin_right", "continuous", "discrete", "em_form"]
    assert len(rows) == 1 + len(summary["histogram"]["edges"]) - 1
    counted = sum(int(r[2]) for r in rows[1:])
    assert 0 < counted <= 2048


# ---------------------------------------------------------------------------
# expected-cost and solve
# ---------------------------------------------------------------------------

def test_expected_cost_prints_both_routes(tmp_path, capsys):
    path = write_model(tmp_path, scalar_payload())
    assert main(["expected-cost", path]) == 0
    out = json.loads(capsys.readouterr().out)
    routes = out["expected_cost"]
    assert set(routes) == {"ode", "em"}
    # no noise: both routes are the deterministic ramp cost 1/6
    assert routes["ode"] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert routes["em"] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_expected_cost_has_no_quadrature_step_option(tmp_path, capsys):
    path = write_model(tmp_path, scalar_payload())
    assert main(["expected-cost", path, "--quad-steps", "4"]) == 2
    assert "--quad-steps" in capsys.readouterr().err


def test_solve_status_line_prints_a_plain_number(tmp_path, capsys):
    payload = benchmark_payload(horizon=4)
    payload["zbar"] = [[3.0, 0.0, 0.0]] * 4
    path = write_model(tmp_path, payload)
    out = tmp_path / "traj.csv"
    assert main(["solve", path, "-o", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    prefix = f"wrote {out}: value="
    assert line.startswith(prefix)
    # repr of a Python float, not of a numpy scalar (``np.float64(...)``)
    value = line[len(prefix):]
    assert value == repr(float(value))


def test_solve_writes_trajectory_csv(tmp_path, capsys):
    payload = benchmark_payload(horizon=4)
    payload["zbar"] = [[3.0, 0.0, 0.0]] * 4
    path = write_model(tmp_path, payload)
    out = tmp_path / "traj.csv"
    assert main(["solve", path, "-o", str(out)]) == 0
    assert "value=" in capsys.readouterr().out
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["k", "x0", "x1", "u0", "u1"]
    assert len(rows) == 1 + 5
    assert [float(v) for v in rows[1][1:3]] == [0.0, 1.0]
    assert rows[-1][3] == "" and rows[-1][4] == ""
    ks = [int(r[0]) for r in rows[1:]]
    assert ks == [0, 1, 2, 3, 4]
