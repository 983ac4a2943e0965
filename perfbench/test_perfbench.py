"""Tests of the benchmark's own arithmetic, on synthetic spans and data.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from measure import percentile, trusted  # noqa: E402
from reference import MATRICES, correct_digits, fewest_digits, load_reference  # noqa: E402
from spans import (  # noqa: E402
    Target,
    Tracer,
    attribute_orphans,
    concurrency,
    layer_figures,
    self_times,
    union_length,
)

MAIN, WORKER = 1, 2


def span(sid, name, start, end, parent=None, request=0, thread=MAIN):
    return (sid, name, start, end, parent, request, thread)


# -- percentile rule -----------------------------------------------------------

def test_percentile_interpolates_between_order_statistics():
    values = list(range(1, 102))            # 1..101: positions are exact
    assert percentile(values, 50) == 51
    assert percentile(values, 90) == 91
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 90) == 5.5
    assert percentile([7.0], 90) == 7.0


def test_percentile_matches_the_statistics_module():
    import statistics

    values = [0.3, 1.7, 0.2, 5.0, 2.2, 0.9, 3.1]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert [percentile(values, q) for q in (25, 50, 75)] == pytest.approx(quartiles)


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p90_is_trusted_from_100_samples():
    assert not trusted(99, 90)
    assert trusted(100, 90)
    assert trusted(20, 50)
    assert not trusted(19, 50)
    assert not trusted(6, 90)


# -- spans ---------------------------------------------------------------------

def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 4), (1, 2)]) == 4.0


def test_self_time_subtracts_children_once():
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "expm_method.discretize_expm", 1.0, 5.0, parent=0),
        span(2, "linalg.expm", 2.0, 4.0, parent=1),
        span(3, "model.require_valid", 6.0, 7.0, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0}


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [
        span(0, "stochastic.monte_carlo", 0.0, 10.0),
        span(1, "sampling.normal_block", 1.0, 5.0, parent=0, thread=WORKER),
        span(2, "sampling.normal_block", 2.0, 6.0, parent=0, thread=WORKER + 1),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_worker_spans_get_the_enclosing_main_span_by_time_window():
    spans = [
        span(0, "cli.main", 0.0, 10.0, request=7),
        span(1, "stochastic.monte_carlo", 1.0, 9.0, parent=0, request=7),
        span(2, "sampling.normal_block", 2.0, 3.0, request=7, thread=WORKER),
        span(3, "sampling.normal_block", 2.0, 3.0, request=8, thread=WORKER),
    ]
    fixed = {s[0]: s[4] for s in attribute_orphans(spans, MAIN)}
    assert fixed == {0: None, 1: 0, 2: 1, 3: None}


def test_concurrency_of_serial_and_overlapping_spans():
    assert concurrency([(0, 1), (1, 2), (3, 4)]) == pytest.approx(1.0)
    assert concurrency([(0, 2), (0, 2)]) == pytest.approx(2.0)
    assert concurrency([(0, 2), (1, 3)]) == pytest.approx(4.0 / 3.0)
    assert concurrency([]) == 0.0


def test_layer_figures_per_call_and_per_request():
    spans = [
        span(0, "ode_method.discretize_ode", 0.0, 0.004, request=0),
        span(1, "butcher.precompute", 0.0, 0.001, parent=0, request=0),
        span(2, "ode_method.discretize_ode", 0.010, 0.012, request=1),
    ]
    counters = {"ode_method.discretize_ode.calls": 2, "butcher.precompute.calls": 1,
                "ode_method.steps": 300}
    out = layer_figures(spans, counters, {}, MAIN, requests=2)
    assert out["ode_method.discretize_ode.self_ms"] == pytest.approx(2.5)
    assert out["ode_method.discretize_ode.calls"] == 1.0
    assert out["ode_method.steps"] == 150.0
    assert out["ode_method.us_per_step"] == pytest.approx(1e6 * 0.005 / 300)
    assert out["sampling.normal_block.calls"] == 0.0
    assert out["sampling.normal_block.concurrency"] == 0.0


def test_tracer_reports_a_missing_name_as_absent():
    tracer = Tracer()
    tracer.install([Target("linalg.gone", "lqdisc.linalg", "NoSuchClass.solve"),
                    Target("linalg.gone", "lqdisc.linalg", "no_such_function"),
                    Target("nowhere.x", "lqdisc.no_such_module", "x")])
    tracer.uninstall()
    assert tracer.absent == ["lqdisc.linalg.NoSuchClass.solve",
                             "lqdisc.linalg.no_such_function",
                             "lqdisc.no_such_module.x"]


def test_tracer_wraps_every_binding_and_restores_them():
    import lqdisc.expm_method
    import lqdisc.linalg

    original = lqdisc.linalg.expm
    tracer = Tracer()
    tracer.install([Target("linalg.expm", "lqdisc.linalg", "expm")])
    try:
        assert lqdisc.expm_method.expm is lqdisc.linalg.expm is not original
        lqdisc.expm_method.expm(np.zeros((2, 2)))
    finally:
        tracer.uninstall()
    assert lqdisc.expm_method.expm is original and lqdisc.linalg.expm is original
    assert tracer.counters["linalg.expm.calls"] == 1
    assert [s[1] for s in tracer.spans] == ["linalg.expm"]


# -- reference -----------------------------------------------------------------

def test_reference_loader_reads_every_system(tmp_path):
    ref = load_reference(os.path.join(HERE, "data", "reference.json"))
    assert sorted(ref) == ["stiff", "wide10", "wide40"]
    for system, n_x, n_u, n_z in (("stiff", 2, 2, 3), ("wide10", 10, 3, 5),
                                  ("wide40", 40, 3, 20)):
        mats = ref[system]
        assert mats["A"].shape == (n_x, n_x)
        assert mats["B"].shape == (n_x, n_u)
        assert mats["Q"].shape == (n_x + n_u, n_x + n_u)
        assert mats["M"].shape == (n_x + n_u, n_z)
        assert mats["R_ww"].shape == (n_x, n_x)
        assert np.array_equal(mats["Q"], mats["Q"].T)


def test_reference_loader_rejects_non_finite_entries(tmp_path):
    entry = {key: [["1.0"]] for key in MATRICES}
    entry["Q"] = [["nan"]]
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({"bad": entry}))
    with pytest.raises(ValueError):
        load_reference(str(path))


def test_correct_digits_is_normwise_and_capped():
    exact = np.array([[100.0, 1.0], [0.0, 2.0]])
    assert correct_digits(exact, exact) == 17.0
    off = exact.copy()
    off[1, 1] += 1e-6                       # 1e-6 / 100 -> 8 digits
    assert correct_digits(off, exact) == pytest.approx(8.0)
    assert correct_digits(np.full((2, 2), np.nan), exact) == 0.0
    assert correct_digits(np.zeros((3, 3)), exact) == 0.0


def test_fewest_digits_names_the_worst_matrix():
    exact = {key: np.eye(2) for key in MATRICES}
    value = {key: np.eye(2) for key in MATRICES}
    value["R_ww"] = np.eye(2) + 1e-9
    assert fewest_digits(value, exact) == (pytest.approx(9.0), "R_ww")
