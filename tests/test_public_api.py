"""The public surface: what ``lqdisc`` exports and what its stochastic API takes."""

import inspect

import lqdisc
from lqdisc import stochastic

PUBLIC = [
    "SCHEMES",
    "ButcherTableau",
    "ContinuousLqModel",
    "ConvexityError",
    "DiscreteLqModel",
    "DivergenceError",
    "EmReformulation",
    "IllConditionedError",
    "LqSolution",
    "LqdiscError",
    "McSummary",
    "NormOverflowError",
    "ResourceLimitError",
    "SingularMatrixError",
    "TrackingSpec",
    "ValidationError",
    "build_stacked_model",
    "continuous_model_from_dict",
    "continuous_model_to_dict",
    "cost_moments",
    "cost_moments_streaming",
    "discrete_model_from_dict",
    "discrete_model_to_dict",
    "discretize_expm",
    "discretize_ode",
    "discretize_step_doubling",
    "em_interval_ops",
    "em_reformulate",
    "expected_costs",
    "expm",
    "monte_carlo",
    "solve_finite_horizon",
    "symmetrize",
    "tableau",
    "__version__",
]


def test_package_exports_exactly_the_public_names():
    assert lqdisc.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(lqdisc, name), name


def _public_stochastic_functions():
    return {
        name: fn
        for name, fn in vars(stochastic).items()
        if inspect.isfunction(fn)
        and not name.startswith("_")
        and fn.__module__ == stochastic.__name__
    }


def test_no_public_stochastic_function_takes_a_discretization():
    # every entry point discretizes its model itself, so a model and a
    # discretization of another model cannot meet
    functions = _public_stochastic_functions()
    assert {"em_interval_ops", "em_reformulate", "cost_moments",
            "cost_moments_streaming", "expected_costs", "monte_carlo"} <= set(functions)
    takes_disc = {
        name for name, fn in functions.items()
        if "disc" in inspect.signature(fn).parameters
    }
    assert takes_disc == set()


def test_expected_costs_takes_no_route_option():
    params = list(inspect.signature(stochastic.expected_costs).parameters)
    assert params == ["model", "n_sub"]


def test_monte_carlo_takes_the_model_and_its_refinement():
    params = list(inspect.signature(stochastic.monte_carlo).parameters)
    assert params == ["model", "n_sub", "n_sims", "seed", "workers", "n_bins", "dim_cap"]
    assert inspect.signature(stochastic.monte_carlo).parameters["workers"].default == 1


def test_traced_functions_keep_the_argument_names_the_benchmark_reads():
    # perfbench/spans.py binds every traced call's arguments by name to
    # count its work; renaming one of these makes each traced request of
    # that function fail, while untraced runs still pass
    read_by_name = {
        lqdisc.discretize_step_doubling: "doublings",
        lqdisc.discretize_ode: "n_steps",
        lqdisc.solve_finite_horizon: "disc",
        stochastic.em_interval_ops: "n_sub",
        stochastic.cost_moments_streaming: "model",
    }
    for fn, name in read_by_name.items():
        assert name in inspect.signature(fn).parameters, (fn.__name__, name)
    # it also reads em_reformulate's result.dim
    assert isinstance(stochastic.EmReformulation.dim, property)
