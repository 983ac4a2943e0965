"""Command line interface.

Subcommands: ``discretize``, ``benchmark``, ``montecarlo``,
``expected-cost``, ``solve``.  Models are JSON files; results go to
stdout or ``-o``.  ``expected-cost`` prints both noise-integral routes:
``ode``, exact, and ``em``, the Euler-Maruyama sum at ``--subdiv``
sub-steps.  Both walk the exact interval covariance, so ``em`` equals the
``analytic_mean`` of ``montecarlo`` at ``N = 1`` only.  Exit codes: 0
success, 2 bad usage/arguments (including an unreadable model file or an
unwritable output path), 3 invalid model data, 4 numerical failure
(divergence, singular stage, non-convex stage, overflowing norm), 5
resource cap exceeded or an allocation the system refused.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import statistics
import sys
import time

import numpy as np

from . import __version__
from .butcher import SCHEMES
from .doubling import discretize_step_doubling
from .errors import (
    ConvexityError,
    DivergenceError,
    IllConditionedError,
    LqdiscError,
    NormOverflowError,
    ResourceLimitError,
    SingularMatrixError,
    ValidationError,
)
from .expm_method import discretize_expm
from .lqsolve import solve_finite_horizon
from .model import (
    continuous_model_from_dict,
    discrete_model_to_dict,
)
from .ode_method import MAX_DOUBLINGS, MAX_STEPS, check_step_bound, discretize_ode
from .stochastic import DEFAULT_DIM_CAP, expected_costs, monte_carlo

_PROG = "lqdisc"


class _UsageError(Exception):
    """Bad arguments, unreadable input or unwritable output file (exit code 2)."""


# failure -> exit code, first match wins; the module docstring lists the codes
_EXIT_CODES = (
    (_UsageError, 2),
    (ValidationError, 3),
    ((DivergenceError, SingularMatrixError, ConvexityError, NormOverflowError,
      IllConditionedError), 4),
    (ResourceLimitError, 5),
    (LqdiscError, 3),       # any other library failure
)


def _fail(message: str) -> None:
    print(f"{_PROG}: {message}", file=sys.stderr)


def _load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file is not valid JSON: {exc}") from exc
    return continuous_model_from_dict(data)


def _check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise _UsageError(
            f"unknown scheme {scheme!r}; choose from " + ", ".join(sorted(SCHEMES))
        )
    return scheme


def _doublings_for(n_steps: int) -> int:
    if n_steps < 1 or n_steps & (n_steps - 1):
        raise _UsageError(
            f"squaring method needs a power-of-two step count, got {n_steps}"
        )
    return n_steps.bit_length() - 1


def _run_method(model, method: str, n_steps: int, doublings: int | None = None):
    """The discretization by ``method`` (``expm``, ``ode:<scheme>`` or
    ``sqr:<scheme>``) at ``n_steps`` sub-steps, or at ``2**doublings`` when
    ``doublings`` is given.  An exponent past the step bound is refused
    without its power of two being built, which for a huge exponent would
    be a huge integer."""
    if method == "expm":
        return discretize_expm(model)
    kind, colon, scheme = method.partition(":")
    if not colon or kind not in ("ode", "sqr"):
        raise _UsageError(
            f"unknown method {method!r}; expected 'expm', 'ode:<scheme>' or "
            "'sqr:<scheme>'"
        )
    _check_scheme(scheme)
    if kind == "ode":
        if doublings is not None:
            check_step_bound("fixed-step", doublings=doublings)
            n_steps = 2 ** doublings
        return discretize_ode(model, scheme=scheme, n_steps=n_steps)
    if doublings is None:
        doublings = _doublings_for(n_steps)
    return discretize_step_doubling(model, scheme=scheme, doublings=doublings)


def _require_at_least(value: int, minimum: int, name: str) -> None:
    if value < minimum:
        raise _UsageError(f"{name} must be >= {minimum}, got {value}")


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text``, ending in one newline, to stdout or to ``out_path``."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write output file: {exc}") from exc


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, with
    every line after the first indented by ``pad``.

    With ``indent`` set, ``json`` runs its pure-Python encoder, one call
    per number; here a list of finite floats, or of ints, is written in
    one pass.
    """
    inner = pad + "  "
    if type(value) is dict and value and all(type(k) is str for k in value):
        items = (
            f"{json.dumps(key)}: {_json_text(item, inner)}"
            for key, item in sorted(value.items())
        )
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if type(value) in (list, tuple) and value:
        try:
            text = (",\n" + inner).join(map(float.__repr__, value))
            done = "n" not in text      # "nan"/"inf": json writes NaN/Infinity
        except TypeError:               # an item that is not a float
            done = all(type(v) is int for v in value)     # bools are not
            if done:
                text = (",\n" + inner).join(map(int.__repr__, value))
        if not done:
            text = (",\n" + inner).join(_json_text(v, inner) for v in value)
        return "[\n" + inner + text + "\n" + pad + "]"
    # leaves, empty containers and anything unusual: json's own output,
    # re-indented (json escapes every newline inside a string)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_discretize(args) -> int:
    model = _load_model(args.model)
    if args.doubling is None:
        _require_at_least(args.steps, 1, "--steps")
    else:
        _require_at_least(args.doubling, 0, "--doubling")
    disc = _run_method(model, args.method, args.steps, args.doubling)
    _emit(_json_text(discrete_model_to_dict(disc)), args.output)
    if args.output is not None:
        n_x, n_u = disc.b.shape
        # the closed form takes no step count (and ignores --doubling); a
        # step route that got here took at most 2**20 steps
        steps_note = ""
        if args.method != "expm":
            steps = args.steps if args.doubling is None else 2 ** args.doubling
            steps_note = f" N={steps}"
        print(
            f"wrote {args.output}: method={args.method}{steps_note} "
            f"n_x={n_x} n_u={n_u} T_s={disc.t_s}"
        )
    return 0


def _max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _median_seconds(fn, reps: int, warmups: int = 2) -> float:
    for _ in range(warmups):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.process_time()
        fn()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def _cmd_benchmark(args) -> int:
    model = _load_model(args.model)
    schemes = [_check_scheme(s.strip()) for s in args.schemes.split(",") if s.strip()]
    _require_at_least(args.max_exp, 0, "--max-exp")
    reps = args.reps
    _require_at_least(reps, 1, "--reps")
    # refused before any row is timed (compared as exponents: 2**max_exp
    # of a huge --max-exp would be a huge integer)
    if args.max_exp > MAX_DOUBLINGS:
        raise ValidationError(
            f"--max-exp must be <= {MAX_DOUBLINGS}: the fixed-step route takes at "
            f"most {MAX_STEPS} (2**{MAX_DOUBLINGS}) steps, got --max-exp {args.max_exp}"
        )

    truth = discretize_expm(model)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["scheme", "method", "N", "e_A", "e_B", "e_Rww", "e_M", "e_Q",
         "cpu_seconds"]
    )

    def write_row(scheme, method, n, run):
        """One row: the errors of an untimed ``run()``, then its median time."""
        disc = run()
        errors = [
            repr(_max_abs(getattr(disc, name), getattr(truth, name)))
            for name in ("a", "b", "r_ww", "m", "q")
        ]
        writer.writerow([scheme, method, n, *errors, repr(_median_seconds(run, reps))])

    write_row("expm", "expm", 1, lambda: discretize_expm(model))
    for scheme in schemes:
        for doublings in range(args.max_exp + 1):
            n = 2 ** doublings
            write_row(scheme, "ode", n,
                      lambda: discretize_ode(model, scheme=scheme, n_steps=n))
            write_row(scheme, "sqr", n,
                      lambda: discretize_step_doubling(model, scheme=scheme,
                                                       doublings=doublings))
    _emit(buf.getvalue(), args.output)
    return 0


def _histogram_csv(summary) -> str:
    """Histogram as CSV: one row per bin, one count column per stream."""
    hist = summary.histogram
    edges = hist["edges"]
    counts = hist["counts"]
    streams = sorted(counts)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin_left", "bin_right"] + streams)
    for i in range(len(edges) - 1):
        writer.writerow(
            [repr(edges[i]), repr(edges[i + 1])]
            + [counts[name][i] for name in streams]
        )
    return buf.getvalue()


def _cmd_montecarlo(args) -> int:
    _require_at_least(args.sims, 1, "--sims")
    _require_at_least(args.subdiv, 1, "--subdiv")
    _require_at_least(args.bins, 1, "--bins")
    _require_at_least(args.workers, 1, "--workers")
    _require_at_least(args.dim_cap, 1, "--dim-cap")
    model = _load_model(args.model)
    summary = monte_carlo(
        model, args.subdiv, n_sims=args.sims, seed=args.seed, workers=args.workers,
        n_bins=args.bins, dim_cap=args.dim_cap,
    )
    json_path = f"{args.output}.json"
    csv_path = f"{args.output}.csv"
    _emit(_json_text(summary.to_dict()), json_path)
    _emit(_histogram_csv(summary), csv_path)
    print(
        f"wrote {json_path} and {csv_path}: sims={summary.n_sims} "
        f"seed={summary.seed} analytic_mean={summary.analytic_mean!r}"
    )
    return 0


def _cmd_expected_cost(args) -> int:
    _require_at_least(args.subdiv, 1, "--subdiv")
    model = _load_model(args.model)
    values = expected_costs(model, n_sub=args.subdiv)
    _emit(_json_text({"expected_cost": values}), args.output)
    return 0


def _cmd_solve(args) -> int:
    _require_at_least(args.steps, 1, "--steps")
    model = _load_model(args.model)
    disc = _run_method(model, args.method, args.steps)
    sol = solve_finite_horizon(disc, model.x0_mean)
    n_x = sol.states.shape[1]
    n_u = sol.inputs.shape[1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["k"]
        + [f"x{i}" for i in range(n_x)]
        + [f"u{i}" for i in range(n_u)]
    )
    inputs = sol.inputs.tolist()
    for k, x in enumerate(sol.states.tolist()):
        u = map(float.__repr__, inputs[k]) if k < len(inputs) else [""] * n_u
        writer.writerow([k, *map(float.__repr__, x), *u])
    _emit(buf.getvalue(), args.output)
    if args.output is not None:
        print(f"wrote {args.output}: value={float(sol.value)!r}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    ``parse_args`` leaves the parser unchanged and returns a fresh
    namespace, so one parser serves every ``main`` call in a process.
    """
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Exact discrete equivalents of sampled linear-quadratic "
        "tracking problems.",
    )
    parser.add_argument("--version", action="version", version=f"{_PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discretize", help="discretize a continuous model")
    p.add_argument("model", help="path to a continuous model JSON file")
    p.add_argument("--method", default="expm",
                   help="expm, ode:<scheme> or sqr:<scheme>")
    steps = p.add_mutually_exclusive_group()
    steps.add_argument("--steps", type=int, default=256,
                       help="sub-steps per interval (power of two for sqr)")
    steps.add_argument("--doubling", type=int, default=None, metavar="J",
                       help="shortcut for --steps 2**J")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("benchmark",
                       help="accuracy/time grid against the closed-form result")
    p.add_argument("model")
    p.add_argument("--schemes", default=",".join(sorted(SCHEMES)),
                   help="comma separated scheme names")
    p.add_argument("--max-exp", type=int, default=8, dest="max_exp",
                   metavar="J", help="run N = 2^0 .. 2^J sub-steps")
    p.add_argument("--reps", type=int, default=9,
                   help="timing repetitions (median is reported)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("montecarlo", help="sample the stochastic cost")
    p.add_argument("model")
    p.add_argument("--sims", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subdiv", type=int, default=256,
                   help="noise refinement sub-steps per interval")
    p.add_argument("--workers", type=int, default=1,
                   help="most threads to run: at most one per 2048-sim block and "
                   "per usable CPU; the output does not depend on it")
    p.add_argument("--bins", type=int, default=60)
    p.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP, dest="dim_cap",
                   help="largest n_x + N*subdiv*n_w (draws per replicate) a run "
                   "samples; each worker holds 2048 x that many draws (64 MiB "
                   "at the default 4096)")
    p.add_argument("-o", "--output", default="mc",
                   help="output prefix; writes <prefix>.json and <prefix>.csv")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("expected-cost",
                       help="closed-form expected total cost (both noise-"
                       "integral routes; em equals montecarlo's analytic_mean "
                       "at N = 1 only)")
    p.add_argument("model")
    p.add_argument("--subdiv", type=int, default=256)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_expected_cost)

    p = sub.add_parser("solve", help="finite-horizon optimal inputs and value")
    p.add_argument("model")
    p.add_argument("--method", default="expm")
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_UsageError, LqdiscError) as exc:
        _fail(str(exc))
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    except MemoryError as exc:      # an allocation no cap foresaw
        detail = f" ({exc})" if str(exc) else ""
        _fail(f"the system refused to allocate the memory this request needs{detail}; "
              "make the request smaller")
        return 5


if __name__ == "__main__":
    sys.exit(main())
