"""The four workloads: request mixes, generated inputs and output checks.

A request is what a user runs: one ``lqdisc`` subcommand, run in-process
through ``lqdisc.cli.main(argv)``, or one library call where the command
line offers none (``cost_moments_streaming``).  The system matrices are
the fixed files under ``data/``; the workload seed only draws the
per-request inputs, targets and initial mean, the request order and the
Monte Carlo seeds, so the stored reference holds for every seed.

Requests run in rounds: one round holds every request kind of the
workload once (Monte Carlo: a fixed cycle of eight), in a seeded order.
Every run therefore holds the same mix, whatever its seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from reference import MATRICES, fewest_digits

# the workload's own list, so that a scheme the program adds later does not
# change what the benchmark runs
SCHEMES = ("classic_rk4", "esdirk34", "explicit_euler", "explicit_trapezoidal",
           "implicit_euler", "implicit_trapezoidal")
VARIANTS = 8            # generated input files per (system, horizon)

# Tolerances of the output checks (see README.md, "Checks").
EXPM_TOL = 1e-6         # closed form vs reference; stiff Q is at 1.4e-9 today
ROUTE_EQUIV_TOL = 1e-10  # ode:<s> vs sqr:<s> at one step count; 7e-14 today
SCHEME_TOL = {"ode:esdirk34": 1e-4, "sqr:classic_rk4": 1e-7}  # wide systems
AFFINE_TOL = 1e-12      # q_k = zbar_k M' and rho_k against the input file
SOLVE_TOL = 1e-6        # plan value vs its cost under the reference model
REFINE_GAP = 0.1        # expected-cost ode vs em route: |gap| <= REFINE_GAP/n_sub
STREAM_TOL = 1e-9       # streaming vs materialized moments (H=8 cut)
MC_STREAM_TOL = 1e-9    # the three Monte Carlo stream means
MC_SIGMAS = 5.0         # sample mean vs analytic mean, in standard errors


@dataclass(frozen=True)
class Request:
    """One request kind; ``variant``/``mc_seed`` are drawn per round."""

    kind: str                 # "discretize", "solve", "expected-cost", ...
    system: str               # data file name
    horizon: int
    args: tuple = ()          # CLI arguments after the model path
    n_sub: int = 0            # long-horizon noise refinement
    replicates: int = 1       # Monte Carlo sims; 1 for deterministic requests
    sized: bool = True        # counts in latency and requests_per_s
    variant: int = 0
    mc_seed: int | None = None

    @property
    def label(self) -> str:
        """The request kind: what a round holds once."""
        size = (f"n_sub={self.n_sub}",) if self.kind == "streaming" else ()
        return " ".join((self.kind, self.system, f"N={self.horizon}") + self.args + size)


@dataclass
class Result:
    request: Request
    code: int
    latency: float
    out: str
    stdout: str = ""
    stderr: str = ""
    value: object = None
    status: str = "ok"        # ok | refused | failed
    message: str = ""
    speed: float = 1.0        # machine speed while it ran (see run.py)


@dataclass
class Mix:
    name: str
    kinds: list               # one round
    warm: list                # one warm call per request kind, small

    def round(self, rng) -> list:
        drawn = [replace(k, variant=int(rng.integers(VARIANTS)),
                         mc_seed=int(rng.integers(2 ** 31)) if "--sims" in k.args else None)
                 for k in self.kinds]
        return [drawn[i] for i in rng.permutation(len(drawn))]

    def inputs(self) -> set:
        return {(r.system, r.horizon) for r in self.kinds + self.warm}

    def systems(self) -> list:
        return sorted({r.system for r in self.kinds})


def _stiff_grid() -> Mix:
    kinds = []
    for n in (1, 4, 10):
        kinds.append(Request("discretize", "stiff", n, ("--method", "expm")))
        for scheme in SCHEMES:
            for j in range(9):
                for route in ("ode", "sqr"):
                    kinds.append(Request("discretize", "stiff", n,
                                         ("--method", f"{route}:{scheme}",
                                          "--steps", str(2 ** j))))
        kinds.append(Request("solve", "stiff", n, ("--method", "expm")))
    warm = [Request("discretize", "stiff", 1, ("--method", "expm")),
            Request("solve", "stiff", 1, ("--method", "expm"))]
    warm += [Request("discretize", "stiff", 1, ("--method", f"{route}:{s}", "--steps", "1"))
             for s in SCHEMES for route in ("ode", "sqr")]
    return Mix("stiff-grid", kinds, warm)


def _wide_state() -> Mix:
    kinds = []
    for system in ("wide10", "wide40"):
        kinds += [
            Request("discretize", system, 50, ("--method", "expm")),
            Request("discretize", system, 50, ("--method", "ode:esdirk34", "--steps", "64")),
            Request("discretize", system, 50, ("--method", "sqr:classic_rk4", "--doubling", "8")),
            Request("solve", system, 50, ("--method", "expm")),
        ]
    return Mix("wide-state", kinds, list(kinds))


def _long_horizon() -> Mix:
    kinds = []
    for n_sub in (64, 128, 256):
        kinds.append(Request("streaming", "stiff", 200, n_sub=n_sub))
        kinds.append(Request("expected-cost", "stiff", 200,
                             ("--subdiv", str(n_sub)), n_sub=n_sub))
    warm = [Request("streaming", "stiff", 200, n_sub=64),
            Request("expected-cost", "stiff", 200, ("--subdiv", "64"), n_sub=64)]
    return Mix("long-horizon", kinds, warm)


def _monte_carlo() -> Mix:
    sized = [Request("montecarlo", "stiff", 4,
                     ("--sims", "4096", "--subdiv", "256", "--workers", str(w)),
                     replicates=4096)
             for w in (1, 2)]
    # default flags: 10000 sims, --subdiv 256, which today exceeds the
    # quadratic-form cap and exits 5; its size changes once the cap is
    # lifted, so it stays out of latency and requests_per_s
    capped = Request("montecarlo", "stiff", 10, replicates=10000, sized=False)
    kinds = sized * 3 + [capped] * 2
    warm = [replace(r, args=("--sims", "64") + r.args[2:], replicates=64) for r in sized]
    return Mix("monte-carlo", kinds, warm + [capped])


WORKLOADS = {
    "stiff-grid": _stiff_grid,
    "wide-state": _wide_state,
    "long-horizon": _long_horizon,
    "monte-carlo": _monte_carlo,
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def input_path(work: str, system: str, horizon: int, variant: int) -> str:
    return os.path.join(work, f"in-{system}-N{horizon}-v{variant}.json")


def write_inputs(models: dict, needed: set, rng, work: str) -> dict:
    """Draw and write the per-request input files; return their contents.

    Stiff model: inputs 1 + N(0, 0.3^2), tracked output 3 + N(0, 0.3^2),
    x0 mean (0, 1) + N(0, 0.3^2).  Wide models: standard normal inputs,
    targets and x0 mean, as the random-model recipe draws them.
    """
    written = {}
    for system, horizon in sorted(needed):
        base = models[system]
        n_x = len(base["A_c"])
        n_u = len(base["B_c"][0])
        n_z = len(base["C_c"])
        for v in range(VARIANTS):
            if system == "stiff":
                u = 1.0 + 0.3 * rng.standard_normal((horizon, n_u))
                zbar = np.zeros((horizon, n_z))
                zbar[:, 0] = 3.0 + 0.3 * rng.standard_normal(horizon)
                x0 = np.array(base["x0_mean"]) + 0.3 * rng.standard_normal(n_x)
            else:
                u = rng.standard_normal((horizon, n_u))
                zbar = rng.standard_normal((horizon, n_z))
                x0 = rng.standard_normal(n_x)
            payload = dict(base, N=horizon, u=u.tolist(), zbar=zbar.tolist(),
                           x0_mean=x0.tolist())
            with open(input_path(work, system, horizon, v), "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            written[(system, horizon, v)] = payload
    return written


# ---------------------------------------------------------------------------
# running a request
# ---------------------------------------------------------------------------

class Runner:
    """Executes requests against the imported program."""

    def __init__(self, work: str):
        import lqdisc.cli
        import lqdisc.model
        import lqdisc.stochastic

        self.cli = lqdisc.cli
        self.model = lqdisc.model
        self.stochastic = lqdisc.stochastic
        self.work = work

    def argv(self, req: Request, out: str) -> list:
        path = input_path(self.work, req.system, req.horizon, req.variant)
        argv = [req.kind, path, *req.args]
        if req.mc_seed is not None:
            argv += ["--seed", str(req.mc_seed)]
        return argv + ["-o", out]

    def execute(self, req: Request, out: str) -> Result:
        stdout, stderr = io.StringIO(), io.StringIO()
        value = None
        if req.kind == "streaming":
            path = input_path(self.work, req.system, req.horizon, req.variant)
        else:
            argv = self.argv(req, out)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if req.kind == "streaming":
                    with open(path, "r", encoding="utf-8") as fh:
                        model = self.model.continuous_model_from_dict(json.load(fh))
                    value = self.stochastic.cost_moments_streaming(model, req.n_sub)
                    code = 0
                else:
                    # looked up on the module each time so a traced run's
                    # wrapper is the one called
                    code = self.cli.main(argv)
        except Exception:          # a failed request never aborts the run
            code = -1
            stderr.write(traceback.format_exc())
        latency = time.perf_counter() - start
        return Result(req, code, latency, out, stdout.getvalue(), stderr.getvalue(), value)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _rel(value, exact) -> float:
    value, exact = np.asarray(value, float), np.asarray(exact, float)
    scale = max(float(np.abs(exact).max()), 1e-300)
    return float(np.abs(value - exact).max()) / scale


class CheckError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class Checker:
    """Checks each result; keeps what cross-request checks need."""

    def __init__(self, reference: dict, inputs: dict):
        self.reference = reference
        self.inputs = inputs
        self.ode_routes: dict = {}       # (system, scheme, steps) -> matrices
        self.em_cost: dict = {}          # (variant, n_sub) -> em-route value
        self.stream_mean: dict = {}      # (variant, n_sub) -> streaming mean

    def check_round(self, results: list) -> None:
        # fixed-step outputs first, so every sqr output finds its ode pair
        order = sorted(results, key=lambda r: "sqr:" in " ".join(r.request.args))
        for res in order:
            try:
                getattr(self, "_" + res.request.kind.replace("-", "_"))(res)
            except CheckError as exc:
                res.status, res.message = "failed", str(exc)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                res.status, res.message = "failed", f"unreadable output: {exc!r}"

    def _input(self, req: Request) -> dict:
        return self.inputs[(req.system, req.horizon, req.variant)]

    def _exit_ok(self, res: Result) -> None:
        _require(res.code == 0, f"exit {res.code}: {res.stderr.strip()[-300:]}")

    def _discretize(self, res: Result) -> None:
        self._exit_ok(res)
        req = res.request
        with open(res.out, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        mats = {key: np.array(data[key], dtype=float) for key in MATRICES}
        for key, m in mats.items():
            _require(np.isfinite(m).all(), f"{key} is not finite")
        payload = self._input(req)
        zbar = np.array(payload["zbar"], dtype=float)
        q_c = np.array(payload["Q_c"], dtype=float)
        _require(_rel(data["q_k"], zbar @ mats["M"].T) <= AFFINE_TOL, "q_k != zbar M'")
        rho = 0.5 * np.einsum("kz,zy,ky->k", zbar, q_c, zbar) * payload["T_s"]
        _require(_rel(data["rho_k"], rho) <= AFFINE_TOL, "rho_k off the targets")
        method = req.args[1]
        exact = self.reference[req.system]
        if method == "expm":
            digits, worst = fewest_digits(mats, exact)
            _require(10.0 ** -digits <= EXPM_TOL,
                     f"expm route {worst} off the reference by 1e-{digits:.2f}")
            return
        if method in SCHEME_TOL and req.system != "stiff":
            err = max(_rel(mats[k], exact[k]) for k in MATRICES)
            _require(err <= SCHEME_TOL[method], f"{method} off the reference by {err:.2e}")
        route, scheme = method.split(":")
        key = (req.system, scheme, req.args[3])
        if route == "ode":
            self.ode_routes.setdefault(key, mats)
        elif key in self.ode_routes:
            ode = self.ode_routes[key]
            err = max(_rel(mats[k], ode[k]) for k in MATRICES)
            _require(err <= ROUTE_EQUIV_TOL,
                     f"sqr:{scheme} differs from ode:{scheme} by {err:.2e}")

    def _solve(self, res: Result) -> None:
        self._exit_ok(res)
        req = res.request
        payload = self._input(req)
        exact = self.reference[req.system]
        n_x, n_u = exact["B"].shape
        with open(res.out, "r", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        _require(len(rows) == req.horizon + 1, f"{len(rows)} rows for N={req.horizon}")
        states = np.array([[float(v) for v in r[1:1 + n_x]] for r in rows])
        inputs = np.array([[float(v) for v in r[1 + n_x:]] for r in rows[:-1]])
        # the value is printed with repr(), which numpy 2 spells np.float64(...)
        match = re.search(r"value=(?:np\.float64\()?([^\s)]+)", res.stdout)
        _require(match is not None, "no value reported")
        value = float(match.group(1))
        _require(np.isfinite(states).all() and np.isfinite(inputs).all()
                 and np.isfinite(value), "plan is not finite")
        _require(np.array_equal(states[0], payload["x0_mean"]), "plan does not start at x0")
        step = states[1:] - states[:-1] @ exact["A"].T - inputs @ exact["B"].T
        _require(np.abs(step).max() <= 1e-8 * (1.0 + np.abs(states).max()),
                 "plan does not follow the discrete dynamics")
        zbar = np.array(payload["zbar"], dtype=float)
        q_c = np.array(payload["Q_c"], dtype=float)
        xu = np.hstack([states[:-1], inputs])
        cost = (0.5 * np.einsum("ki,ij,kj->", xu, exact["Q"], xu)
                + np.einsum("ki,ki->", xu, zbar @ exact["M"].T)
                + 0.5 * np.einsum("kz,zy,ky->", zbar, q_c, zbar) * payload["T_s"])
        _require(abs(cost - value) <= SOLVE_TOL * max(1.0, abs(value)),
                 f"reported value {value!r} but the plan costs {cost!r}")

    def _expected_cost(self, res: Result) -> None:
        self._exit_ok(res)
        req = res.request
        with open(res.out, "r", encoding="utf-8") as fh:
            values = json.load(fh)["expected_cost"]
        ode, em = float(values["ode"]), float(values["em"])
        _require(np.isfinite(ode) and np.isfinite(em), "expected cost is not finite")
        _require(abs(ode - em) <= REFINE_GAP / req.n_sub * abs(ode),
                 f"routes disagree: ode {ode!r} em {em!r}")
        key = (req.variant, req.n_sub)
        self.em_cost[key] = em
        if key in self.stream_mean:
            self._cross(key)

    def _streaming(self, res: Result) -> None:
        self._exit_ok(res)
        mean, var = res.value
        _require(np.isfinite(mean) and np.isfinite(var) and var > 0.0,
                 f"streaming moments ({mean!r}, {var!r})")
        key = (res.request.variant, res.request.n_sub)
        self.stream_mean[key] = mean
        if key in self.em_cost:
            self._cross(key)

    def _cross(self, key) -> None:
        mean, em = self.stream_mean[key], self.em_cost[key]
        _require(abs(mean - em) <= REFINE_GAP / key[1] * abs(em),
                 f"streaming mean {mean!r} vs em-route expected cost {em!r}")

    def _montecarlo(self, res: Result) -> None:
        req = res.request
        if not req.sized and res.code == 5 and "exceeds the cap" in res.stderr:
            res.status = "refused"        # the documented quadratic-form cap
            return
        self._exit_ok(res)
        with open(res.out + ".json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        n = summary["n_sims"]
        _require(n == req.replicates, f"n_sims {n} for {req.replicates} requested")
        means = summary["sample_mean"]
        target = summary["analytic_mean"]
        spread = max(means.values()) - min(means.values())
        _require(spread <= MC_STREAM_TOL * abs(target),
                 f"stream means disagree by {spread:.3e}")
        stderr_mean = (summary["analytic_var"] / n) ** 0.5
        _require(abs(means["em_form"] - target) <= MC_SIGMAS * stderr_mean,
                 f"sample mean {means['em_form']!r} vs analytic {target!r}")


def moments_check(stochastic, model_module, payload: dict, n_sub: int = 64) -> str:
    """Streaming vs materialized moments on the model cut to H=8 (untimed)."""
    cut = dict(payload, N=8, u=payload["u"][:8], zbar=payload["zbar"][:8])
    model = model_module.continuous_model_from_dict(cut)
    streamed = stochastic.cost_moments_streaming(model, n_sub)
    exact = stochastic.cost_moments(stochastic.em_reformulate(model, n_sub))
    err = max(abs(a - b) / abs(b) for a, b in zip(streamed, exact))
    return "" if err <= STREAM_TOL else f"streaming moments off by {err:.2e}"
