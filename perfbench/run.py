"""lqdisc benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload stiff-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``
of the same checkout.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the same phase untraced and then traced, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the metric definitions.
"""

import os
import time

START = time.perf_counter()

# One BLAS thread per workload process, set before numpy loads: with
# ``--workers 2`` the process then uses at most two compute threads, the
# core count it is measured on, instead of two workers times two BLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LQDISC_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
YARDSTICK_EVERY_S = 0.25  # busy seconds between two yardstick samples
MIN_ROUNDS = 2            # so each Monte Carlo kind has 6 samples


def _fail(message: str) -> "SystemExit":
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(2)


def _locate_program() -> dict:
    """The benchmark's own description, after checking the program exists."""
    if not os.path.isfile(os.path.join(SRC, "lqdisc", "__init__.py")):
        raise _fail(f"no lqdisc package under {SRC}; run from a full checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise _fail(f"cannot read BENCHMARK.json: {exc}")


sys.path[:0] = [SRC, HERE]

import numpy as np  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402
from reference import fewest_digits, load_reference  # noqa: E402


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class Session:
    """Everything one run sets up before its timed phase."""

    def __init__(self, workload: str, seed: int, work: str):
        self.work = work
        os.makedirs(work, exist_ok=True)
        self.mix = workloads.WORKLOADS[workload]()
        self.runner = workloads.Runner(work)      # imports lqdisc
        self.reference = load_reference(os.path.join(HERE, "data", "reference.json"))
        models = {}
        for system, _ in self.mix.inputs():
            with open(os.path.join(HERE, "data", f"{system}.json"), "r",
                      encoding="utf-8") as fh:
                models[system] = json.load(fh)
        self.rng = np.random.default_rng(seed)
        self.inputs = workloads.write_inputs(models, self.mix.inputs(), self.rng, work)
        self.warm = [self.runner.execute(req, os.path.join(work, f"warm-{i}"))
                     for i, req in enumerate(self.mix.warm)]
        self.yardstick = measure.Yardstick()


def _probe_setup(workload: str, seed: int) -> list:
    """Set-up seconds of fresh processes: import, read files, warm calls."""
    samples = []
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe", os.path.join(WORK, f"probe-{os.getpid()}-{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise _fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------

class Phase:
    def __init__(self):
        self.results = []
        self.busy = 0.0          # seconds spent running requests
        self.rounds = 0
        self.yardstick = []      # yardstick seconds, one per YARDSTICK_EVERY_S


def run_phase(session: Session, checker, seconds: float, tracer=None) -> Phase:
    """Whole rounds until the round boundary nearest to ``seconds``, and at
    least ``MIN_ROUNDS``.

    The clock stops while a finished round is checked and its outputs are
    removed, so checking costs no throughput; it also stops for the
    yardstick, which runs between requests every ``YARDSTICK_EVERY_S`` busy
    seconds.  Each request's ``speed`` is the reference yardstick time over
    the mean of the two samples around it.
    """
    phase = Phase()
    index = 0
    since = YARDSTICK_EVERY_S
    before = []               # per result: index of the sample preceding it
    while True:
        batch = []
        paused = 0.0
        start = time.perf_counter()
        for req in session.mix.round(session.rng):
            if since >= YARDSTICK_EVERY_S:
                phase.yardstick.append(session.yardstick.measure())
                paused += phase.yardstick[-1]
                since = 0.0
            if tracer is not None:
                tracer.request = index
            out = os.path.join(session.work, f"out-{index}")
            batch.append(session.runner.execute(req, out))
            before.append(len(phase.yardstick) - 1)
            since += batch[-1].latency
            index += 1
        phase.busy += time.perf_counter() - start - paused
        phase.rounds += 1
        checker.check_round(batch)
        for res in batch:
            for path in (res.out, res.out + ".json", res.out + ".csv"):
                if os.path.exists(path):
                    os.remove(path)
        phase.results.extend(batch)
        if (phase.rounds >= MIN_ROUNDS
                and phase.busy + 0.5 * phase.busy / phase.rounds > seconds):
            break
    samples = phase.yardstick + [session.yardstick.measure()]
    for res, k in zip(phase.results, before):
        res.speed = measure.YARDSTICK_REFERENCE_S / (0.5 * (samples[k] + samples[k + 1]))
    return phase


def kind_percentile(latencies, q: float) -> float:
    """Geometric mean over request kinds of each kind's q-th percentile.

    ``latencies`` is a list of (kind, seconds).  A round mixes kinds whose
    latencies differ up to a hundredfold, so a percentile of the pooled
    latencies sits on the edge between two kinds and jumps between them
    from run to run; per kind it is steady.
    """
    by_kind = defaultdict(list)
    for kind, seconds in latencies:
        by_kind[kind].append(seconds)
    if not by_kind:
        return 0.0
    logs = [math.log(measure.percentile(v, q)) for v in by_kind.values()]
    return math.exp(sum(logs) / len(logs))


def throughput(phase: Phase) -> dict:
    """Rates and latencies of one phase: at the reference speed, and raw.

    The reference-speed figures time each request as ``latency * speed``
    (see README.md, "Machine speed"); the raw ones use the wall clock.
    """
    results = phase.results
    completed = [r for r in results if r.status == "ok"]
    sized = [r for r in completed if r.request.sized]
    work = sum(r.request.replicates * r.request.horizon for r in completed)

    def figures(scaled: bool, busy: float) -> dict:
        scale = (lambda r: r.speed) if scaled else (lambda r: 1.0)
        unsized_s = sum(r.latency * scale(r) for r in results if not r.request.sized)
        latencies = [(r.request.label, r.latency * scale(r)) for r in sized]
        return {
            "requests_per_s": len(sized) / (busy - unsized_s),
            "sim_intervals_per_s": work / busy,
            "latency_p50_ms": 1e3 * kind_percentile(latencies, 50),
            "latency_p90_ms": 1e3 * kind_percentile(latencies, 90),
        }

    out = figures(True, sum(r.latency * r.speed for r in results))
    out.update(raw=figures(False, phase.busy),
               speed=statistics.median(r.speed for r in results),
               completed=len(completed), sized=len(sized),
               kinds=len({r.request.label for r in sized}))
    return out


def accuracy(session: Session) -> tuple[float, list]:
    """Fewest correct digits of the expm route over the workload's systems.

    One untimed ``discretize --method expm`` per system, on its first input
    file; the output does not depend on the inputs, so it equals every timed
    expm-route output of the run.
    """
    worst, notes = float("inf"), []
    for system in session.mix.systems():
        horizon = next(r.horizon for r in session.mix.kinds if r.system == system)
        req = workloads.Request("discretize", system, horizon, ("--method", "expm"))
        out = os.path.join(session.work, f"accuracy-{system}")
        res = session.runner.execute(req, out)
        if res.code != 0:
            return 0.0, [f"{system}: expm route exited {res.code}"]
        with open(out, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        mats = {key: np.array(data[key], dtype=float) for key in session.reference[system]}
        digits, which = fewest_digits(mats, session.reference[system])
        notes.append(f"{system}: {digits:.3f} digits (worst {which})")
        worst = min(worst, digits)
    return worst, notes


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<42} {value:>14.6g} {unit:<10} {note}".rstrip())


def run_workload(args, spec: dict) -> int:
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        setup = _probe_setup(args.workload, args.seed)
        session = Session(args.workload, args.seed, work)
        checker = workloads.Checker(session.reference, session.inputs)
        checker.check_round(session.warm)
        warm_failed = [r for r in session.warm if r.status == "failed"]
        phase = run_phase(session, checker, args.seconds)
        problems = []
        if args.workload == "long-horizon":
            payload = session.inputs[("stiff", 200, 0)]
            problems.append(workloads.moments_check(
                session.runner.stochastic, session.runner.model, payload))
        digits, digit_notes = accuracy(session)

        traced = tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(session, checker, args.seconds, tracer)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.json"),
                         [r.request.label for r in traced.results])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = phase.results + (traced.results if traced else [])
    failed = [r for r in results + warm_failed if r.status == "failed"]
    problems = [p for p in problems if p]
    rates = throughput(phase)
    attempted = len(results)
    e2e = {
        "setup_s": statistics.median(setup),
        "requests_per_s": rates["requests_per_s"],
        "sim_intervals_per_s": rates["sim_intervals_per_s"],
        "latency_p50_ms": rates["latency_p50_ms"],
        "latency_p90_ms": rates["latency_p90_ms"],
        "peak_rss_mb": measure.peak_rss_mb(),
        "accuracy_digits": digits,
        "completed_share": rates["completed"] / len(phase.results),
    }
    per_kind = rates["sized"] // max(rates["kinds"], 1)
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "requests_per_s": f"n={rates['sized']} in {phase.rounds} rounds",
        "sim_intervals_per_s": f"n={rates['completed']}",
        "latency_p50_ms": f"n={rates['sized']}, {rates['kinds']} kinds",
        "latency_p90_ms": f"n={rates['sized']}, {rates['kinds']} kinds, {per_kind} per kind"
        + ("" if measure.trusted(per_kind, 90) else " (fewer than 10 beyond)"),
        "completed_share": f"n={len(phase.results)}",
    }

    print(f"workload {args.workload} seed {args.seed}: "
          f"{phase.rounds} rounds, {phase.busy:.2f} s timed")
    print("machine " + json.dumps(measure.machine_block(), sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("end to end (untraced):")
    for name, value in e2e.items():
        _line(name, value, units.get(name, ""), notes.get(name, ""))
    error_rate = 1.0 - e2e["completed_share"]
    refused = sum(r.status == "refused" for r in phase.results)
    print(f"  error_rate {error_rate:.4f} (non-zero exits or failed checks / attempted;"
          f" {refused} documented refusals, {len(failed)} failed checks)")
    print(f"  machine speed {rates['speed']:.4f} of reference (median over requests, "
          f"{len(phase.yardstick) + 1} yardstick samples); raw figures:")
    for name, value in rates["raw"].items():
        _line(name, value, units.get(name, ""))
    print("raw " + json.dumps(rates["raw"]))
    for note in digit_notes:
        print(f"  accuracy {note}")
    for res in failed[:10]:
        print(f"  FAILED {res.request.label}: {res.message}")
    for problem in problems:
        print(f"  FAILED {problem}")

    metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    if args.trace:
        from spans import layer_figures
        layers = layer_figures(tracer.spans, tracer.counters, tracer.maxima,
                               tracer.main_thread, len(traced.results))
        layers["trace.overhead"] = (rates["requests_per_s"]
                                    / throughput(traced)["requests_per_s"] - 1.0)
        print(f"per layer (traced, {len(traced.results)} requests):")
        for name, value in sorted(layers.items()):
            _line(name, value, units.get(name, ""))
        if tracer.absent:
            print("  absent (reported as 0): " + ", ".join(tracer.absent))
        metrics = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}

    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed) + len(problems),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        try:
            Session(args.workload, args.seed, args.setup_probe)
            print(json.dumps({"setup_s": time.perf_counter() - START}))
        finally:
            shutil.rmtree(args.setup_probe, ignore_errors=True)
        return 0
    spec = _locate_program()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
