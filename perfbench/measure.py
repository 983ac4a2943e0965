"""Percentile rule, process memory and the machine block."""

from __future__ import annotations

import math
import os
import platform
import resource
import time

import numpy as np

# A percentile is trusted when at least this many samples lie beyond it.
SAMPLES_BEYOND = 10

# Median ``Yardstick.measure()`` time on the machine the benchmark was
# defined on: 2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6 with
# scipy-openblas 0.3.31 on one thread.
YARDSTICK_REFERENCE_S = 0.030


def percentile(values, q: float) -> float:
    """The q-th percentile, interpolating linearly between order statistics.

    Position ``(n - 1) * q / 100`` of the sorted samples, as numpy's default
    and ``statistics.quantiles(method="inclusive")`` place it.  With a few
    samples per request kind (monte-carlo has 6), this is steadier than the
    nearest rank, which for the 90th percentile of 6 samples is their maximum.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (pos - low) * (ordered[high] - ordered[low])


def trusted(n: int, q: float) -> bool:
    """Whether the q-th percentile of n samples has SAMPLES_BEYOND beyond it.

    For the 90th percentile that needs n >= 100.
    """
    return n * (1.0 - q / 100.0) >= SAMPLES_BEYOND - 1e-9


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Yardstick:
    """A fixed piece of benchmark-owned work, timed between requests.

    It mixes what the program's requests spend their time on: interpreter
    loops over small arrays (the fixed-step recursions), dense LAPACK on an
    80x80 matrix (Pade and LU kernels) and elementwise passes over a large
    array (the sampler).  Its duration tracks how fast the shared machine
    runs at that moment; the program's code never runs inside it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((6, 6))
        self._dense = rng.standard_normal((80, 80)) + 80.0 * np.eye(80)
        self._wide = rng.standard_normal((128, 2048))
        self.samples: list[float] = []

    def measure(self) -> float:
        start = time.perf_counter()
        x = np.eye(6)
        table: dict = {}
        for i in range(1500):
            x = 0.5 * (self._small @ x + x.T) / (1.0 + np.abs(x).max())
            table[i % 97] = table.get(i % 97, 0) + i
        for _ in range(8):
            np.linalg.solve(self._dense, self._dense)
        for _ in range(3):
            np.sqrt(-2.0 * np.log(0.5 + 0.49 * np.sin(self._wide)))
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


def machine_block() -> dict:
    """What the figures were measured on; printed with every run."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }
