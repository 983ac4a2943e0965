"""One-off generator of the benchmark's fixed systems and their reference.

Writes ``data/stiff.json``, ``data/wide10.json`` and ``data/wide40.json``
(continuous model files) and ``data/reference.json``: the exact discrete
``A, B, Q, M, R_ww`` of each system, computed with mpmath at 50 (stiff) or
40 (wide) significant digits and stored as 20-digit decimal strings.  The
benchmark only reads these files; it never imports mpmath.

The wide systems follow the random Hurwitz recipe of ``tests/conftest.py``
(``random_stable_model``) with a fixed generator seed, so they can be
regenerated bit for bit.  Run from the repository root (takes a few minutes
for the n_x=40 blocks, most of it in mpmath's ``expm``):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import mpmath
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")
GENERATOR_SEED = 20240416
WIDE_SIZES = (10, 40)
WIDE_INPUTS = 3
WIDE_HORIZON = 50

# The README model: drift eigenvalues -1 and -17, output x1+x2 tracked to 3.
STIFF = {
    "A_c": [[-49.0, 24.0], [-64.0, 31.0]],
    "B_c": [[2.0, 0.5], [1.0, 3.0]],
    "G_c": [[0.1, 0.0], [0.0, 0.1]],
    "C_c": [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
    "D_c": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    "Q_c": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "zbar": [[3.0, 0.0, 0.0]],
    "T_s": 1.0,
    "N": 1,
    "u": [[1.0, 1.0]],
    "x0_mean": [0.0, 1.0],
    "x0_cov": [[0.1, 0.0], [0.0, 0.1]],
}


def wide_models() -> dict:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from conftest import random_stable_model
    from lqdisc import continuous_model_to_dict

    rng = np.random.default_rng(GENERATOR_SEED)
    return {
        f"wide{n_x}": continuous_model_to_dict(random_stable_model(
            rng, n_x=n_x, n_u=WIDE_INPUTS, n_z=n_x // 2, horizon=WIDE_HORIZON,
        ))
        for n_x in WIDE_SIZES
    }


def _mp(rows) -> mpmath.matrix:
    return mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in rows])


def _block(top_left, top_right, bottom_right) -> mpmath.matrix:
    n = top_left.rows
    out = mpmath.zeros(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            out[i, j] = top_left[i, j]
            out[i, n + j] = top_right[i, j]
            out[n + i, n + j] = bottom_right[i, j]
    return out


def _sub(m, rows, cols) -> mpmath.matrix:
    out = mpmath.zeros(len(rows), len(cols))
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            out[a, b] = m[i, j]
    return out


def exact_discretization(model: dict, digits: int) -> dict:
    """Van Loan block exponentials at ``digits`` significant digits.

    ``H = [[A_c, B_c], [0, 0]]``; the quadratic weight is
    ``int_0^T e^{H's} Hout' Q_c Hout e^{Hs} ds``, the cross weight
    ``-int_0^T e^{H's} ds Hout' Q_c`` and the noise covariance
    ``int_0^T e^{A_c s} G G' e^{A_c's} ds``; the same integrals the library's
    closed-form route evaluates in double precision.
    """
    mpmath.mp.dps = digits
    a_c, b_c, g_c = _mp(model["A_c"]), _mp(model["B_c"]), _mp(model["G_c"])
    c_c, d_c, q_c = _mp(model["C_c"]), _mp(model["D_c"]), _mp(model["Q_c"])
    t = mpmath.mpf(float(model["T_s"]))
    n_x, n_u, n_z = a_c.rows, b_c.cols, c_c.rows
    n_xu = n_x + n_u

    h = mpmath.zeros(n_xu, n_xu)
    h_out = mpmath.zeros(n_z, n_xu)
    for i in range(n_x):
        for j in range(n_x):
            h[i, j] = a_c[i, j]
        for j in range(n_u):
            h[i, n_x + j] = b_c[i, j]
    for i in range(n_z):
        for j in range(n_x):
            h_out[i, j] = c_c[i, j]
        for j in range(n_u):
            h_out[i, n_x + j] = d_c[i, j]
    weight = h_out.T * q_c * h_out

    phi1 = mpmath.expm(_block(-h.T, weight, h) * t)
    ext = _sub(phi1, range(n_xu, 2 * n_xu), range(n_xu, 2 * n_xu))
    quad = ext.T * _sub(phi1, range(n_xu), range(n_xu, 2 * n_xu))

    phi2 = mpmath.expm(_block(mpmath.zeros(n_xu, n_xu), mpmath.eye(n_xu), h.T) * t)
    lin = -_sub(phi2, range(n_xu), range(n_xu, 2 * n_xu)) * h_out.T * q_c

    phi3 = mpmath.expm(_block(-a_c, g_c * g_c.T, a_c.T) * t)
    cov = (_sub(phi3, range(n_x, 2 * n_x), range(n_x, 2 * n_x)).T
           * _sub(phi3, range(n_x), range(n_x, 2 * n_x)))

    def text(m):
        return [[mpmath.nstr(m[i, j], 20, min_fixed=1, max_fixed=0)
                 for j in range(m.cols)] for i in range(m.rows)]

    return {
        "digits": digits,
        "A": text(_sub(ext, range(n_x), range(n_x))),
        "B": text(_sub(ext, range(n_x), range(n_x, n_xu))),
        "Q": text((quad + quad.T) / 2),
        "M": text(lin),
        "R_ww": text((cov + cov.T) / 2),
    }


def main() -> int:
    models = {"stiff": STIFF, **wide_models()}
    reference = {}
    for name, model in models.items():
        with open(os.path.join(DATA, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(model, fh, indent=1)
            fh.write("\n")
        start = time.perf_counter()
        reference[name] = exact_discretization(model, 50 if name == "stiff" else 40)
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    with open(os.path.join(DATA, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
