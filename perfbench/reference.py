"""Stored high-precision reference and the correct-digits measure."""

from __future__ import annotations

import json
import math

import numpy as np

MATRICES = ("A", "B", "Q", "M", "R_ww")
# past double precision a matrix cannot get closer than rounding: cap the
# measure there rather than report infinite digits for an exact match
MAX_DIGITS = 17.0


def load_reference(path: str) -> dict:
    """System name -> {"A", "B", "Q", "M", "R_ww"} as float64 arrays.

    The file stores each entry as a decimal string of 20 significant
    digits; conversion rounds it once to the nearest double.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    out = {}
    for system, entry in raw.items():
        mats = {}
        for key in MATRICES:
            m = np.array([[float(v) for v in row] for row in entry[key]])
            if m.ndim != 2 or not np.isfinite(m).all():
                raise ValueError(f"reference {system}.{key} is not a finite matrix")
            mats[key] = m
        out[system] = mats
    return out


def correct_digits(value: np.ndarray, exact: np.ndarray) -> float:
    """Normwise correct significant digits: -log10(max|err| / max|exact|)."""
    value = np.asarray(value, dtype=float)
    if value.shape != exact.shape or not np.isfinite(value).all():
        return 0.0
    scale = float(np.abs(exact).max())
    err = float(np.abs(value - exact).max()) / scale if scale else 0.0
    return min(MAX_DIGITS, -math.log10(err)) if err > 0 else MAX_DIGITS


def fewest_digits(outputs: dict, exact: dict) -> tuple[float, str]:
    """Smallest ``correct_digits`` over the five matrices, and its name."""
    digits = {key: correct_digits(outputs[key], exact[key]) for key in MATRICES}
    worst = min(digits, key=digits.get)
    return digits[worst], worst
