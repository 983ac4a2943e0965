"""Dense linear-algebra kernels shared by all discretization routines.

Matrices are plain 2-D ``float64`` numpy arrays throughout.  The kernels
here are deliberately small: a Pade-13 scaling-and-squaring matrix
exponential, whose rational quotient is one LAPACK solve
(``np.linalg.solve``) with the coefficients normalized to ``b0 = 1``, and a
couple of symmetry helpers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NormOverflowError, ValidationError

__all__ = [
    "expm",
    "norm1",
    "pade_squarings",
    "symmetrize",
    "psd_shortfall",
]

# Pade-13 numerator coefficients (Higham 2005, Table 10.4), divided by the
# first, 64764752532480000.  With b0 = 1 the denominator is I + O(A), so
# the solve returns exactly I for A = 0; LAPACK's triangular solve
# multiplies by reciprocal pivots, and 1/6.48e16 is not exact.
_PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
))

# 1-norm threshold above which the argument is scaled down by powers of two.
_PADE13_THETA = 5.371920351148152


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def norm1(m: np.ndarray) -> float:
    """Largest absolute column sum; ``inf``, without a warning, on overflow."""
    if m.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.abs(m).sum(axis=0).max())


def pade_squarings(norm: float, name: str = "matrix") -> int:
    """Halvings that bring a 1-norm of ``norm`` to the Pade-13 threshold.

    Zero when ``norm`` is already at or below it; otherwise the smallest
    ``s`` with ``norm / 2**s <= 5.3719...``.  Raises
    :class:`~lqdisc.errors.NormOverflowError`, naming ``name``, when the
    norm is infinite.
    """
    if norm <= _PADE13_THETA:
        return 0
    if math.isinf(norm):
        raise NormOverflowError(
            f"the 1-norm of {name} overflows to {norm}; its exponential "
            "cannot be scaled into range"
        )
    return int(math.ceil(math.log2(norm / _PADE13_THETA)))


def expm(m) -> np.ndarray:
    """Matrix exponential via Pade-13 with scaling and squaring.

    The argument is scaled by ``2**-s`` until its 1-norm drops below the
    order-13 threshold, the diagonal Pade approximant ``(v - u)^-1 (v + u)``
    is evaluated with one LAPACK solve, and the result is squared ``s``
    times.

    Parameters
    ----------
    m : (n, n) array_like
        Square matrix with finite entries.

    Returns
    -------
    (n, n) ndarray
    """
    a = _as_matrix(m, "expm argument")
    n, nc = a.shape
    if n != nc:
        raise ValidationError(f"expm argument must be square, got {a.shape}")
    if n == 0:
        return np.zeros((0, 0))

    squarings = pade_squarings(norm1(a), "expm argument")
    if squarings:
        a = a / (2.0 ** squarings)

    b = _PADE13
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def symmetrize(m) -> np.ndarray:
    """Return ``(m + m') / 2``, for one matrix or each matrix of a stack."""
    a = np.asarray(m, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def psd_shortfall(m, tol: float = 1e-10) -> float | None:
    """Minimum eigenvalue of the symmetrized input if it breaks PSD, else None.

    The input counts as positive semidefinite when its minimum eigenvalue
    is at least ``-tol * scale`` with ``scale = max(1, largest
    |eigenvalue|)``.  An empty matrix is PSD.
    """
    a = symmetrize(m)
    if a.size == 0:
        return None
    eigs = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.abs(eigs).max()))
    low = float(eigs.min())
    return low if low < -tol * scale else None
