"""Discretization by block matrix exponentials.

The interval maps of a short interval ``tau = T_s / 2**s`` fall out of three
Van Loan (1978) block exponentials, each built by :func:`_van_loan`:

- ``[[-h_ext', q_bar], [0, h_ext]]`` gives the quadratic cost weight;
- ``[[h_ext, I], [0, 0]]`` gives ``[[ext, int_0^tau exp(h_ext sigma)], [0, I]]``,
  hence the extended transition and the affine cost weight;
- ``[[-a_c, g_bar], [0, a_c']]`` gives the noise covariance.

``s`` exact self-compositions (:func:`lqdisc.intervals.compose`) then fold
them back to ``T_s``.  ``s`` is the number of halvings that bring
``||a_c||_1 * T_s`` to the Pade-13 threshold of :func:`~lqdisc.linalg.expm`
(Higham 2005).  On stiff drift the cost and noise blocks carry factors of
size ``exp(|lambda| tau)`` that cancel in their products, so the short
interval keeps those factors small; over-splitting costs digits too, which
is why ``s`` is not larger.  The extended transition is read from the
affine-cost block, which has no growing factor, not from the
quadratic-cost block, where it shares a matrix with ``exp(-h_ext' tau)``.
The cost and noise kernels are divided by a scale before exponentiating
and their blocks multiplied back (:func:`_kernel_scale`), so their size
sets no squarings.  This route involves no step-size choice and serves as
the reference the iterative methods are judged against.

:func:`noise_trace_integral` takes the expected within-interval noise cost
the same way: one ``3 n_x`` block of :func:`_van_loan` at ``tau`` and ``s``
exact doublings.  It stays out of the interval maps, which every
discretization composes, because only the expected cost reads it.

Two different block matrices appear that the source notation would both
call by one letter: the *output* map ``h_out = [c_c d_c]`` and the
*extended drift* ``h_ext = [[a_c, b_c], [0, 0]]``.  They are kept
strictly apart here.
"""

from __future__ import annotations

import numpy as np

from .intervals import IntervalMaps, compose, extended_drift, to_discrete
from .linalg import expm, norm1, pade_squarings
from .model import ContinuousLqModel, DiscreteLqModel

__all__ = ["discretize_expm", "noise_trace_integral"]


def _kernel_scale(diagonal: np.ndarray, kernel: np.ndarray) -> float:
    """``c = max(1, ||kernel||_1 / ||diagonal||_1)``, and 1 for a zero
    diagonal.

    The (1,2) block of ``exp([[X, Y], [0, Z]])`` is linear in ``Y``, so
    exponentiating with ``Y / c`` and multiplying that block by ``c`` gives
    the same integral (Van Loan 1978) without letting a large kernel set
    the exponential's internal squarings, so the result does not depend on
    the units of ``q_c`` or ``g_c``.
    """
    k, d = norm1(kernel), norm1(diagonal)
    return k / d if k > d > 0.0 else 1.0


def _van_loan(top: np.ndarray, kernel: np.ndarray, bottom: np.ndarray,
              tau: float, scaled: bool = True) -> tuple[float, np.ndarray]:
    """``c`` and ``exp(tau [[top, kernel / c], [0, bottom]])``, with ``c``
    the :func:`_kernel_scale` of the kernel, or 1 if not ``scaled``."""
    n = len(top)
    block = np.zeros((n + len(bottom),) * 2)
    block[:n, :n] = top
    block[n:, n:] = bottom
    c = _kernel_scale(block, kernel) if scaled else 1.0
    block[:n, n:] = kernel / c
    return c, expm(block * tau)


def _halvings(model: ContinuousLqModel) -> int:
    """``s``, the Pade-13 halving count of ``||a_c||_1 * t_s``."""
    return pade_squarings(norm1(model.a_c) * model.t_s, "a_c * t_s")


def expm_seed(model: ContinuousLqModel, halvings: int) -> IntervalMaps:
    """The interval maps over ``t_s / 2**halvings`` from the three block
    exponentials (see the module docstring)."""
    n_x, n_u = model.n_x, model.n_u
    n_xu = n_x + n_u
    tau = model.t_s / 2.0 ** halvings

    h_ext, h_out = extended_drift(model)
    m_bar = -h_out.T @ model.q_c                 # affine-cost kernel
    q_bar = -m_bar @ h_out                       # quadratic-cost kernel
    g_bar = model.g_c @ model.g_c.T              # noise intensity

    c1, phi1 = _van_loan(-h_ext.T, q_bar, h_ext, tau)
    # the unit kernel carries no units; scaling it moves lin's last bits
    _, phi2 = _van_loan(h_ext, np.eye(n_xu), np.zeros((n_xu, n_xu)), tau, scaled=False)
    c3, phi3 = _van_loan(-model.a_c, g_bar, model.a_c.T, tau)

    ext = phi2[:n_xu, :n_xu]
    return IntervalMaps(
        ext=ext,
        quad=c1 * (ext.T @ phi1[:n_xu, n_xu:]),
        lin=phi2[:n_xu, n_xu:].T @ m_bar,
        cov=c3 * (phi3[n_x:, n_x:].T @ phi3[:n_x, n_x:]),
    )


def discretize_expm(model: ContinuousLqModel) -> DiscreteLqModel:
    """Exact discretization via the three block exponentials.

    The exponentials are taken at ``t_s / 2**s`` and their interval maps
    composed with themselves ``s`` times, with ``s`` the Pade-13 halving
    count of ``||a_c||_1 * t_s``.

    Raises
    ------
    DivergenceError
        If a map is not finite, e.g. when an exponential overflows.
    """
    halvings = _halvings(model)
    # overflow to inf is the divergence signal checked by to_discrete
    with np.errstate(over="ignore", invalid="ignore"):
        maps = expm_seed(model, halvings)
        for _ in range(halvings):
            maps = compose(maps, maps)
    return to_discrete(model, maps, "closed form")


def noise_trace_integral(model: ContinuousLqModel) -> float:
    """The within-interval noise cost ``J = int_0^t_s tr(W Sigma(t)) dt``,
    exactly, with ``W = c_c' q_c c_c`` and ``Sigma(t)`` the covariance
    that the noise builds up from a zero start.

    ``J = tr(g_c g_c' K)`` with ``K = int_0^t_s Q(t) dt`` and ``Q(t) =
    int_0^t exp(a_c' s) W exp(a_c s) ds``.  At ``tau = t_s / 2**s`` the
    :func:`_van_loan` exponential ``E`` of ``[[-a_c', I, 0], [0, -a_c',
    W], [0, 0, a_c]]`` gives ``Q = E_33' E_23`` and ``K = E_33' E_13`` (Van
    Loan 1978, Theorem 1); ``s`` exact doublings then reach ``t_s``:

        K(2 tau) = K + tau Q + A' K A,   Q(2 tau) = Q + A' Q A,

    with ``A = exp(a_c tau)``.  ``s`` and the kernel scale are those of
    :func:`discretize_expm`, for the same reasons.
    """
    n_x = model.n_x
    halvings = _halvings(model)
    tau = model.t_s / 2.0 ** halvings
    noise_w = model.c_c.T @ model.q_c @ model.c_c

    top = np.zeros((2 * n_x, 2 * n_x))
    top[:n_x, :n_x] = top[n_x:, n_x:] = -model.a_c.T
    top[:n_x, n_x:] = np.eye(n_x)
    scale, phi = _van_loan(top, np.vstack([np.zeros((n_x, n_x)), noise_w]), model.a_c, tau)
    trans = phi[2 * n_x:, 2 * n_x:]
    quad = scale * (trans.T @ phi[n_x:2 * n_x, 2 * n_x:])
    integral = scale * (trans.T @ phi[:n_x, 2 * n_x:])
    for _ in range(halvings):
        integral = integral + tau * quad + trans.T @ integral @ trans
        quad = quad + trans.T @ quad @ trans
        trans = trans @ trans
        tau *= 2.0
    return float(np.einsum("ij,ji->", model.g_c @ model.g_c.T, integral))
