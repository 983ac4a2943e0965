"""Discretization by block matrix exponentials.

All five discrete quantities fall out of three structured exponentials of
doubled-size block matrices: one carrying the quadratic cost, one the
affine cost, and one the noise covariance.  This route involves no
step-size choice and serves as the reference the iterative methods are
judged against.

On stiff drift the quadratic-cost and noise blocks carry factors of size
``exp(|lambda| T_s)`` that cancel in the products forming ``Q`` and
``R_ww`` (Van Loan 1978), which costs digits.  Those two blocks are
therefore evaluated at ``T_s / 2**s`` and folded back to ``T_s`` by ``s``
exact doublings, ``Q <- Q + E' Q E``, ``R_ww <- R_ww + Phi R_ww Phi'``,
``E <- E @ E``, ``Phi <- Phi @ Phi``; ``s`` is the number of halvings that
bring ``||a_c||_1 * T_s`` to the Pade-13 threshold of
:func:`~lqdisc.linalg.expm` (Higham 2005).  The affine-cost block has no
growing factor and is evaluated at ``T_s`` itself.

Two different block matrices appear that the source notation would both
call by one letter: the *output* map ``h_out = [c_c d_c]`` and the
*extended drift* ``h_ext = [[a_c, b_c], [0, 0]]``.  They are kept
strictly apart here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .linalg import expm, norm1, pade_squarings, symmetrize
from .model import ContinuousLqModel, DiscreteLqModel, require_valid
from .ode_method import _affine_cost_sequences

__all__ = ["ExpmBlocks", "build_expm_blocks", "discretize_expm"]


@dataclass(frozen=True)
class ExpmBlocks:
    """Partitioned results of the three block exponentials.

    ``phi1_*`` comes from the quadratic-cost block, ``phi2_*`` from the
    affine-cost block, ``phi3_*`` from the noise block; indices give the
    block row/column of the partition.
    """

    h_ext: np.ndarray
    m_bar: np.ndarray
    q_bar: np.ndarray
    g_bar: np.ndarray
    phi1_12: np.ndarray
    phi1_22: np.ndarray
    phi2_11: np.ndarray
    phi2_12: np.ndarray
    phi3_12: np.ndarray
    phi3_22: np.ndarray


def build_expm_blocks(model: ContinuousLqModel) -> ExpmBlocks:
    """Evaluate the three block exponentials at the sampling interval."""
    return _block_exponentials(model, 0)


def _block_exponentials(model: ContinuousLqModel, halvings: int) -> ExpmBlocks:
    """The three block exponentials, the quadratic-cost and noise blocks at
    ``t_s / 2**halvings`` and the affine-cost block at ``t_s``."""
    n_x, n_u = model.n_x, model.n_u
    n_xu = n_x + n_u
    t = model.t_s
    t_short = t / 2.0 ** halvings

    h_ext = np.zeros((n_xu, n_xu))
    h_ext[:n_x, :n_x] = model.a_c
    h_ext[:n_x, n_x:] = model.b_c

    h_out = np.hstack([model.c_c, model.d_c])
    m_bar = -h_out.T @ model.q_c                 # affine-cost kernel
    q_bar = -m_bar @ h_out                       # quadratic-cost kernel
    g_bar = model.g_c @ model.g_c.T              # noise intensity

    block1 = np.zeros((2 * n_xu, 2 * n_xu))
    block1[:n_xu, :n_xu] = -h_ext.T
    block1[:n_xu, n_xu:] = q_bar
    block1[n_xu:, n_xu:] = h_ext
    phi1 = expm(block1 * t_short)

    block2 = np.zeros((2 * n_xu, 2 * n_xu))
    block2[:n_xu, n_xu:] = np.eye(n_xu)
    block2[n_xu:, n_xu:] = h_ext.T
    phi2 = expm(block2 * t)

    block3 = np.zeros((2 * n_x, 2 * n_x))
    block3[:n_x, :n_x] = -model.a_c
    block3[:n_x, n_x:] = g_bar
    block3[n_x:, n_x:] = model.a_c.T
    phi3 = expm(block3 * t_short)

    blocks = ExpmBlocks(
        h_ext=h_ext,
        m_bar=m_bar,
        q_bar=q_bar,
        g_bar=g_bar,
        phi1_12=phi1[:n_xu, n_xu:],
        phi1_22=phi1[n_xu:, n_xu:],
        phi2_11=phi2[:n_xu, :n_xu],
        phi2_12=phi2[:n_xu, n_xu:],
        phi3_12=phi3[:n_x, n_x:],
        phi3_22=phi3[n_x:, n_x:],
    )
    gap = np.abs(blocks.phi2_11 - np.eye(n_xu)).max()
    if gap > 1e-12:
        raise DivergenceError(
            f"affine-cost exponential lost structure (identity block off by {gap:.3e})"
        )
    return blocks


def discretize_expm(model: ContinuousLqModel) -> DiscreteLqModel:
    """Exact discretization via the three block exponentials.

    The quadratic-cost and noise exponentials are taken at
    ``t_s / 2**s`` and doubled back ``s`` times, with ``s`` the Pade-13
    halving count of ``||a_c||_1 * t_s``; the affine-cost exponential is
    taken at ``t_s``.
    """
    require_valid(model)
    n_x = model.n_x
    halvings = pade_squarings(norm1(model.a_c) * model.t_s, "a_c * t_s")
    blocks = _block_exponentials(model, halvings)

    ext = blocks.phi1_22                          # extended transition [[a, b], [0, I]]
    quad = ext.T @ blocks.phi1_12
    trans = blocks.phi3_22.T                      # state transition over the short interval
    cov = trans @ blocks.phi3_12
    for _ in range(halvings):
        quad = quad + ext.T @ quad @ ext
        cov = cov + trans @ cov @ trans.T
        ext = ext @ ext
        trans = trans @ trans
    quad = symmetrize(quad)
    cov = symmetrize(cov)
    a = ext[:n_x, :n_x]
    b = ext[:n_x, n_x:]
    lin = blocks.phi2_12 @ blocks.m_bar

    q_seq, rho_seq = _affine_cost_sequences(model, lin)
    return DiscreteLqModel(
        a=a,
        b=b,
        c=model.c_c,
        d=model.d_c,
        q=quad,
        m=lin,
        r_ww=cov,
        t_s=model.t_s,
        q_k=q_seq,
        rho_k=rho_seq,
    )
