"""Interval maps: what a discretized interval is and how two of them join.

Every discretization route describes one interval by four maps:

- ``ext``, the extended transition ``[[A, B], [0, I]]`` acting on ``[x; u]``;
- ``quad``, the quadratic cost weight on ``[x; u]`` at the interval's start;
- ``lin``, the affine cost weight, one column per tracked output;
- ``cov``, the covariance the noise adds to the state over the interval.

Two consecutive intervals join by one exact rule (:func:`compose`), so each
route is a seed for a short interval followed by compositions: the
fixed-step route chains ``n`` copies of the seed (:func:`repeat`, the same
rule specialised to equal maps), step doubling and the block-exponential
route compose the seed with itself.  Cost accrued later is pulled back
through the earlier transition; noise added earlier is pushed forward
through the later one.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceError, IllConditionedError, ValidationError
from .linalg import norm1, symmetrize
from .model import ContinuousLqModel, DiscreteLqModel


class IntervalMaps(NamedTuple):
    """The four maps of one interval (see the module docstring)."""

    ext: np.ndarray
    quad: np.ndarray
    lin: np.ndarray
    cov: np.ndarray


def extended_drift(model: ContinuousLqModel) -> tuple[np.ndarray, np.ndarray]:
    """The extended drift ``h_ext = [[a_c, b_c], [0, 0]]``, under which
    ``[x; u]`` evolves with the input held, and the output map ``h_out =
    [c_c d_c]`` with ``z = h_out @ [x; u]``: what every seed starts from."""
    n_x = model.n_x
    h_ext = np.zeros((n_x + model.n_u,) * 2)
    h_ext[:n_x, :n_x] = model.a_c
    h_ext[:n_x, n_x:] = model.b_c
    return h_ext, np.hstack([model.c_c, model.d_c])


def compose(first: IntervalMaps, second: IntervalMaps) -> IntervalMaps:
    """The maps of ``first`` followed by ``second``.

    No symmetrization and no finiteness check: callers check what they
    need, once.
    """
    n_x = first.cov.shape[0]
    trans = second.ext[:n_x, :n_x]
    return IntervalMaps(
        ext=second.ext @ first.ext,
        quad=first.quad + first.ext.T @ second.quad @ first.ext,
        lin=first.lin + first.ext.T @ second.lin,
        cov=second.cov + trans @ first.cov @ trans.T,
    )


def repeat(seed: IntervalMaps, n: int) -> IntervalMaps:
    """The maps of ``n >= 1`` consecutive copies of ``seed``.

    Equal to ``n - 1`` compositions with ``seed`` up to rounding, and
    bit-identical at ``n = 1``.  With the seed's ``ext = E`` and blocks
    ``Q``, ``L``, ``C``, each copy prepended in front of the others gives
    the Horner steps ``quad <- Q + E' quad E`` and ``lin <- L + E' lin``,
    and each copy appended ``cov <- C + T cov T'`` (``T`` the transition
    block of ``E``) and ``ext <- E ext``.  The three updates share one
    preallocated stack of ``[quad | lin]``, the zero-padded ``cov`` and
    the zero-padded ``ext``, so a step is one stacked product from the
    left, one from the right and one add.  Like :func:`compose` it checks
    nothing: the caller checks the result once.
    """
    if n < 1:
        raise ValidationError(f"repeat needs n >= 1, got {n}")
    ext, quad, lin, cov = seed
    n_xu, n_z = lin.shape
    n_x = cov.shape[0]
    width = n_xu + n_z
    stack = np.zeros((3, n_xu, width))
    stack[0, :, :n_xu] = quad
    stack[0, :, n_xu:] = lin
    stack[1, :n_x, :n_x] = cov
    stack[2, :, :n_xu] = ext
    increment = stack[:2].copy()
    # [[E, B], [0, I]] @ pad(cov) @ pad(E)' = pad(T cov T'); the identity
    # columns carry lin and ext through the right-hand product unchanged
    left = np.stack([ext.T, ext, ext])
    right = np.tile(np.eye(width), (3, 1, 1))
    right[0, :n_xu, :n_xu] = ext
    right[1, :n_xu, :n_xu] = ext.T
    work = np.empty_like(stack)
    for _ in range(n - 1):
        np.matmul(left, stack, out=work)
        np.matmul(work, right, out=stack)
        stack[:2] += increment
    return IntervalMaps(
        ext=stack[2, :, :n_xu],
        quad=stack[0, :, :n_xu],
        lin=stack[0, :, n_xu:],
        cov=stack[1, :n_x, :n_x],
    )


def diverged(maps: IntervalMaps) -> bool:
    """Whether the transition or the cost weight of ``maps`` is not finite."""
    return not (np.isfinite(maps.ext).all() and np.isfinite(maps.quad).all())


def first_diverged(
    maps: IntervalMaps, grow: Callable[[IntervalMaps], IntervalMaps], limit: int
) -> int:
    """The first ``k`` whose prefix diverged, counting ``maps`` as prefix 1
    and ``grow`` of prefix ``k`` as prefix ``k + 1``; ``limit`` when no
    shorter prefix diverged.

    The error path of the Runge-Kutta routes, which check finiteness only
    on their result.
    """
    k = 1
    while k < limit and not diverged(maps):
        maps, k = grow(maps), k + 1
    return k


def to_discrete(model: ContinuousLqModel, maps: IntervalMaps, route: str) -> DiscreteLqModel:
    """The discrete model of one sampling interval covered by ``maps``.

    Raises
    ------
    DivergenceError
        If a map is not finite; the message names ``route``.
    IllConditionedError
        If ``||a_c||_1 * t_s * eps > 1e-2``: the exponential's condition
        number is about ``||a_c t_s||`` (Van Loan 1977), so fewer than two
        digits could be trusted.
    """
    for name, value in zip(IntervalMaps._fields, maps):
        if not np.isfinite(value).all():
            raise DivergenceError(f"{route} diverged: the {name} map is not finite")
    error_bound = norm1(model.a_c) * model.t_s * np.finfo(float).eps
    if error_bound > 1e-2:
        raise IllConditionedError(
            f"{route} is ill-conditioned: ||A_c||_1 * T_s * eps = "
            f"{error_bound:.3g} leaves fewer than 2 trustworthy digits"
        )
    n_x = model.n_x
    q_seq = model.targets @ maps.lin.T
    rho_seq = 0.5 * np.einsum(
        "kz,zy,ky->k", model.targets, model.q_c, model.targets
    ) * model.t_s
    return DiscreteLqModel(
        a=maps.ext[:n_x, :n_x],
        b=maps.ext[:n_x, n_x:],
        c=model.c_c,
        d=model.d_c,
        q=symmetrize(maps.quad),
        m=maps.lin,
        r_ww=symmetrize(maps.cov),
        t_s=model.t_s,
        q_k=q_seq,
        rho_k=rho_seq,
    )
