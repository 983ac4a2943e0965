"""Stochastic cost machinery: noise refinement, exact moments, Monte Carlo.

The total cost of a noisy run is a quadratic form in the Gaussian vector
``[x0; W]`` where ``W`` stacks the fine-grained noise increments of every
sampling interval (``n_sub`` sub-steps per interval).  The deterministic
pieces of that form come from the exact discretization; the noise pieces
come from an Euler-Maruyama refinement of each interval with step
``dt = t_s / n_sub``.  Materializing the form gives exact mean/variance
(a generalized chi-square); a streaming variant produces the same moments
without ever holding the big matrix; Monte Carlo evaluates three
independent regroupings of the same sampled cost and cross-checks them,
all three in one forward walk that draws each block's normals as it
goes.

The horizon walks (the state mean and covariance of the streaming moments
and the expected cost) are linear recursions with a constant transition.
They run in blocks of at most ``_WALK_BLOCK`` steps: the powers of the
transition and their Gramian partial sums are stacked once, and each block
is a fixed number of batched numpy products, so no step costs a Python
iteration and the working memory does not grow with the horizon.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .expm_method import discretize_expm, noise_trace_integral
from .linalg import symmetrize
from .model import ContinuousLqModel, DiscreteLqModel
from .sampling import DRAWS_PER_REPLICATE, block_generator

__all__ = [
    "EmIntervalOps",
    "EmReformulation",
    "McSummary",
    "em_reformulate",
    "cost_moments",
    "cost_moments_streaming",
    "expected_costs",
    "monte_carlo",
]

DEFAULT_DIM_CAP = 4096
_BLOCK = 2048          # Monte Carlo replicates per work unit (fixed)
_CHUNK = 8             # Euler sub-steps per product of the deviation walk
_WALK_BLOCK = 256      # steps per block of a horizon walk (bounds its memory)
STREAMS = ("continuous", "discrete", "em_form")
_PAIRS = ((0, 1), (0, 2), (1, 2))   # stream index pairs for the correlations


# ---------------------------------------------------------------------------
# within-interval noise refinement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmIntervalOps:
    """Euler-Maruyama refinement of one sampling interval.

    With ``E = I + dt a_c`` the Euler sub-step, ``powers[i] = E^i`` and
    ``held[i] = sum_{l<i} E^l dt b_c`` for ``i <= n_sub`` (so ``x_next =
    powers[n_sub] x + held[n_sub] u + noise_map w``, with ``w`` the stacked
    sub-step increments of covariance ``dt I``), ``f[i] = E^i g_c`` (the
    blocks of ``noise_map`` in reverse order, a read-only view of it) and
    ``gram_g[i] = sum_{s <= i} (E^s)' W f[s]`` (``W = c_c' q_c c_c``) for
    ``i < n_sub``.  The refined stage cost is linear in ``w`` through
    ``[x; u; target]' grad w``; its dense ``m_blk x m_blk`` noise block is
    built by :func:`_noise_block`, straight into ``q_big``, for
    :func:`em_reformulate` only (Monte Carlo scans it, :func:`_block_streams`).
    """

    dt: float
    powers: np.ndarray           # E^0 .. E^n_sub
    held: np.ndarray             # sum_{l<i} E^l dt b_c, i = 0 .. n_sub
    gram_g: np.ndarray           # sum_{s<=i} (E^s)' W f[s], i < n_sub
    noise_map: np.ndarray        # (n_x, n_sub * n_w): f[n_sub-1] .. f[0]
    grad: np.ndarray             # (n_xu + n_z, n_sub * n_w)

    @property
    def n_sub(self) -> int:
        return len(self.powers) - 1

    @property
    def block_dim(self) -> int:
        return self.noise_map.shape[1]

    @property
    def f(self) -> np.ndarray:
        """``f[i] = E^i g_c`` for ``i < n_sub``: ``(n_sub, n_x, n_w)``."""
        n_sub, n_x, n_w = self.gram_g.shape
        view = self.noise_map.reshape(n_x, n_sub, n_w)[:, ::-1].transpose(1, 0, 2)
        view.flags.writeable = False
        return view


def _euler_powers(model: ContinuousLqModel, n_sub: int):
    """``dt``, ``powers[i] = E^i`` and ``held[i] = sum_{l<i} E^l dt b_c``
    for ``i <= n_sub``, with the Euler sub-step ``E = I + dt a_c``.

    The powers are stacked by doubling (:func:`_powers`, about ``log2
    n_sub`` batched products) and ``held`` is their cumulative sum against
    ``dt b_c``.  Every Euler-Maruyama path starts here, so this is where an
    ``n_sub`` below 1 raises :class:`~lqdisc.errors.ValidationError`.
    """
    if n_sub < 1:
        raise ValidationError(f"n_sub must be >= 1, got {n_sub}")
    dt = model.t_s / n_sub
    powers = _powers(np.eye(model.n_x) + dt * model.a_c, n_sub)
    held = np.zeros((n_sub + 1, model.n_x, model.n_u))
    np.cumsum(powers[:n_sub] @ (dt * model.b_c), axis=0, out=held[1:])
    return dt, powers, held


def _trace_integral(model: ContinuousLqModel, dt: float, powers: np.ndarray) -> float:
    """Euler-Maruyama sum for the integral of tr(weight * within-interval
    noise covariance), from the powers of :func:`_euler_powers`; it is
    ``dt tr(noise_quad)``."""
    n_sub = len(powers) - 1
    noise_w = model.c_c.T @ model.q_c @ model.c_c
    f = powers[:n_sub] @ model.g_c
    per_node = (f * (noise_w @ f)).sum(axis=(1, 2))         # tr(f_k' W f_k)
    return dt * dt * float(((n_sub - np.arange(n_sub)) * per_node).sum())


def em_interval_ops(model: ContinuousLqModel, n_sub: int) -> EmIntervalOps:
    """Build the noise refinement maps for one sampling interval.

    With ``W = c_c' q_c c_c`` and ``E``, ``f``, ``held`` as in
    :class:`EmIntervalOps`, the noise blocks are sums over pairs of
    sub-steps; each reduces to prefix sums over powers of ``E`` (discrete
    analogues of Van Loan's Gramian integrals).  With ``G_r = gram_g[r]``,
    ``r = n_sub-1-q``, and ``P_r = sum_{m <= r} (c_c held[m] + d_c)' q_c
    c_c f[m]``, block ``q`` of ``grad`` has the x-rows ``dt (E^{q+1})'
    G_r``, the u-rows ``dt (held[q+1]' G_r + P_r)``, by ``held[a+b] = E^a
    held[b] + held[a]``, and the target rows ``-dt sum_{m <= r} q_c c_c
    f[m]``.  Every piece is a batched product or cumulative sum, linear in
    ``m_blk = n_sub * n_w``.  An ``n_sub`` below 1 raises
    :class:`~lqdisc.errors.ValidationError`.
    """
    n_x, n_u, n_z, n_w = model.n_x, model.n_u, model.n_z, model.n_w
    dt, powers, held = _euler_powers(model, n_sub)

    noise_w = model.c_c.T @ model.q_c @ model.c_c      # weight on the noise state
    f = powers[:n_sub] @ model.g_c                      # f[i] = euler^i g_c
    m_blk = n_sub * n_w
    noise_map = f[::-1].transpose(1, 0, 2).reshape(n_x, m_blk)

    gram_g = np.cumsum(powers[:n_sub].transpose(0, 2, 1) @ (noise_w @ f), axis=0)
    gram_rev = gram_g[::-1]                             # G_r, r = n_sub-1-q
    out_f = (model.q_c @ model.c_c) @ f
    out_held = model.c_c @ held[:n_sub] + model.d_c
    blocks = np.concatenate(
        [
            powers[1:].transpose(0, 2, 1) @ gram_rev,
            held[1:].transpose(0, 2, 1) @ gram_rev
            + np.cumsum(out_held.transpose(0, 2, 1) @ out_f, axis=0)[::-1],
            -np.cumsum(out_f, axis=0)[::-1],
        ],
        axis=1,
    )
    grad = dt * blocks.transpose(1, 0, 2).reshape(n_x + n_u + n_z, m_blk)
    return EmIntervalOps(dt, powers, held, gram_g, noise_map, grad)


def _noise_block(ops: EmIntervalOps, out: np.ndarray) -> None:
    """Add ``noise_quad`` into ``out``, a symmetric ``m_blk x m_blk`` array:
    zeros, or a diagonal block of ``q_big`` holding ``noise_map' G_k noise_map``.

    ``noise_quad[p, q] = dt sum_{t >= max(p, q)} f[t-p]' W f[t-q]`` is the
    dense noise block of the refined stage cost.  With the discrete
    Gramians ``G_r = ops.gram_g[r]``, its block ``(p >= q)`` is ``dt
    G_{n_sub-1-p}' f[p-q]``, and the blocks of ``noise_map`` run backwards,
    so block row ``p`` left of the diagonal is ``dt G_{n_sub-1-p}'`` times
    the tail of ``noise_map`` from block ``n_sub-1-p`` on.  Each block row
    of ``out`` adds its part and is copied to its mirror, and the diagonal
    sub-blocks are averaged with their transposes, so ``out`` is exactly
    symmetric and every temporary is ``O(m_blk n_x)``.  Only the
    materialized form needs it: :func:`em_reformulate` builds every
    diagonal block of ``q_big`` here.  :func:`cost_moments_streaming`
    takes its summaries from :func:`_noise_quad_summaries`; Monte Carlo's
    ``continuous`` and ``discrete`` streams take ``0.5 w' noise_quad w``
    from :func:`_pathwise_cost`, ``em_form`` from a forward scan over
    ``gram_g`` (:func:`_block_streams`).
    """
    n_sub, _, n_w = ops.gram_g.shape
    noise_map, m_blk = ops.noise_map, ops.block_dim
    # block row p: dt G_{n_sub-1-p}' times the last p+1 blocks of noise_map
    for p, g_t in enumerate(ops.dt * ops.gram_g[::-1].transpose(0, 2, 1)):
        lo, hi = p * n_w, (p + 1) * n_w
        row = out[lo:hi, :hi]
        row += g_t @ noise_map[:, m_blk - hi:]
        out[:lo, lo:hi] = row[:, :lo].T
    blocks = out.reshape(n_sub, n_w, n_sub, n_w)           # splits axes: a view
    idx = np.arange(n_sub)
    diag = blocks[idx, :, idx]                             # a copy, (n_sub, n_w, n_w)
    blocks[idx, :, idx] = 0.5 * (diag + diag.transpose(0, 2, 1))


def _noise_quad_summaries(ops: EmIntervalOps):
    """``|noise_quad|_F^2``, ``noise_map noise_quad noise_map'``, ``grad
    grad'`` and ``noise_map grad'``: every summary of the interval that
    the streaming walk reads but the trace (:func:`_trace_integral` over
    ``dt``), without forming the ``m_blk x m_blk`` matrix.

    With ``F_d = f[d]`` and ``G_r = ops.gram_g[r]``, block
    ``(p <= q)`` of ``noise_quad`` is ``dt F_d' G_r`` with ``d = q - p``
    and ``r = n_sub - 1 - q``.  Summing over the blocks, with ``P_k =
    sum_{d <= k} c_d F_d F_d'`` (``c_0 = 1``, ``c_d = 2`` above) and
    ``Pg_k = sum_{e <= k} F_e F_e'``:

    * ``|.|_F^2 = dt^2 sum_r tr(G_r' P_{n_sub-1-r} G_r)``;
    * ``noise_map noise_quad noise_map' = Y + Y'`` with ``Y = dt sum_b
      (E^b Pg_{n_sub-1-b} - F_b g_c' / 2) G_b F_b'`` (the block diagonal
      ``F_b (g_c' G_b) F_b'`` is halved, as ``Y + Y'`` counts it twice),
      one product of ``n_x x m_blk`` matrices.

    Each sum is a batched product, a cumulative sum or one flattened
    product: ``O(n_sub n_x^2 (n_x + n_w) + m_blk d^2)`` work with ``d =
    n_x + n_u + n_z``, and ``O(n_sub n_x (n_x + n_w))`` memory.
    """
    dt, powers, f, gram_g = ops.dt, ops.powers[:-1], ops.f, ops.gram_g
    noise_map, grad = ops.noise_map, ops.grad
    outer = f @ f.transpose(0, 2, 1)                    # F_d F_d'
    outer_sum = np.cumsum(outer, axis=0)                # Pg_k
    weighted_sum = 2.0 * outer_sum - outer[0]           # P_k
    frob_sq = dt * dt * float((gram_g * (weighted_sum[::-1] @ gram_g)).sum())
    half = (powers @ outer_sum[::-1] - 0.5 * (f @ f[0].T)) @ gram_g
    y = dt * (half[::-1].transpose(1, 0, 2).reshape(noise_map.shape) @ noise_map.T)
    return frob_sq, y + y.T, grad @ grad.T, noise_map @ grad.T


# ---------------------------------------------------------------------------
# materialized quadratic form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmReformulation:
    """Total cost as a quadratic form in the Gaussian vector [x0; W].

    ``0.5 chi' q_big chi + q_vec' chi + rho`` with ``chi ~ N(m_bar,
    blockdiag(x0_cov, dt * I))``.  It keeps the
    ``model`` it was built from, that model's exact discretization
    ``disc`` and the noise refinement ``ops``, so everything else is read
    from them.
    """

    model: ContinuousLqModel = field(repr=False)
    disc: DiscreteLqModel = field(repr=False)
    ops: EmIntervalOps = field(repr=False)
    q_big: np.ndarray
    q_vec: np.ndarray
    rho: float

    @property
    def n_sub(self) -> int:
        return self.ops.n_sub

    @property
    def dt(self) -> float:
        return self.ops.dt

    @property
    def dim(self) -> int:
        return self.q_big.shape[0]

    @property
    def n_x(self) -> int:
        return self.model.n_x

    @property
    def m_bar(self) -> np.ndarray:
        """Mean of [x0; W]: ``x0_mean``, then zeros."""
        out = np.zeros(self.dim)
        out[:self.n_x] = self.model.x0_mean
        return out


@dataclass(frozen=True)
class _CostToGo:
    """The quadratic form but its noise blocks on and below the diagonal."""

    grams: np.ndarray           # (horizon, n_x, n_x): G_k, weight on x_{k+1}
    factors: np.ndarray         # (horizon, m_blk, n_x): R_k, block k's rows against x_k
    q_vec: np.ndarray           # (dim,)
    q_xx: np.ndarray            # (n_x, n_x): the x0 diagonal block
    rho: float


def _cost_to_go(model: ContinuousLqModel, disc: DiscreteLqModel,
                ops: EmIntervalOps) -> _CostToGo:
    """The backward sweep over the stages behind the quadratic form, the
    cost-to-go recursion of :func:`~lqdisc.lqsolve.solve_finite_horizon`.

    Interval ``k``'s noise reaches later stages only through ``noise_map
    w_k`` in ``x_{k+1}``, so the sweep carries the weight ``G_k`` and the
    gradient ``lam`` (at the chi-free state means, one doubling scan
    :func:`_affine_scan` of the inputs) that later stages put on
    ``x_{k+1}``.  In ``q_big``, block ``(k, k)`` is ``noise_quad +
    noise_map' G_k noise_map``, block ``(j, k)`` below it is ``R_j
    a^(j-k-1) noise_map`` and the ``x0`` column of block ``j`` is ``R_j
    a^j``, with the ``n_x``-wide ``R_j = noise_map' G_j a + grad_x'``
    (``grad_x`` the x-rows of ``ops.grad``).  Only ``G`` and ``lam`` take
    a step per stage; ``R`` and ``q_vec`` are batched products, the noise
    part of ``q_vec`` one product of ``[s_k; u_k; target_k]`` with
    ``grad``.  Work and memory are ``O(dim n_x + horizon n_x^2)``.
    """
    horizon, n_x = model.horizon, model.n_x
    a, quad = disc.a, disc.q
    noise_map, grad = ops.noise_map, ops.grad

    # [s_k; u_k]: the chi-free state means next to the inputs
    drive = np.vstack([np.zeros(n_x), model.inputs[:-1] @ disc.b.T])
    xu = np.hstack([_affine_scan(_powers(a, horizon - 1), drive), model.inputs])
    g_x = (xu @ quad.T + disc.q_k)[:, :n_x]

    grams = np.empty((horizon, n_x, n_x))
    lams = np.empty((horizon, n_x))
    gram = np.zeros((n_x, n_x))
    lam = np.zeros(n_x)
    for k in range(horizon - 1, -1, -1):
        grams[k], lams[k] = gram, lam
        gram = quad[:n_x, :n_x] + a.T @ gram @ a
        lam = g_x[k] + a.T @ lam
    factors = noise_map.T @ grams @ a + grad[:n_x].T
    noise_vec = lams @ noise_map + np.hstack([xu, model.targets]) @ grad
    q_vec = np.concatenate([lam, noise_vec.ravel()])
    rho = float(_stage_costs(disc, xu, slice(None)).sum())
    return _CostToGo(grams, factors, q_vec, symmetrize(gram), rho)


def em_reformulate(
    model: ContinuousLqModel,
    n_sub: int,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> EmReformulation:
    """Materialize the total-cost quadratic form at refinement ``n_sub``.

    The deterministic spine (transition, input map, cost weights) is the
    exact discretization; only the within-interval noise terms use the
    Euler-Maruyama refinement.  Requests whose total dimension
    ``n_x + horizon * n_sub * n_w`` exceeds ``dim_cap``, or whose
    ``q_big`` the system refuses to allocate (tried before any other
    work), raise :class:`~lqdisc.errors.ResourceLimitError` — use
    :func:`cost_moments_streaming` for those.

    ``q_big`` is written from the backward sweep of :func:`_cost_to_go`,
    block column by block column from the last interval: the diagonal
    block is built in place (``noise_map' G_k noise_map`` as one product,
    then :func:`_noise_block`), the blocks below it are ``adj noise_map``
    with ``adj`` the rows ``R_j a^(j-k-1)`` that the ``x0`` column holds so
    far, each written once with its mirror, so ``q_big`` is exactly
    symmetric.  Work is ``O(dim^2 n_x + horizon dim n_x^2)``; memory beyond
    ``q_big`` is ``O(dim n_x)``.
    """
    horizon = model.horizon
    n_x = model.n_x
    dim = n_x + horizon * n_sub * model.n_w
    streamed = ("cost_moments_streaming(model, n_sub), which gives the same "
                "moments without the matrix")
    if dim > dim_cap:
        raise ResourceLimitError(
            f"quadratic form dimension {dim} exceeds the cap {dim_cap}; "
            f"lower n_sub or raise dim_cap, or use {streamed}"
        )
    try:        # before any other work: the system may refuse what the cap allows
        q_big = np.empty((dim, dim))
    except MemoryError:
        raise ResourceLimitError(
            f"quadratic form dimension {dim} needs {dim * dim * 8 / 2**30:.1f} GiB "
            f"that could not be allocated; lower n_sub, or use {streamed}"
        ) from None
    disc = discretize_expm(model)
    ops = em_interval_ops(model, n_sub)
    stages = _cost_to_go(model, disc, ops)
    a, m_blk, noise_map = disc.a, ops.block_dim, ops.noise_map
    for k in range(horizon - 1, -1, -1):
        start, stop = n_x + k * m_blk, n_x + (k + 1) * m_blk
        adj = q_big[stop:, :n_x]
        below = q_big[stop:, start:stop]
        np.matmul(adj, noise_map, out=below)
        q_big[start:stop, stop:] = below.T
        block = q_big[start:stop, start:stop]
        np.matmul(noise_map.T @ stages.grams[k], noise_map, out=block)
        _noise_block(ops, block)
        adj[...] = adj @ a
        q_big[start:stop, :n_x] = stages.factors[k]
    q_big[:n_x, :n_x] = stages.q_xx
    q_big[:n_x, n_x:] = q_big[n_x:, :n_x].T
    return EmReformulation(
        model=model, disc=disc, ops=ops, q_big=q_big, q_vec=stages.q_vec,
        rho=stages.rho,
    )


def cost_moments(ref: EmReformulation) -> tuple[float, float]:
    """Exact mean and variance of the quadratic-form cost.

    For ``phi = 0.5 chi' Q chi + q' chi + rho`` with Gaussian ``chi``:
    ``E = 0.5 m'Qm + q'm + rho + 0.5 tr(QP)`` and
    ``V = (Qm + q)' P (Qm + q) + 0.5 tr(QPQP)``.  With ``P = blockdiag(X,
    dt I)``, ``tr(QPQP) = tr(Q_xx X Q_xx X) + 2 dt <Q_xn Q_xn', X> +
    dt^2 |Q_nn|_F^2``, so no ``dim x dim`` product is formed.
    """
    n_x, dt, x0_cov = ref.n_x, ref.dt, ref.model.x0_cov
    q_big, q_vec, m_bar = ref.q_big, ref.q_vec, ref.m_bar
    q_xx, q_xn, q_nn = q_big[:n_x, :n_x], q_big[:n_x, n_x:], q_big[n_x:, n_x:]
    qm = q_big[:, :n_x] @ m_bar[:n_x]
    trace_qp = float(np.einsum("ij,ji->", q_xx, x0_cov)) + dt * float(np.trace(q_nn))
    mean = (
        0.5 * float(m_bar[:n_x] @ qm[:n_x])
        + float(q_vec @ m_bar)
        + ref.rho
        + 0.5 * trace_qp
    )
    lin = qm + q_vec
    qx = q_xx @ x0_cov
    var = (
        float(lin[:n_x] @ x0_cov @ lin[:n_x])
        + dt * float(lin[n_x:] @ lin[n_x:])
        + 0.5 * float(np.einsum("ij,ji->", qx, qx))
        + dt * float(np.einsum("ij,ij->", q_xn @ q_xn.T, x0_cov))
        + 0.5 * dt * dt * float(np.einsum("ij,ij->", q_nn, q_nn))
    )
    return mean, var


# ---------------------------------------------------------------------------
# blocked horizon walks
# ---------------------------------------------------------------------------

def _stage_costs(disc: DiscreteLqModel, xu: np.ndarray, k) -> np.ndarray:
    """The discrete stage cost ``0.5 xu' q xu + q_k' xu + rho_k`` of each
    row of ``xu = [x; u]``: every row at stage ``k`` for an integer ``k``,
    row ``i`` at the ``i``-th stage of ``k`` for a slice."""
    return (
        0.5 * np.einsum("ri,ri->r", xu @ disc.q, xu)
        + np.einsum("...i,...i->...", xu, disc.q_k[k])
        + disc.rho_k[k]
    )


def _powers(a: np.ndarray, n: int) -> np.ndarray:
    """``a^0 .. a^n`` stacked, by doubling: each batched product
    ``a^(j-1) @ a^(1..j-1)`` nearly doubles the stack, so about ``log2 n``."""
    out = np.empty((n + 1,) + a.shape)
    out[0] = np.eye(a.shape[0])
    if n:
        out[1] = a
    known = 2
    while known <= n:
        take = min(known - 1, n + 1 - known)
        out[known:known + take] = out[known - 1] @ out[1:take + 1]
        known += take
    return out


def _gramians(powers: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Partial Gramian sums ``out[i] = sum_{j<i} powers[j] m powers[j]'``,
    one per entry of ``powers`` (``out[0] = 0``)."""
    out = np.zeros_like(powers)
    terms = powers[:-1] @ m @ powers[:-1].transpose(0, 2, 1)
    np.cumsum(terms, axis=0, out=out[1:])
    return out


def _affine_scan(powers: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rows ``z_i = sum_{m<=i} A^(i-m) c_m``, i.e. ``z_i = A z_{i-1} + c_i``,
    by doubling the stride (Hillis-Steele): about ``log2 len(c)`` products
    with ``powers[s] = A^s`` (``len(powers) >= len(c)``)."""
    z = np.array(c, dtype=float)
    stride = 1
    while stride < len(z):
        z[stride:] += z[:-stride] @ powers[stride].T
        stride *= 2
    return z


def _state_blocks(powers: np.ndarray, model: ContinuousLqModel, disc: DiscreteLqModel,
                  step_cov: np.ndarray):
    """The state means and covariances of ``x_{k+1} = a x_k + b u_k +
    noise`` (noise covariance ``step_cov``) from ``model.x0_mean`` and
    ``model.x0_cov``, one block of at most ``_WALK_BLOCK`` steps at a time.

    Yields ``(start, stop, means, covs)`` with the ``stop - start + 1``
    rows for steps ``start .. stop``; ``powers`` holds ``a^0 .. a^B`` for
    the longest block ``B``.  In a block the means are a doubling scan and
    the covariances ``P_{start+i} = A^i P_start A^i' + S_i``, with ``S_i``
    the partial Gramian sums of ``step_cov``, symmetrized.
    """
    powers_t = powers.transpose(0, 2, 1)
    gram = _gramians(powers, step_cov)
    mean = np.asarray(model.x0_mean, dtype=float)
    cov = np.asarray(model.x0_cov, dtype=float)
    for start in range(0, model.horizon, _WALK_BLOCK):
        stop = min(start + _WALK_BLOCK, model.horizon)
        n = stop - start
        drive = model.inputs[start:stop] @ disc.b.T
        means = _affine_scan(powers, np.vstack([mean, drive]))
        covs = symmetrize(powers[:n + 1] @ cov @ powers_t[:n + 1] + gram[:n + 1])
        yield start, stop, means, covs
        mean, cov = means[n], covs[n]


# ---------------------------------------------------------------------------
# streaming moments
# ---------------------------------------------------------------------------

def cost_moments_streaming(model: ContinuousLqModel, n_sub: int) -> tuple[float, float]:
    """Mean and variance of the same quadratic form, never materialized.

    Walks the horizon once, propagating the state mean and covariance and
    two accumulators that carry every past stage's influence on later
    stages: stage ``k`` adds ``tr(q_xx H_k) + 2 g_k' h_k`` to the variance,
    with ``H_{k+1} = a H_k a' + kernel_k`` and ``h_{k+1} = a h_k +
    gamma_k``.  Matches :func:`cost_moments` to rounding on instances small
    enough to materialize.

    Every product with a factor of size ``m_blk = n_sub * n_w`` is a loop
    invariant and is taken once before the walk: the stage's noise
    gradient ``g_w = grad' [mu; target]`` enters only through ``|g_w|^2``
    (via ``grad grad'``) and ``noise_map g_w`` (via ``noise_map grad'``),
    and the noise part of each stage kernel through ``grad_x noise_map'``
    and ``noise_map noise_quad noise_map'``.  So the walk depends on
    ``n_x``, ``n_u`` and ``n_z`` only, not on ``n_sub``.  The dense
    ``m_blk x m_blk`` ``noise_quad`` is never formed: those summaries and
    its squared Frobenius norm come from :func:`_noise_quad_summaries`
    and its trace from :func:`_trace_integral`.

    The walk runs in the blocks of :func:`_state_blocks`, with ``A^0 ..
    A^B`` stacked once by doubling.  In a block of ``L`` steps every
    per-step term is one batched product, and the accumulators unroll to

        sum_k tr(q_xx H_k) = tr(O_L H) + sum_j tr(O_{L-1-j} kernel_j)
        sum_k g_k' h_k     = lam_{-1}' h + sum_j gamma_j' lam_j

    with ``O_r = sum_{m<r} (A^m)' q_xx A^m``, ``lam_j = sum_{k>j}
    (A^(k-1-j))' g_k`` (a backward scan) and ``(H, h)`` carried into the
    block.  Memory is ``O(B n_x^2 + n_sub d^2)`` with ``d = n_x + n_u +
    n_z + n_w``: it does not grow with the horizon and grows linearly with
    ``n_sub``.
    """
    return _streaming_walk(model, discretize_expm(model), em_interval_ops(model, n_sub))


def _streaming_walk(model: ContinuousLqModel, disc: DiscreteLqModel,
                    ops: EmIntervalOps) -> tuple[float, float]:
    """:func:`cost_moments_streaming` from the caller's exact discretization
    ``disc`` and noise refinement ``ops`` of ``model``."""
    n_x, n_xu = model.n_x, model.n_x + model.n_u
    dt = ops.dt
    a, quad = disc.a, disc.q
    q_xx = quad[:n_x, :n_x]

    trace_noise = _trace_integral(model, dt, ops.powers)
    quad_frob_sq, map_quad, grad_gram, map_grad = _noise_quad_summaries(ops)
    trace_noise_sq = dt * dt * quad_frob_sq
    grad_map = map_grad[:, :n_x].T                   # grad_x noise_map'
    noise_cov_step = dt * (ops.noise_map @ ops.noise_map.T)

    powers = _powers(a, min(model.horizon, _WALK_BLOCK))
    powers_t = powers.transpose(0, 2, 1)
    cost_gram = _gramians(powers_t, q_xx)            # O_r

    mean = 0.0
    var = 0.0
    hist_quad = np.zeros((n_x, n_x))     # transported sum of past stage kernels
    hist_lin = np.zeros(n_x)             # transported sum of past gamma_j

    for start, stop, means, covs in _state_blocks(powers, model, disc, noise_cov_step):
        n = stop - start
        pw, pw_t = powers[:n + 1], powers_t[:n + 1]
        # [mu_k; u_k; target_k], the rows that grad pairs with
        stacked = np.hstack([means[:n], model.inputs[start:stop],
                             model.targets[start:stop]])
        mu = stacked[:, :n_xu]
        cov = covs[:n]

        mean += float(_stage_costs(disc, mu, slice(start, stop)).sum()) + 0.5 * (
            float(np.einsum("ij,kji->", q_xx, cov)) + n * trace_noise
        )

        g_x = (mu @ quad.T + disc.q_k[start:stop])[:, :n_x]
        g_w_sq = float(np.einsum("ki,ij,kj->", stacked, grad_gram, stacked))
        t1 = q_xx @ cov
        own = (
            0.5 * (
                float(np.einsum("kij,kji->", t1, t1))
                + 2.0 * dt * float(
                    np.einsum("kab,ab->", cov, grad_gram[:n_x, :n_x])
                )
                + n * trace_noise_sq
            )
            + float(np.einsum("ki,kij,kj->", g_x, cov, g_x))
            + dt * g_w_sq
        )

        # each stage's covariance with x_{k+1}; the noise rows of
        # Cov(v_k, x_{k+1}) are dt * noise_map'
        k_xi = cov @ a.T                         # x-rows of Cov(v_k, x_{k+1})
        kernel = (
            k_xi.transpose(0, 2, 1) @ (q_xx @ k_xi + dt * grad_map)
            + dt * (grad_map.T @ k_xi)
            + (dt * dt) * map_quad
        )
        gamma = np.einsum("kxy,kx->ky", k_xi, g_x) + dt * (stacked @ map_grad.T)
        lam = _affine_scan(pw_t, g_x[::-1])[::-1]    # lam[j] is lam_{j-1}

        # cross-covariance with every earlier stage, via the accumulators
        var += own + (
            float(np.einsum("ij,ji->", cost_gram[n], hist_quad))
            + float(np.einsum("kij,kji->", cost_gram[n - 1::-1], kernel))
            + 2.0 * (
                float(lam[0] @ hist_lin)
                + float(np.einsum("kx,kx->", gamma[:-1], lam[1:]))
            )
        )

        back, back_t = pw[n - 1::-1], pw_t[n - 1::-1]      # A^(L-1-j)
        hist_quad = pw[n] @ hist_quad @ pw_t[n] + (back @ kernel @ back_t).sum(axis=0)
        hist_lin = pw[n] @ hist_lin + np.einsum("kxy,ky->x", back, gamma)

    return mean, var


# ---------------------------------------------------------------------------
# expected cost
# ---------------------------------------------------------------------------

def expected_costs(model: ContinuousLqModel, n_sub: int = 256) -> dict:
    """Expected total cost by noise-trace route: ``{"ode": ..., "em": ...}``.

    Each stage contributes its cost at the mean trajectory, a trace
    correction for the state covariance, and the within-interval noise
    trace integral (route ``"ode"``: the covariance-integral ODE solved
    exactly by :func:`~lqdisc.expm_method.noise_trace_integral`; route
    ``"em"``: the Euler-Maruyama refinement sum at ``n_sub``).  Only that
    integral depends on the route, so the horizon is walked once for both, from
    ``model.x0_mean`` and ``model.x0_cov`` in the blocks of
    :func:`_state_blocks`, and the stage costs are batched products.

    Both routes walk the covariance with the exact ``disc.r_ww``, so
    ``"em"`` equals the mean of :func:`cost_moments_streaming` (Monte
    Carlo's ``analytic_mean``), whose walk uses the refined ``dt noise_map
    noise_map'``, at ``horizon = 1`` only: on the stiff benchmark model at
    ``n_sub = 256`` it is ``-7.1e-5`` of ``"ode"`` below it at ``horizon =
    4`` and ``-1.2e-4`` at ``horizon = 20``.
    """
    disc = discretize_expm(model)
    noise_traces = {
        "ode": noise_trace_integral(model),
        "em": _trace_integral(model, *_euler_powers(model, n_sub)[:2]),
    }
    n_x = model.n_x
    powers = _powers(disc.a, min(model.horizon, _WALK_BLOCK))
    stage_cost = cov_trace = 0.0
    for start, stop, means, covs in _state_blocks(powers, model, disc, disc.r_ww):
        xu = np.hstack([means[:-1], model.inputs[start:stop]])
        stage_cost += float(_stage_costs(disc, xu, slice(start, stop)).sum())
        cov_trace += float(np.einsum("ij,kji->", disc.q[:n_x, :n_x], covs[:-1]))
    return {
        route: stage_cost + 0.5 * (cov_trace + model.horizon * noise_trace)
        for route, noise_trace in noise_traces.items()
    }


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McSummary:
    """Monte Carlo summary for the three cost streams."""

    n_sims: int
    seed: int
    n_sub: int
    sample_mean: dict
    sample_var: dict
    analytic_mean: float
    analytic_var: float
    correlations: dict
    histogram: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _symmetric_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(symmetrize(m))
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _quad_scan_maps(ops: EmIntervalOps, chunk: int) -> np.ndarray:
    """``em_form``'s scan maps (:func:`_pathwise_cost`), one per chunk:
    block diagonal over its sub-steps ``q``, the ``dt sqrt(dt) G_q'``
    blocks, then the ``-dt^2 / 4 (g_c' G_q + G_q' g_c)`` blocks, with
    ``G_q = gram_g[n_sub-1-q]`` (zero past ``n_sub``)."""
    n_sub, n_x, n_w = ops.gram_g.shape
    blocks = -(-n_sub // chunk)
    g_t = np.zeros((blocks * chunk, n_w, n_x))
    g_t[:n_sub] = ops.gram_g[::-1].transpose(0, 2, 1)
    sym = g_t @ ops.f[0]                                   # G_q' g_c
    parts = (ops.dt ** 1.5 * g_t, -0.25 * ops.dt ** 2 * (sym + sym.transpose(0, 2, 1)))
    return np.concatenate([
        np.einsum("jqwm,qp->jqwpm", part.reshape(blocks, chunk, n_w, part.shape[2]),
                  np.eye(chunk)).reshape(blocks, chunk * n_w, chunk * part.shape[2])
        for part in parts
    ], axis=2)


@dataclass(frozen=True)
class _McPlan:
    """Per-request constants of the Monte Carlo blocks, built once by
    :func:`_mc_plan` and shared by every block and worker.  The draws
    enter as standard normals ``z`` (increments ``w = sqrt(dt) z``), so
    the ``sqrt(dt)`` and ``dt`` factors live here, not in a pass over the
    draws.  The Euler deviation walk (:func:`_deviation_chunks`) reads
    ``chunk``, ``advance`` and ``inject``; :func:`_pathwise_cost` pairs
    each chunk of it with ``kernel_blk`` and ``drift_map`` for the
    ``continuous`` and ``discrete`` streams, and the chunk's draws with
    ``quad_maps`` for ``em_form``'s scan and with its rows of ``[shared_cols
    | interval_cols[k]]`` for every other product the draws enter.  Each
    map is stored once, and no piece is ``m_blk x m_blk``."""

    model: ContinuousLqModel
    disc: DiscreteLqModel
    ops: EmIntervalOps
    dim: int                    # draws per replicate, n_x + horizon * m_blk
    x0_root: np.ndarray         # symmetric square root of x0_cov (transposed)
    chunk: int                  # sub-steps per product, min(_CHUNK, n_sub)
    advance: np.ndarray         # [E' (E^2)' .. (E^chunk)']
    inject: np.ndarray          # block upper triangular, blocks sqrt(dt) (E^{t-l} g_c)'
    kernel_blk: np.ndarray      # kron(I_chunk, K), K = c_c' q_c c_c
    drift_map: np.ndarray       # block i: K' E^i, i = 1 .. n_sub
    offsets: np.ndarray         # k, i: K held_i u_k + c_c' q_c (d_c u_k - zbar_k)
    quad_maps: np.ndarray       # em_form's scan maps per chunk, _quad_scan_maps
    shared_cols: np.ndarray     # sqrt(dt) [noise_map' | grad' | noise_map']
    interval_cols: np.ndarray   # interval k: sqrt(dt) [q_vec_k | R_k]
    stages: _CostToGo


def _mc_plan(model: ContinuousLqModel, n_sub: int,
             dim_cap: int = DEFAULT_DIM_CAP) -> _McPlan:
    """Check the request's size, then build the matrices every block
    multiplies by.  A replicate reads ``dim`` draws, so ``dim`` above
    ``dim_cap`` or the sampler's budget raises
    :class:`~lqdisc.errors.ResourceLimitError` before any other work.
    ``noise_quad`` is never formed: ``em_form`` scans it through the
    per-chunk maps of :func:`_quad_scan_maps`.

    Interval ``k``'s draws reach a block one chunk at a time, so each
    product with them is a sum over chunks of one product with the
    chunk's rows of ``[shared_cols | interval_cols[k]]``: ``sqrt(dt)
    [noise_map' | grad']`` for the state step and the ``discrete``
    stream's ``grad`` term, then ``sqrt(dt) [noise_map' | q_vec_k | R_k]``
    (``em_form``'s own ``noise_map'``) for its ``n_x``-wide terms.  Each
    column depends only on its own column of the map, so sharing the
    product couples no two streams.  Per interval the plan keeps only
    ``[q_vec_k | R_k]`` and the ``offsets``, all from one batched pass."""
    n_x, n_w, horizon = model.n_x, model.n_w, model.horizon
    m_blk = n_sub * n_w
    dim = n_x + horizon * m_blk
    cap = min(dim_cap, DRAWS_PER_REPLICATE)
    if dim > cap:
        raise ResourceLimitError(
            f"Monte Carlo dimension {dim} (draws per replicate) exceeds the cap {cap}"
            + ("; lower the noise refinement (--subdiv) or raise the cap (--dim-cap)"
               if dim <= DRAWS_PER_REPLICATE else
               ", the sampler's budget per replicate; lower the noise refinement (--subdiv)")
        )
    disc = discretize_expm(model)
    ops = em_interval_ops(model, n_sub)
    stages = _cost_to_go(model, disc, ops)
    chunk = min(_CHUNK, n_sub)
    root_dt = np.sqrt(ops.dt)
    f_t = root_dt * ops.f[:chunk].transpose(0, 2, 1)
    zero = np.zeros((n_w, n_x))
    qc = model.q_c @ model.c_c
    kernel = model.c_c.T @ qc
    # every interval at once; each product keeps one interval's operand
    # shapes, so its bits are those of the interval's own product
    target_gap = (model.d_c @ model.inputs[:, :, None])[..., 0] - model.targets
    offsets = ((ops.held[1:] @ model.inputs[:, None, :, None])[..., 0] @ kernel
               + target_gap[:, None, :] @ qc)
    return _McPlan(
        model=model,
        disc=disc,
        ops=ops,
        dim=dim,
        x0_root=_symmetric_sqrt(model.x0_cov).T,
        chunk=chunk,
        advance=np.hstack(ops.powers[1:chunk + 1].transpose(0, 2, 1)),
        inject=np.block(
            [[f_t[t - l] if t >= l else zero for t in range(chunk)]
             for l in range(chunk)]
        ),
        kernel_blk=np.kron(np.eye(chunk), kernel),
        drift_map=np.vstack(kernel.T @ ops.powers[1:]),
        offsets=offsets,
        quad_maps=_quad_scan_maps(ops, chunk),
        shared_cols=root_dt * np.hstack([ops.noise_map.T, ops.grad.T, ops.noise_map.T]),
        interval_cols=root_dt * np.concatenate([
            stages.q_vec[n_x:].reshape(horizon, m_blk, 1), stages.factors], axis=2),
        stages=stages,
    )


def _deviation_chunks(plan: _McPlan, k: int, draw, reps: int):
    """Yield ``(s, c, z_c, cur)`` for interval ``k`` of ``reps``
    replicates: ``z_c = draw(k, s, c)`` holds the standard normals of
    sub-steps ``i = s .. s + c - 1``, asked for when the walk reaches
    them, and ``cur`` the Euler deviation ``dev_i = E dev_{i-1} + g_c w_i``
    (``dev_{-1} = 0``, ``w = sqrt(dt) z``) at those sub-steps, one product
    per chunk of ``plan.chunk``: ``dev_{s-1} P + z_c T`` (``P`` stacks
    ``(E^t)'``, ``T`` is block upper triangular with blocks ``sqrt(dt)
    (E^{t-l} g_c)'``), into a buffer the next chunk overwrites.  Each
    interval of a block walks it once, in :func:`_pathwise_cost`."""
    n_x, n_w = plan.model.n_x, plan.model.n_w
    n_sub, chunk = plan.ops.n_sub, plan.chunk
    step = np.empty((reps, chunk * n_x))
    for s in range(0, n_sub, chunk):
        c = min(chunk, n_sub - s)
        z_c = draw(k, s, c)
        cur = step[:, :c * n_x]
        np.matmul(z_c, plan.inject[:c * n_w, :c * n_x], out=cur)
        if s:                                           # the deviation starts at 0
            cur += last @ plan.advance[:, :c * n_x]
        yield s, c, z_c, cur
        last = cur[:, -n_x:].copy()


def _pathwise_cost(
    plan: _McPlan, k: int, x: np.ndarray, draw, em: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler deviation pass of interval ``k``: its noise-driven cost as
    ``(quad, lin)`` per replicate (rows of ``x``), its draws' product
    ``z_k cols_k`` with ``cols_k = [shared_cols | interval_cols[k]]``, and
    ``em_form``'s noise scan term added into ``em`` in place.

    ``draw(k, s, c)`` gives the interval's standard normals one chunk at
    a time (:func:`_deviation_chunks`); the increments are ``w = sqrt(dt)
    z``, with ``sqrt(dt)`` folded into ``plan.inject``.  From ``x_k = x``
    the sub-steps split the state into the drift ``E^i x_k + held_i u_k``
    and the deviation ``dev_i = E dev_{i-1} + g_c w_i``.  With ``K = c_c'
    q_c c_c``:

    * ``quad = 0.5 dt sum_i dev_i' K dev_i``, which is ``0.5 w_k'
      noise_quad w_k`` by the definition of ``noise_quad``, so both the
      ``continuous`` and the ``discrete`` stream take it from here;
    * ``lin = dt sum_i dev_i' (K drift_i + c_c' q_c (d_c u_k - zbar_k))``;
    * ``em`` gains ``0.5 w_k' noise_quad w_k`` by ``em_form``'s scan over
      ``gram_g`` (:func:`_block_streams`), which never meets ``K``.

    One deviation walk, two pairings: each chunk of
    :func:`_deviation_chunks` is folded into ``quad`` through ``kron(I_c,
    K)`` and a row dot, into ``lin`` through the chunk's rows of
    ``[drift_map | offsets[k]]``, and into ``em`` through one product of
    the chunk's draws with ``plan.quad_maps``; one more product with the
    chunk's rows of ``cols_k`` adds its part of ``z_k cols_k``; both maps
    are assembled here.  So the Monte Carlo block runs this inside its
    forward walk, from each ``x_k`` as made.
    """
    model, ops, chunk, kernel_blk = plan.model, plan.ops, plan.chunk, plan.kernel_blk
    n_x, n_w = model.n_x, model.n_w
    lin_map = np.hstack([plan.drift_map, plan.offsets[k].reshape(-1, 1)])
    cols = np.hstack([plan.shared_cols, plan.interval_cols[k]])
    reps = len(x)
    quad = np.zeros(reps)
    along = np.zeros((reps, n_x + 1))                  # dev @ lin_map, all chunks
    z_cols = np.zeros((reps, cols.shape[1]))           # z_k @ cols, all chunks
    for s, c, z_c, cur in _deviation_chunks(plan, k, draw, reps):
        quad += np.einsum("ri,ri->r", cur, cur @ kernel_blk[:c * n_x, :c * n_x])
        along += cur @ lin_map[s * n_x:(s + c) * n_x]
        paired = z_c @ plan.quad_maps[s // chunk, :c * n_w]
        em += np.einsum("ri,ri->r", cur, paired[:, :c * n_x])
        em += np.einsum("ri,ri->r", z_c, paired[:, chunk * n_x:][:, :c * n_w])
        z_cols += z_c @ cols[s * n_w:(s + c) * n_w]
    lin = np.einsum("ri,ri->r", along[:, :n_x], x) + along[:, n_x]
    return 0.5 * ops.dt * quad, ops.dt * lin, z_cols


def _block_streams(plan: _McPlan, x0: np.ndarray, draw) -> dict:
    """The three cost streams per replicate: row ``r`` of ``x0`` is its
    initial state, and ``draw(k, s, c)`` gives the standard normals behind
    the increments ``w = sqrt(dt) z`` of sub-steps ``s .. s + c - 1`` of
    interval ``k``, row ``r`` for replicate ``r``.

    One forward walk, ``k = 0 .. horizon - 1``, asks for interval ``k``'s
    draws one chunk at a time, in stream order (sub-steps ``s`` rising
    within an interval, the intervals in turn), and each chunk feeds all
    three streams.  The interval's product ``z_k cols_k``, summed over the
    chunks by :func:`_pathwise_cost`, gives through its ``sqrt(dt)
    [noise_map' | grad']`` columns the state step's ``noise_map`` term and
    the ``discrete`` stream's ``grad`` term, one row dot with ``[x_k; u_k;
    target_k]`` (each column depends only on its own column of the matrix,
    so sharing it couples no two streams); the
    Euler deviation of :func:`_pathwise_cost` from ``x_k`` gives the
    ``continuous`` stream's noise terms and the ``0.5 w_k' noise_quad w_k``
    that both share.

    ``em_form``, ``0.5 c' q_big c + q_vec' c + rho`` at ``c = [x0; sqrt(dt)
    z]``, reads only the pieces of :func:`_cost_to_go`, ``gram_g`` and the
    Euler deviation, and keeps its own accumulator ``s_k``, so it stays an
    independent check.  With ``v_k = sqrt(dt) noise_map z_k``, ``s_0 =
    x0`` and ``s_{k+1} = a s_k + v_k``, the blocks below the diagonal and
    the ``x0`` column are ``sum_k (sqrt(dt) z_k R_k) . s_k``; interval
    ``k`` adds that, its diagonal block ``0.5 dt z_k' noise_quad z_k + 0.5
    v_k' G_k v_k`` and ``sqrt(dt) z_k . q_vec_k``.  Block ``(p <= q)`` of
    ``noise_quad`` is ``dt f[q-p]' gram_g[r_q]`` (``r_q = n_sub-1-q``), so
    with ``h_q = E h_{q-1} + g_c z_q`` (``h_{-1} = 0``, the deviation of
    :func:`_deviation_chunks` over ``sqrt(dt)``), ``z' noise_quad z = dt
    sum_q (2 h_q - g_c z_q)' gram_g[r_q] z_q``: per chunk, one product of
    its ``z`` with its scan map pairs with ``[sqrt(dt) h | z]``.  That
    scan rides on the deviation walk of :func:`_pathwise_cost`: one
    deviation walk, two pairings, ``K`` for ``quad`` and ``gram_g`` for
    ``em_form``.  The same product gives through its ``sqrt(dt)
    [noise_map' | q_vec_k | R_k]`` columns every ``n_x``-wide term.  Only
    ``x_k``, ``s_k`` and per-interval pieces are held, so memory does not
    grow with the horizon.
    """
    model, disc, stages = plan.model, plan.disc, plan.stages
    n_x = model.n_x
    reps = len(x0)
    n_xu = n_x + model.n_u
    n_shared = n_x + n_xu + model.n_z                 # noise_map' and grad' columns
    x = s = x0                              # x_k of the walk, s_k of em_form
    em = x @ stages.q_vec[:n_x] + stages.rho
    em += 0.5 * np.einsum("ri,ri->r", x, x @ stages.q_xx)
    det_vals = np.zeros(reps)
    noise_vals = np.zeros(reps)
    quad = np.zeros(reps)
    lin = np.zeros(reps)
    xut = np.empty((reps, n_xu + model.n_z))          # [x_k | u_k | target_k]
    for k in range(model.horizon):
        xut[:, :n_x] = x
        xut[:, n_x:n_xu] = model.inputs[k]
        xut[:, n_xu:] = model.targets[k]
        det_vals += _stage_costs(disc, xut[:, :n_xu], k)
        quad_k, lin_k, z_cols = _pathwise_cost(plan, k, x, draw, em)
        quad += quad_k
        lin += lin_k
        noise_vals += np.einsum("ri,ri->r", z_cols[:, n_x:n_shared], xut)
        x = x @ disc.a.T + model.inputs[k] @ disc.b.T + z_cols[:, :n_x]

        cols = z_cols[:, n_shared:]
        v = cols[:, :n_x]
        em += 0.5 * np.einsum("ri,ri->r", v, v @ stages.grams[k]) + cols[:, n_x]
        em += np.einsum("ri,ri->r", cols[:, n_x + 1:], s)
        s = s @ disc.a.T + v
    return {
        "continuous": det_vals + lin + quad,
        "discrete": det_vals + noise_vals + quad,
        "em_form": em,
    }


def _simulate_block(args) -> dict:
    """One block's record: with its three streams the rows of ``V`` (in
    ``STREAMS`` order), ``sum = V 1``, ``gram = V V'`` and ``hist``, their
    bin counts (values beyond ``edges`` count in the end bins).

    Block ``block`` of ``reps`` replicates reads its stream in pieces from
    its one generator, each when the walk reaches it, in stream order: the
    ``x0`` draws of every replicate, then for each interval ``k`` one
    ``reps x (c n_w)`` piece per chunk of ``c = min(chunk, n_sub - s)``
    sub-steps ``s .. s + c - 1``.  Each piece is filled into one buffer
    that the next piece overwrites, so a block holds one chunk of draws,
    never its ``reps x dim``."""
    (plan, seed, block, reps, edges) = args
    model, n_w = plan.model, plan.model.n_w
    gen = block_generator(seed, block)
    x0 = model.x0_mean + gen.standard_normal((reps, model.n_x)) @ plan.x0_root
    buffer = np.empty(reps * plan.chunk * n_w)

    def draw(k, s, c):
        # the walk asks in stream order, so the generator is at piece (k, s)
        piece = buffer[:reps * c * n_w].reshape(reps, c * n_w)
        gen.standard_normal(out=piece)
        return piece

    values = _block_streams(plan, x0, draw)
    v = np.stack([values[s] for s in STREAMS])
    clipped = np.clip(v, edges[0], edges[-1])
    return {
        "sum": v.sum(axis=1),
        "gram": v @ v.T,
        "hist": np.stack([np.histogram(row, bins=edges)[0] for row in clipped]),
    }


def _records_in_order(pool: ThreadPoolExecutor, jobs: list, ahead: int):
    """The records of ``jobs`` in order, with at most ``ahead`` jobs
    submitted beyond the one being waited for.  ``Executor.map`` submits
    every job at once, and each future (~1.8 KB) and the record it holds
    would stay until its turn is read."""
    pending = []
    try:
        for job in jobs:
            pending.append(pool.submit(_simulate_block, job))
            if len(pending) > ahead:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    finally:
        for future in pending:
            future.cancel()


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def monte_carlo(
    model: ContinuousLqModel,
    n_sub: int,
    n_sims: int,
    seed: int,
    workers: int = 1,
    n_bins: int = 60,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> McSummary:
    """Simulate the three cost streams of ``model`` at refinement ``n_sub``
    and summarize them against :func:`cost_moments_streaming`.

    Streams: ``continuous`` (pathwise fine-grid quadrature along the
    sampled trajectory, with the drift-only part of each stage taken
    from the exact discrete stage cost), ``discrete`` (discrete stage
    costs plus the per-stage ``grad`` term),
    ``em_form`` (the quadratic form of :func:`em_reformulate`, read from
    its pieces; ``q_big`` is never formed).  Both ``continuous`` and
    ``discrete`` take ``0.5 w_k' noise_quad w_k`` from the Euler deviation
    pass of :func:`_pathwise_cost`, which pairs the deviation with ``c_c'
    q_c c_c``; ``em_form``, which sums ``noise_quad`` by a forward scan
    that pairs the same deviation with ``gram_g`` (one deviation walk, two
    pairings; no ``m_blk x m_blk`` array), is the independent check.  All
    three evaluate the same random variable, so they agree up to rounding and
    collapse to the deterministic cost when the model is noise free.  A
    replicate's ``dim = n_x + horizon * n_sub * n_w`` draws above
    ``dim_cap`` raise :class:`~lqdisc.errors.ResourceLimitError` before
    any other work (:func:`_mc_plan`).

    Each block of ``_BLOCK`` replicates draws its standard normals once,
    from its own generator and in stream order, one chunk of sub-steps at
    a time as its forward walk over the intervals reaches it
    (:func:`_simulate_block`), and feeds each chunk to all three streams
    (:func:`_block_streams`); it holds one chunk of draws plus pieces
    that do not grow with the horizon, and returns its record.  Each record is
    added into running totals as it arrives, in block order, and the
    means, variances and correlations are read off ``cov = (gram - n m
    m') / max(n - 1, 1)``.  A replicate's draws depend only on ``(seed,
    block, position)`` and the blocks have fixed boundaries, so the
    summary is identical for any worker count.
    ``workers`` bounds the threads: a request runs at most ``min(workers,
    blocks, usable CPUs)`` of them, each walking one block, and
    runs in the calling thread when that is 1.
    """
    if n_sims < 1:
        raise ValidationError(f"n_sims must be >= 1, got {n_sims}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if n_bins < 1:
        raise ValidationError(f"n_bins must be >= 1, got {n_bins}")

    plan = _mc_plan(model, n_sub, dim_cap)
    analytic_mean, analytic_var = _streaming_walk(model, plan.disc, plan.ops)
    spread = np.sqrt(max(analytic_var, 1e-12))
    edges = np.linspace(
        analytic_mean - 6.0 * spread, analytic_mean + 6.0 * spread, n_bins + 1
    )

    # one allocation up front, so a block count no memory holds fails here
    blocks = list(range(-(-n_sims // _BLOCK)))
    jobs = [(plan, seed, b, min(_BLOCK, n_sims - b * _BLOCK), edges) for b in blocks]
    threads = min(workers, len(jobs), _usable_cpus())

    def add(records):
        # in block order, each total from 0 as sum() starts
        total = {}
        for record in records:
            for key, value in record.items():
                total[key] = total.get(key, 0) + value
        return total

    if threads == 1:
        total = add(map(_simulate_block, jobs))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            total = add(_records_in_order(pool, jobs, 2 * threads))

    mean = total["sum"] / n_sims
    # one sample: gram is exactly n m m', so variances and correlations are 0
    cov = (total["gram"] - n_sims * np.outer(mean, mean)) / max(n_sims - 1, 1)
    var = np.diag(cov)
    correlations = {}
    for i, j in _PAIRS:
        denom = np.sqrt(var[i] * var[j])
        corr = float(cov[i, j] / denom) if denom > 0 else 0.0
        correlations[f"{STREAMS[i]}|{STREAMS[j]}"] = min(1.0, max(-1.0, corr))

    return McSummary(
        n_sims=n_sims,
        seed=seed,
        n_sub=n_sub,
        sample_mean={s: float(m) for s, m in zip(STREAMS, mean)},
        sample_var={s: float(v) for s, v in zip(STREAMS, var)},
        analytic_mean=analytic_mean,
        analytic_var=analytic_var,
        correlations=correlations,
        histogram={
            "edges": [float(e) for e in edges],
            "counts": {
                s: [int(c) for c in counts] for s, counts in zip(STREAMS, total["hist"])
            },
        },
    )
