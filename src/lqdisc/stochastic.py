"""Stochastic cost machinery: noise refinement, exact moments, Monte Carlo.

The total cost of a noisy run is a quadratic form in the Gaussian vector
``[x0; W]`` where ``W`` stacks the fine-grained noise increments of every
sampling interval (``n_sub`` sub-steps per interval).  The deterministic
pieces of that form come from the exact discretization; the noise pieces
come from an Euler-Maruyama refinement of each interval with step
``dt = t_s / n_sub``.  Materializing the form gives exact mean/variance
(a generalized chi-square); a streaming variant produces the same moments
without ever holding the big matrix; Monte Carlo evaluates three
independent regroupings of the same sampled cost and cross-checks them.

The horizon walks (the state mean and covariance of the streaming moments
and the expected cost) are linear recursions with a constant transition.
They run in blocks of at most ``_WALK_BLOCK`` steps: the powers of the
transition and their Gramian partial sums are stacked once, and each block
is a fixed number of batched numpy products, so no step costs a Python
iteration and the working memory does not grow with the horizon.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ResourceLimitError, ValidationError
from .expm_method import discretize_expm, noise_trace_integral
from .linalg import symmetrize
from .model import ContinuousLqModel, DiscreteLqModel
from .sampling import normal_block

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
_CHUNK = 8             # Euler sub-steps per product in the pathwise stream
_ROWS = 512            # replicates per row chunk of the em_form stream
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
    sub-step increments of covariance ``dt I``), ``f[i] = E^i g_c`` and
    ``gram_g[i] = sum_{s <= i} (E^s)' W f[s]`` (``W = c_c' q_c c_c``) for
    ``i < n_sub``.  ``cross`` and ``noise_lin`` are the noise blocks of the
    refined stage cost; its dense ``m_blk x m_blk`` noise block comes from
    :func:`_noise_quad`, which only :func:`em_reformulate` calls.
    """

    dt: float
    powers: np.ndarray           # E^0 .. E^n_sub
    held: np.ndarray             # sum_{l<i} E^l dt b_c, i = 0 .. n_sub
    f: np.ndarray                # f[i] = E^i g_c, i < n_sub
    gram_g: np.ndarray           # sum_{s<=i} (E^s)' W f[s], i < n_sub
    noise_map: np.ndarray        # (n_x, n_sub * n_w)
    cross: np.ndarray            # (n_xu, n_sub * n_w)
    noise_lin: np.ndarray        # (n_sub * n_w, n_z)

    @property
    def n_sub(self) -> int:
        return len(self.powers) - 1

    @property
    def block_dim(self) -> int:
        return self.noise_map.shape[1]


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
    per_node = np.einsum("kxw,xy,kyw->k", f, noise_w, f)
    return dt * dt * float(((n_sub - np.arange(n_sub)) * per_node).sum())


def em_interval_ops(model: ContinuousLqModel, n_sub: int) -> EmIntervalOps:
    """Build the noise refinement maps for one sampling interval.

    With ``W = c_c' q_c c_c`` and ``E``, ``f``, ``held`` as in
    :class:`EmIntervalOps`, the noise blocks are sums over pairs of
    sub-steps; each reduces to prefix sums over powers of ``E`` (discrete
    analogues of Van Loan's Gramian integrals).  With ``G_r = gram_g[r]``
    and ``P_r = sum_{m <= r} (c_c held[m] + d_c)' q_c c_c f[m]``, the
    x-rows of ``cross[:, q]`` are ``dt (E^{q+1})' G_{n_sub-1-q}`` and its
    u-rows ``dt (held[q+1]' G_{n_sub-1-q} + P_{n_sub-1-q})``, by
    ``held[a+b] = E^a held[b] + held[a]``;
    ``noise_lin[q] = -dt (sum_{m <= n_sub-1-q} f[m])' c_c' q_c``.  Every
    piece is a batched product or cumulative sum, linear in ``m_blk =
    n_sub * n_w``.  An ``n_sub`` below 1 raises
    :class:`~lqdisc.errors.ValidationError`.
    """
    n_x, n_u, n_z, n_w = model.n_x, model.n_u, model.n_z, model.n_w
    dt, powers, held = _euler_powers(model, n_sub)

    noise_w = model.c_c.T @ model.q_c @ model.c_c      # weight on the noise state
    f = powers[:n_sub] @ model.g_c                      # f[i] = euler^i g_c
    wf = noise_w @ f

    m_blk = n_sub * n_w
    noise_map = f[::-1].transpose(1, 0, 2).reshape(n_x, m_blk)

    # cross: x-rows dt (E^{q+1})' G_r, u-rows dt (held[q+1]' G_r + P_r),
    # with r = n_sub-1-q
    gram_g = np.cumsum(np.einsum("mxy,mxw->myw", powers[:n_sub], wf), axis=0)
    out_f = (model.q_c @ model.c_c) @ f
    out_held = model.c_c @ held[:n_sub] + model.d_c
    p_rev = np.cumsum(np.einsum("mzu,mzw->muw", out_held, out_f), axis=0)[::-1]
    cross_blocks = np.concatenate(
        [
            np.einsum("qxy,qxw->qyw", powers[1:], gram_g[::-1]),
            np.einsum("qxu,qxw->quw", held[1:], gram_g[::-1]) + p_rev,
        ],
        axis=1,
    )
    cross = dt * cross_blocks.transpose(1, 0, 2).reshape(n_x + n_u, m_blk)

    # noise_lin[q-block] = -dt * (sum_{m <= n_sub-1-q} f[m])' c_c' q_c
    f_cum_rev = np.cumsum(f, axis=0)[::-1]
    back_weight = model.c_c.T @ model.q_c
    noise_lin = -dt * np.einsum("qxw,xz->qwz", f_cum_rev, back_weight).reshape(
        m_blk, n_z
    )
    return EmIntervalOps(dt, powers, held, f, gram_g, noise_map, cross, noise_lin)


def _noise_quad(ops: EmIntervalOps, blocks: list) -> None:
    """Write the dense ``m_blk x m_blk`` noise block of the refined stage
    cost, ``noise_quad[p, q] = dt sum_{t >= max(p, q)} f[t-p]' W f[t-q]``,
    into every array of ``blocks`` (views such as the diagonal blocks of
    ``q_big`` will do).

    With the discrete Gramians ``G_r = ops.gram_g[r]``, block
    ``(p >= q)`` is ``dt G_{n_sub-1-p}' f[p-q]``: one product of the
    stacked ``G_r`` with ``noise_map`` gives every such pair, a skewed view
    of it lays them out as the lower block triangle, and the upper one is
    its transpose.  Both are copied into the first block and the other
    blocks copy the first, so the only temporary is that ``m_blk x m_blk``
    product.  Only the materialized form
    (:func:`em_reformulate`, and so Monte Carlo's ``em_form`` stream) needs
    it: :func:`cost_moments_streaming` takes its summaries from
    :func:`_noise_quad_summaries`, and the other Monte Carlo streams take
    ``0.5 w' noise_quad w`` from the Euler deviation of
    :func:`_pathwise_cost`.
    """
    if not blocks:
        return
    n_sub, n_x, n_w = ops.f.shape
    m_blk = ops.block_dim
    # pairs[(s, a), (c, b)] = dt (G_{n_sub-1-s}' f[n_sub-1-c])[a, b]: the
    # blocks of noise_map run backwards
    pairs = ops.gram_g[::-1].transpose(0, 2, 1).reshape(m_blk, n_x) @ ops.noise_map
    pairs *= ops.dt
    diag = pairs[:, m_blk - n_w:].reshape(n_sub, n_w, n_w)     # f[0] blocks
    diag[:] = 0.5 * (diag + diag.transpose(0, 2, 1))
    # block (p, q <= p) of noise_quad is pairs block (p, n_sub-1-p+q), so
    # the view below steps one block down and one block left per p.  Its
    # largest address (p = q = n_sub-1) is the last entry of ``pairs``;
    # for q > p it reads entries of other blocks, which the transposed
    # lower blocks then overwrite, one block row at a time
    item = pairs.itemsize
    lower = as_strided(
        pairs[:, (n_sub - 1) * n_w:],
        shape=(n_sub, n_w, n_sub, n_w),
        strides=((m_blk - 1) * n_w * item, m_blk * item, n_w * item, item),
        writeable=False,
    )
    quad = blocks[0].reshape(n_sub, n_w, n_sub, n_w)     # splits axes: a view
    quad[...] = lower
    for p in range(n_sub - 1):
        quad[p, :, p + 1:] = lower[p + 1:, :, p].transpose(2, 0, 1)
    for out in blocks[1:]:                               # plain copies of the first
        out[...] = blocks[0]


def _noise_quad_summaries(ops: EmIntervalOps):
    """``|noise_quad|_F^2`` and ``noise_map noise_quad noise_map'`` without
    forming the ``m_blk x m_blk`` matrix (its trace is
    :func:`_trace_integral` over ``dt``).

    With ``F_d = f[d]`` and ``G_r = ops.gram_g[r]``, block
    ``(p <= q)`` of ``noise_quad`` is ``dt F_d' G_r`` with ``d = q - p``
    and ``r = n_sub - 1 - q``.  Summing over the blocks, with ``P_k =
    sum_{d <= k} c_d F_d F_d'`` (``c_0 = 1``, ``c_d = 2`` above) and
    ``Pg_k = sum_{e <= k} F_e F_e'``:

    * ``|.|_F^2 = dt^2 sum_r tr(G_r' P_{n_sub-1-r} G_r)``;
    * ``noise_map noise_quad noise_map' = X + X' - D`` with ``X = dt
      sum_b E^b Pg_{n_sub-1-b} G_b F_b'`` and ``D = dt sum_b F_b (g_c'
      G_b) F_b'`` (the block diagonal, counted in both ``X`` and ``X'``).

    Each sum is a batched product or cumulative sum: ``O(n_sub n_x^3)``
    work and ``O(n_sub n_x^2)`` memory.
    """
    dt, powers, f, gram_g = ops.dt, ops.powers[:-1], ops.f, ops.gram_g
    outer = f @ f.transpose(0, 2, 1)                    # F_d F_d'
    outer_sum = np.cumsum(outer, axis=0)                # Pg_k
    weighted_sum = 2.0 * outer_sum - outer[0]           # P_k
    frob_sq = dt * dt * float(
        np.einsum("rxw,rxy,ryw->", gram_g, weighted_sum[::-1], gram_g)
    )
    x = dt * np.einsum("bxw,bzw->xz", powers @ outer_sum[::-1] @ gram_g, f)
    diag = dt * np.einsum("bxv,bvw,bzw->xz", f, f[0].T @ gram_g, f)
    return frob_sq, x + x.T - diag


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

    Built in one backward sweep, the cost-to-go recursion of
    :func:`~lqdisc.lqsolve.solve_finite_horizon`: interval ``b``'s noise
    reaches later stages only through ``noise_map w_b`` in ``x_{b+1}``, so
    the sweep carries the weight ``gram`` and the gradient ``lam`` (at the
    chi-free state means, one doubling scan :func:`_affine_scan` of the
    inputs) that later stages put on ``x_{b+1}``, and the
    rows ``adj`` of the later noise blocks against it.  Block column ``b``
    is ``noise_quad + noise_map' gram noise_map`` on the diagonal and
    ``adj noise_map`` below it, written once with its mirror, so ``q_big``
    is exactly symmetric.  Work is ``O(dim^2 n_x + horizon dim n_x^2)``;
    memory beyond ``q_big`` is one ``m_blk x m_blk`` block at a time (the
    product that lays out ``noise_quad``, then the sweep's buffer) plus
    ``O(dim n_x)``.
    """
    horizon = model.horizon
    n_x = model.n_x
    dim = n_x + horizon * n_sub * model.n_w
    if dim > dim_cap:
        raise ResourceLimitError(
            f"quadratic form dimension {dim} exceeds the cap {dim_cap}; "
            "lower the noise refinement (--subdiv) or raise the cap (--dim-cap)"
        )
    try:        # before any other work: the system may refuse what the cap allows
        q_big = np.empty((dim, dim))
    except MemoryError:
        raise ResourceLimitError(
            f"quadratic form dimension {dim} needs {dim * dim * 8 / 2**30:.1f} GiB "
            "that could not be allocated; lower the noise refinement (--subdiv)"
        ) from None
    disc = discretize_expm(model)
    ops = em_interval_ops(model, n_sub)
    a, quad, m_blk = disc.a, disc.q, ops.block_dim
    noise_map, cross = ops.noise_map, ops.cross

    # [s_k; u_k]: the chi-free state means next to the inputs
    drive = np.vstack([np.zeros(n_x), model.inputs[:-1] @ disc.b.T])
    xu = np.hstack([_affine_scan(_powers(a, horizon - 1), drive), model.inputs])
    grad = (xu @ quad.T + disc.q_k)[:, :n_x]

    # noise_quad goes straight into the diagonal blocks; the sweep adds the
    # state part through one reused m_blk x m_blk buffer
    _noise_quad(ops, [
        q_big[start:start + m_blk, start:start + m_blk]
        for start in range(n_x, dim, m_blk or 1)
    ])
    buf = np.empty((m_blk, m_blk))
    q_vec = np.empty(dim)
    gram = np.zeros((n_x, n_x))
    lam = np.zeros(n_x)
    for b in range(horizon - 1, -1, -1):
        start, stop = n_x + b * m_blk, n_x + (b + 1) * m_blk
        adj = q_big[stop:, :n_x]
        below = q_big[stop:, start:stop]
        np.matmul(adj, noise_map, out=below)
        q_big[start:stop, stop:] = below.T
        head = noise_map.T @ gram
        diag = q_big[start:stop, start:stop]
        np.matmul(head, noise_map, out=buf)
        diag += buf
        np.add(diag, diag.T, out=buf)
        np.multiply(buf, 0.5, out=diag)
        q_vec[start:stop] = (
            noise_map.T @ lam + cross.T @ xu[b] + ops.noise_lin @ model.targets[b]
        )
        adj[...] = adj @ a
        q_big[start:stop, :n_x] = head @ a + cross[:n_x].T
        gram = quad[:n_x, :n_x] + a.T @ gram @ a
        lam = grad[b] + a.T @ lam

    q_big[:n_x, :n_x] = symmetrize(gram)
    q_big[:n_x, n_x:] = q_big[n_x:, :n_x].T
    q_vec[:n_x] = lam
    rho = float(_stage_costs(disc, xu, slice(None)).sum())
    return EmReformulation(
        model=model, disc=disc, ops=ops, q_big=q_big, q_vec=q_vec, rho=rho,
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
    gradient ``g_w = cross' mu + noise_lin target`` enters only through
    ``|g_w|^2`` (via ``cross cross'``, ``cross noise_lin`` and
    ``noise_lin' noise_lin``) and ``noise_map g_w`` (via ``noise_map
    cross'`` and ``noise_map noise_lin``), and the noise part of each
    stage kernel through ``cross_x noise_map'`` and ``noise_map
    noise_quad noise_map'``.  So the walk depends on ``n_x``, ``n_u`` and
    ``n_z`` only, not on ``n_sub``.  The dense ``m_blk x m_blk``
    ``noise_quad`` is never formed: its squared Frobenius norm and
    ``noise_map noise_quad noise_map'`` come from the prefix Gramians of
    :func:`_noise_quad_summaries` and its trace from
    :func:`_trace_integral`.

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
    disc = discretize_expm(model)
    ops = em_interval_ops(model, n_sub)
    n_x = model.n_x
    dt = ops.dt
    a, quad, cross = disc.a, disc.q, ops.cross
    noise_map, noise_lin = ops.noise_map, ops.noise_lin
    q_xx = quad[:n_x, :n_x]

    trace_noise = _trace_integral(model, dt, ops.powers)
    quad_frob_sq, map_quad = _noise_quad_summaries(ops)
    trace_noise_sq = dt * dt * quad_frob_sq
    cross_gram = cross @ cross.T                     # (n_xu, n_xu)
    cross_lin = cross @ noise_lin                    # (n_xu, n_z)
    lin_gram = noise_lin.T @ noise_lin               # (n_z, n_z)
    map_cross = noise_map @ cross.T                  # (n_x, n_xu)
    map_lin = noise_map @ noise_lin                  # (n_x, n_z)
    cross_map = map_cross[:, :n_x].T                 # cross_x noise_map'
    noise_cov_step = dt * (noise_map @ noise_map.T)

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
        inputs = model.inputs[start:stop]
        target = model.targets[start:stop]
        mu = np.hstack([means[:n], inputs])
        cov = covs[:n]

        mean += float(_stage_costs(disc, mu, slice(start, stop)).sum()) + 0.5 * (
            float(np.einsum("ij,kji->", q_xx, cov)) + n * trace_noise
        )

        g_x = (mu @ quad.T + disc.q_k[start:stop])[:, :n_x]
        g_w_sq = float(
            np.einsum("ki,ij,kj->", mu, cross_gram, mu)
            + 2.0 * np.einsum("ki,ij,kj->", mu, cross_lin, target)
            + np.einsum("ki,ij,kj->", target, lin_gram, target)
        )
        t1 = q_xx @ cov
        own = (
            0.5 * (
                float(np.einsum("kij,kji->", t1, t1))
                + 2.0 * dt * float(
                    np.einsum("kab,ab->", cov, cross_gram[:n_x, :n_x])
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
            k_xi.transpose(0, 2, 1) @ (q_xx @ k_xi + dt * cross_map)
            + dt * (cross_map.T @ k_xi)
            + (dt * dt) * map_quad
        )
        gamma = np.einsum("kxy,kx->ky", k_xi, g_x) + dt * (
            mu @ map_cross.T + target @ map_lin.T
        )
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


def _em_panels(ref: EmReformulation) -> tuple[np.ndarray, list]:
    """``U`` and the factors ``K_b = q_big[below b, b] U`` of the noise
    block columns of ``q_big`` below their diagonal blocks.

    Interval ``b``'s noise reaches later stages only through the state, by
    ``noise_map w_b``, so ``q_big[below b, b] = K_b U'`` with ``U`` an
    orthonormal basis of the row space of ``noise_map`` (at most ``n_x``
    columns).  When ``m_blk <= n_x`` that basis may be square: ``U = I``
    and each ``K_b`` is the column itself, a view of ``q_big``, and the
    factoring holds trivially.  Otherwise each column is checked in
    ``_ROWS``-row pieces, each piece's ``K_b U'`` minus the column taken in
    one reused buffer; one that differs by more than ``1e-12 max|q_big|``
    (a ``q_big`` that is not the materialized form) raises
    :class:`~lqdisc.errors.ValidationError` naming it.
    """
    q_big, n_x, m_blk = ref.q_big, ref.n_x, ref.ops.block_dim
    starts = range(n_x, ref.dim, m_blk or 1)
    columns = [q_big[start + m_blk:, start:start + m_blk] for start in starts]
    if m_blk <= n_x:
        return np.eye(m_blk), columns
    basis = np.linalg.qr(ref.ops.noise_map.T)[0]
    tol = 1e-12 * max(q_big.max(), -q_big.min())
    buf = np.empty((_ROWS, m_blk))
    factors = []
    for b, (start, below) in enumerate(zip(starts, columns)):
        k_b = below @ basis
        factors.append(k_b)
        for r in range(0, len(below), _ROWS):
            piece = buf[:len(below) - r]
            np.matmul(k_b[r:r + _ROWS], basis.T, out=piece)
            piece -= below[r:r + _ROWS]
            if piece.max() > tol or piece.min() < -tol:
                raise ValidationError(
                    f"q_big noise block column {b} (columns {start}:{start + m_blk}) "
                    "is not the materialized form: it does not factor through "
                    "the noise map below its diagonal block"
                )
    return basis, factors


@dataclass(frozen=True)
class _EulerDeviation:
    """Per-request maps of the Euler deviation pass (:func:`_pathwise_cost`)
    over ``chunk`` sub-steps at a time."""

    model: ContinuousLqModel
    ops: EmIntervalOps
    chunk: int                  # sub-steps per product, min(_CHUNK, n_sub)
    qc: np.ndarray              # q_c c_c
    kernel: np.ndarray          # K = c_c' q_c c_c
    advance: np.ndarray         # [E' (E^2)' .. (E^chunk)']
    inject: np.ndarray          # block upper triangular, blocks sqrt(dt) (E^{t-l} g_c)'
    kernel_blk: np.ndarray      # kron(I_chunk, K)
    drift_map: np.ndarray       # block i: K' E^i, i = 1 .. n_sub


def _euler_deviation(model: ContinuousLqModel, ops: EmIntervalOps) -> _EulerDeviation:
    n_x, n_w = model.n_x, model.n_w
    chunk = min(_CHUNK, ops.n_sub)
    f_t = np.sqrt(ops.dt) * ops.f[:chunk].transpose(0, 2, 1)
    zero = np.zeros((n_w, n_x))
    qc = model.q_c @ model.c_c
    kernel = model.c_c.T @ qc
    return _EulerDeviation(
        model=model,
        ops=ops,
        chunk=chunk,
        qc=qc,
        kernel=kernel,
        advance=np.hstack(ops.powers[1:chunk + 1].transpose(0, 2, 1)),
        inject=np.block(
            [[f_t[t - l] if t >= l else zero for t in range(chunk)]
             for l in range(chunk)]
        ),
        kernel_blk=np.kron(np.eye(chunk), kernel),
        drift_map=np.vstack(kernel.T @ ops.powers[1:]),
    )


def _pathwise_cost(
    dev: _EulerDeviation, k: int, x: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Euler deviation pass of interval ``k``: its noise-driven cost as
    ``(quad, lin)`` per replicate (rows of ``x`` and ``z``).

    ``z`` holds the interval's ``n_sub * n_w`` standard normals; the
    increments are ``w = sqrt(dt) z``, with ``sqrt(dt)`` folded into
    ``dev.inject``.  From ``x_k = x`` the sub-steps split the state into
    the drift ``E^i x_k + held_i u_k`` and the deviation ``dev_i = E
    dev_{i-1} + g_c w_i``.  With ``K = c_c' q_c c_c``:

    * ``quad = 0.5 dt sum_i dev_i' K dev_i``, which is ``0.5 w_k'
      noise_quad w_k`` by the definition of ``noise_quad``, so both the
      ``continuous`` and the ``discrete`` stream take it from here;
    * ``lin = dt sum_i dev_i' (K drift_i + c_c' q_c (d_c u_k - zbar_k))``.

    The deviation advances ``dev.chunk`` sub-steps per product, ``dev_s P
    + z_{s+1..s+c} T`` (``P`` stacks ``(E^t)'``, ``T`` is block upper
    triangular with blocks ``sqrt(dt) (E^{t-l} g_c)'``), into one
    ``(replicates, c * n_x)`` buffer.  Each chunk is folded into both sums
    as soon as it is made: ``quad`` through ``kron(I_c, K)`` and a row
    dot, ``lin`` through the chunk's rows of ``drift_map`` and ``offset``.
    So no array spans all ``n_sub`` sub-steps, and the Monte Carlo block
    runs this inside its forward walk, from each ``x_k`` as it is made.
    """
    model, ops = dev.model, dev.ops
    n_x, n_w = model.n_x, model.n_w
    n_sub, dt, held = ops.n_sub, ops.dt, ops.held
    chunk, advance, inject, kernel_blk = dev.chunk, dev.advance, dev.inject, dev.kernel_blk
    u = model.inputs[k]
    offset = (held[1:] @ u) @ dev.kernel + (model.d_c @ u - model.targets[k]) @ dev.qc
    lin_map = np.hstack([dev.drift_map, offset.reshape(-1, 1)])
    reps = len(x)
    quad = np.zeros(reps)
    along = np.zeros((reps, n_x + 1))                  # dev @ lin_map, all chunks
    step = np.empty((reps, chunk * n_x))
    for s in range(0, n_sub, chunk):
        c = min(chunk, n_sub - s)
        cur = step[:, :c * n_x]                         # sub-steps s+1 .. s+c
        np.matmul(z[:, s * n_w:(s + c) * n_w], inject[:c * n_w, :c * n_x], out=cur)
        if s:                                           # the deviation starts at 0
            cur += last @ advance[:, :c * n_x]
        quad += np.einsum("ri,ri->r", cur, cur @ kernel_blk[:c * n_x, :c * n_x])
        along += cur @ lin_map[s * n_x:(s + c) * n_x]
        last = cur[:, -n_x:].copy()
    lin = np.einsum("ri,ri->r", along[:, :n_x], x) + along[:, n_x]
    quad *= 0.5 * dt
    lin *= dt
    return quad, lin


@dataclass(frozen=True)
class _McPlan:
    """Per-request constants of the Monte Carlo blocks, built once by
    :func:`_mc_plan` and shared by every block and worker.  The draws
    enter as standard normals ``z`` (increments ``w = sqrt(dt) z``), so
    the ``sqrt(dt)`` and ``dt`` factors live here, not in a pass over the
    draws."""

    ref: EmReformulation
    x0_root: np.ndarray         # symmetric square root of x0_cov (transposed)
    shared: np.ndarray          # sqrt(dt) [cross' | noise_map' | noise_lin]
    em_cols: np.ndarray         # interval k: [dt U | sqrt(dt) [q_vec | x0 column] rows of k]
    factors: list               # K_k of _em_panels, one per interval
    deviation: _EulerDeviation


def _mc_plan(ref: EmReformulation) -> _McPlan:
    """Check ``q_big``'s off-diagonal noise columns (:func:`_em_panels`) and
    stack the matrices every block multiplies by."""
    ops, n_x, m_blk = ref.ops, ref.n_x, ref.ops.block_dim
    root_dt = np.sqrt(ops.dt)
    basis, factors = _em_panels(ref)
    # q_vec and the x0 block column on the noise rows, one block per interval
    lin = np.column_stack([ref.q_vec[n_x:], ref.q_big[n_x:, :n_x]])
    em_cols = np.concatenate([
        np.broadcast_to(ops.dt * basis, (ref.model.horizon,) + basis.shape),
        root_dt * lin.reshape(ref.model.horizon, m_blk, 1 + n_x),
    ], axis=2)
    return _McPlan(
        ref=ref,
        x0_root=_symmetric_sqrt(ref.model.x0_cov).T,
        shared=root_dt * np.hstack([ops.cross.T, ops.noise_map.T, ops.noise_lin]),
        em_cols=em_cols,
        factors=factors,
        deviation=_euler_deviation(ref.model, ops),
    )


def _em_form(plan: _McPlan, chi: np.ndarray) -> np.ndarray:
    """``0.5 c' q_big c + q_vec' c + rho`` per row ``chi = [x0; z]``, with
    ``c = [x0; sqrt(dt) z]``, from the lower block triangle of ``q_big``.

    The ``x0`` diagonal block gives ``0.5 x0' Q_xx x0 + q_vec_x' x0``.
    Noise block column ``k`` adds ``0.5 dt z_k' Q_kk z_k + sqrt(dt) z_k .
    (q_vec_k + Q_kx x0) + dt (z_k U) . (z_after K_k)``, with ``U`` and
    ``K_k`` from :func:`_em_panels`: the diagonal block ``Q_kk`` is read
    densely, so this stays an independent check of ``0.5 w' noise_quad
    w``, and the other terms come from one skinny product of ``z_k`` with
    the interval's ``em_cols`` and the row dot of two skinny products, so
    no ``m_blk``-wide array is formed for them.  A noise-free model
    (``n_w = 0``) has the ``x0`` block only.

    The replicates go in pieces of ``_ROWS`` rows, each piece through
    every block column before the next: the piece's ``z_k`` is still in
    cache from the dense product when the skinny one reads it, and so are
    the later draws that ``z_after K_k`` reads.  ``q_big`` is read through
    views; the largest temporary is a piece's ``_ROWS x m_blk`` product
    with one diagonal block.
    """
    ref = plan.ref
    q_big, n_x, m_blk = ref.q_big, ref.n_x, ref.ops.block_dim
    half_dt = 0.5 * ref.ops.dt
    x = chi[:, :n_x]
    out = x @ ref.q_vec[:n_x] + ref.rho
    out += 0.5 * np.einsum("ri,ri->r", x, x @ q_big[:n_x, :n_x])
    for r in range(0, len(chi), _ROWS):
        rows, acc = chi[r:r + _ROWS], out[r:r + _ROWS]
        lin = np.zeros((len(rows), 1 + n_x))         # w' [q_vec | x0 column]
        for k, k_b in enumerate(plan.factors):
            start, stop = n_x + k * m_blk, n_x + (k + 1) * m_blk
            z_k = rows[:, start:stop]
            acc += half_dt * np.einsum("ri,ri->r", z_k, z_k @ q_big[start:stop, start:stop])
            cols = z_k @ plan.em_cols[k]
            acc += np.einsum("ri,ri->r", cols[:, :-1 - n_x], rows[:, stop:] @ k_b)
            lin += cols[:, -1 - n_x:]
        acc += lin[:, 0] + np.einsum("ri,ri->r", rows[:, :n_x], lin[:, 1:])
    return out


def _block_streams(plan: _McPlan, chi: np.ndarray) -> dict:
    """The three cost streams per row of ``chi = [x0; z]``, where ``z`` are
    the standard normals behind the increments ``w = sqrt(dt) z``.

    One forward walk over the intervals.  In it, interval ``k``'s normals
    ``z_k`` go through one product with ``sqrt(dt) [cross' | noise_map' |
    noise_lin]``, which gives the ``discrete`` stream's ``cross`` and
    ``noise_lin`` terms and the state step's ``noise_map`` term, and
    through the Euler deviation of :func:`_pathwise_cost` from ``x_k``,
    which gives the ``continuous`` stream's noise terms and the
    ``0.5 w_k' noise_quad w_k`` that both share.  Each column of the
    shared product depends only on its own column of the matrix, so
    sharing it couples no two streams.  ``em_form`` reads the same draws
    through ``q_big`` alone (:func:`_em_form`).  Only ``x_k`` and
    per-interval pieces are held, so memory beyond ``chi`` does not grow
    with the horizon.
    """
    ref = plan.ref
    model, disc, ops = ref.model, ref.disc, ref.ops
    n_x, m_blk = model.n_x, ops.block_dim
    reps = len(chi)
    n_xu = n_x + model.n_u
    x = chi[:, :n_x]
    det_vals = np.zeros(reps)
    noise_vals = np.zeros(reps)
    quad = np.zeros(reps)
    lin = np.zeros(reps)
    xu = np.empty((reps, n_xu))
    for k in range(model.horizon):
        z_k = chi[:, n_x + k * m_blk:n_x + (k + 1) * m_blk]
        shared = z_k @ plan.shared
        xu[:, :n_x] = x
        xu[:, n_x:] = model.inputs[k]
        det_vals += _stage_costs(disc, xu, k)
        noise_vals += (
            np.einsum("ri,ri->r", shared[:, :n_xu], xu)
            + shared[:, n_xu + n_x:] @ model.targets[k]
        )
        quad_k, lin_k = _pathwise_cost(plan.deviation, k, x, z_k)
        quad += quad_k
        lin += lin_k
        x = x @ disc.a.T + model.inputs[k] @ disc.b.T + shared[:, n_xu:n_xu + n_x]
    return {
        "continuous": det_vals + lin + quad,
        "discrete": det_vals + noise_vals + quad,
        "em_form": _em_form(plan, chi),
    }


def _simulate_block(args) -> dict:
    """One block's record: with its three streams the rows of ``V`` (in
    ``STREAMS`` order), ``sum = V 1``, ``gram = V V'`` and ``hist``, their
    bin counts (values beyond ``edges`` count in the end bins)."""
    (plan, seed, start, stop, edges) = args
    model, n_x = plan.ref.model, plan.ref.n_x
    # chi = [x0; z]: x0 is built in place in the draws, z stays standard
    chi = normal_block(seed, np.arange(start, stop), plan.ref.dim)
    x = chi[:, :n_x]
    x[...] = model.x0_mean + x @ plan.x0_root

    values = _block_streams(plan, chi)
    v = np.stack([values[s] for s in STREAMS])
    clipped = np.clip(v, edges[0], edges[-1])
    return {
        "sum": v.sum(axis=1),
        "gram": v @ v.T,
        "hist": np.stack([np.histogram(row, bins=edges)[0] for row in clipped]),
    }


def monte_carlo(
    ref: EmReformulation,
    n_sims: int,
    seed: int,
    workers: int = 1,
    n_bins: int = 60,
) -> McSummary:
    """Simulate the three cost streams of ``ref.model`` and summarize them.

    Streams: ``continuous`` (pathwise fine-grid quadrature along the
    sampled trajectory, with the drift-only part of each stage taken
    from the exact discrete stage cost), ``discrete`` (discrete stage
    costs plus the per-stage ``cross`` and ``noise_lin`` terms),
    ``em_form`` (the materialized quadratic form at the same sample).
    Both ``continuous`` and ``discrete`` take the pure-noise quadratic
    ``0.5 w_k' noise_quad w_k`` from the one Euler deviation pass of
    :func:`_pathwise_cost`, so neither reads ``noise_quad``; ``em_form``,
    which reads each diagonal block of ``q_big`` densely, is the independent
    check.  The columns below those blocks are factored and checked once per
    call (:func:`_em_panels`), so a ``q_big`` that is not the materialized
    form raises :class:`~lqdisc.errors.ValidationError`.  All three evaluate
    the same random variable, so they agree up to rounding and collapse
    to the deterministic cost when the model is noise free.

    Each block of ``_BLOCK`` replicates draws its standard normals once and
    reads them in one forward walk over the intervals (``continuous`` and
    ``discrete``, :func:`_block_streams`) and one pass in row pieces
    (``em_form``, :func:`_em_form`); it holds its draws plus pieces that do
    not grow with the horizon, and returns its record of
    :func:`_simulate_block`.  The records are added in block order and the
    means, variances and correlations are read off ``cov = (gram - n m m')
    / max(n - 1, 1)``.  Replicate ``r`` depends only on ``(seed, r)`` and
    the blocks have fixed boundaries, so the summary is identical for any
    worker count.
    """
    if n_sims < 1:
        raise ValidationError(f"n_sims must be >= 1, got {n_sims}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if n_bins < 1:
        raise ValidationError(f"n_bins must be >= 1, got {n_bins}")

    analytic_mean, analytic_var = cost_moments(ref)
    plan = _mc_plan(ref)
    spread = np.sqrt(max(analytic_var, 1e-12))
    edges = np.linspace(
        analytic_mean - 6.0 * spread, analytic_mean + 6.0 * spread, n_bins + 1
    )

    starts = list(range(0, n_sims, _BLOCK))
    jobs = [(plan, seed, s, min(s + _BLOCK, n_sims), edges) for s in starts]
    if workers == 1:
        parts = [_simulate_block(j) for j in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_simulate_block, jobs))
    total = {key: sum(part[key] for part in parts) for key in parts[0]}

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
        n_sub=ref.n_sub,
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
