"""Per-block sampler: determinism, independence of blocks, moments; the
per-replicate draw budget of the Monte Carlo plan."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lqdisc import stochastic
from lqdisc.errors import ResourceLimitError
from lqdisc.sampling import DRAWS_PER_REPLICATE, block_generator

from conftest import make_benchmark_model


def _normals(seed, block, count):
    """The first ``count`` standard normals of block ``block``'s stream."""
    return block_generator(seed, block).standard_normal(count)


def test_same_call_is_bit_identical():
    a = _normals(1234, 0, 17)
    b = _normals(1234, 0, 17)
    assert np.array_equal(a, b)


def test_draws_do_not_depend_on_batching():
    # a block's draws are the same whichever other blocks are drawn, and
    # whichever thread draws them
    alone = _normals(9, 1, 64)
    batch = [_normals(9, b, 64) for b in range(3)]
    assert np.array_equal(alone, batch[1])
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda b: _normals(9, b, 64), range(3)))
    assert all(np.array_equal(x, y) for x, y in zip(batch, threaded))


def test_prefix_of_longer_block_matches_shorter_block():
    short = _normals(42, 5, 10)
    long = _normals(42, 5, 100)
    assert np.array_equal(short, long[:10])


def test_odd_count_is_prefix_of_even_count():
    odd = _normals(7, 1, 9)
    even = _normals(7, 1, 10)
    assert np.array_equal(odd, even[:9])


def test_different_seeds_differ():
    a = _normals(0, 0, 32)
    b = _normals(1, 0, 32)
    assert not np.array_equal(a, b)


def test_different_replicates_differ():
    # two replicates of one block read different positions of its stream,
    # two blocks read different streams
    block = _normals(3, 0, 64).reshape(2, 32)
    assert not np.array_equal(block[0], block[1])
    assert not np.array_equal(_normals(3, 1, 32), block[0])


def test_block_order_is_irrelevant():
    blocks = [2, 5, 9]
    forward = [_normals(11, b, 16) for b in blocks]
    backward = [_normals(11, b, 16) for b in reversed(blocks)]
    assert all(np.array_equal(x, y) for x, y in zip(forward, reversed(backward)))


def _plan_at_dim(monkeypatch, n_sub, horizon):
    """``_mc_plan`` of the benchmark model at ``dim = 2 + 2 horizon n_sub``
    with only the sampler's budget binding; a size it accepts stops at the
    exact discretization."""
    class Accepted(Exception):
        pass

    def accept(*args, **kwargs):
        raise Accepted

    monkeypatch.setattr(stochastic, "discretize_expm", accept)
    with pytest.raises(Accepted):
        stochastic._mc_plan(make_benchmark_model(horizon=horizon), n_sub, dim_cap=2 ** 24)


def test_budget_overflow_is_reported(monkeypatch):
    # dim = 2 + 2 * 1024 * 1024 is two draws above the budget
    with pytest.raises(ResourceLimitError, match="the sampler's budget per replicate"):
        _plan_at_dim(monkeypatch, 1024, 1024)


def test_budget_boundary_is_allowed(monkeypatch):
    # dim = 2 + 2 * 1023 * 1025 is the budget itself
    assert 2 + 2 * 1023 * 1025 == DRAWS_PER_REPLICATE
    _plan_at_dim(monkeypatch, 1023, 1025)


def test_moments_match_standard_normal():
    draws = _normals(2026, 0, 64 * 4096)
    n = draws.size
    # 5-sigma bands on the first four moments of N(0, 1)
    assert abs(draws.mean()) < 5.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
    assert abs((draws ** 3).mean()) < 5.0 * np.sqrt(15.0 / n)
    assert abs((draws ** 4).mean() - 3.0) < 5.0 * np.sqrt(96.0 / n)


def test_no_correlation_between_consecutive_draws():
    draws = _normals(31337, 0, 32 * 8192)
    x, y = draws[:-1], draws[1:]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 5.0 / np.sqrt(x.size)


def test_values_are_finite_and_continuous_looking():
    draws = _normals(5, 0, 16 * 1024)
    assert np.all(np.isfinite(draws))
    # the ziggurat scales a 52-bit random integer: an exact zero has
    # probability about 2**-52 per draw
    assert np.count_nonzero(draws == 0.0) == 0
    assert np.unique(draws).size == draws.size
