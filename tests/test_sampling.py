"""Counter-based sampler: determinism, independence from batching, moments."""

import numpy as np
import pytest

from lqdisc.errors import ResourceLimitError
from lqdisc.sampling import DRAWS_PER_REPLICATE, normal_block


def test_same_call_is_bit_identical():
    a = normal_block(1234, np.arange(8), 17)
    b = normal_block(1234, np.arange(8), 17)
    assert np.array_equal(a, b)


def test_draws_do_not_depend_on_batching():
    whole = normal_block(9, np.arange(10), 64)
    parts = np.vstack([
        normal_block(9, np.arange(0, 3), 64),
        normal_block(9, np.arange(3, 7), 64),
        normal_block(9, np.arange(7, 10), 64),
    ])
    assert np.array_equal(whole, parts)


def test_prefix_of_longer_block_matches_shorter_block():
    short = normal_block(42, np.array([5]), 10)
    long = normal_block(42, np.array([5]), 100)
    assert np.array_equal(short, long[:, :10])


def test_odd_count_is_prefix_of_even_count():
    odd = normal_block(7, np.array([0, 1]), 9)
    even = normal_block(7, np.array([0, 1]), 10)
    assert np.array_equal(odd, even[:, :9])


def test_different_seeds_differ():
    a = normal_block(0, np.array([0]), 32)
    b = normal_block(1, np.array([0]), 32)
    assert not np.array_equal(a, b)


def test_different_replicates_differ():
    block = normal_block(3, np.array([0, 1]), 32)
    assert not np.array_equal(block[0], block[1])


def test_replicate_order_is_irrelevant():
    forward = normal_block(11, np.array([2, 5, 9]), 16)
    shuffled = normal_block(11, np.array([9, 2, 5]), 16)
    assert np.array_equal(forward, shuffled[[1, 2, 0]])


def test_budget_overflow_is_reported():
    with pytest.raises(ResourceLimitError, match="budget"):
        normal_block(0, np.array([0]), DRAWS_PER_REPLICATE + 1)


def test_budget_boundary_is_allowed():
    out = normal_block(0, np.array([0]), 4)
    assert out.shape == (1, 4)
    assert np.all(np.isfinite(out))


def test_moments_match_standard_normal():
    draws = normal_block(2026, np.arange(64), 4096).ravel()
    n = draws.size
    # 5-sigma bands on the first four moments of N(0, 1)
    assert abs(draws.mean()) < 5.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
    assert abs((draws ** 3).mean()) < 5.0 * np.sqrt(15.0 / n)
    assert abs((draws ** 4).mean() - 3.0) < 5.0 * np.sqrt(96.0 / n)


def test_no_correlation_between_consecutive_draws():
    draws = normal_block(31337, np.arange(32), 8192)
    x, y = draws[:, :-1].ravel(), draws[:, 1:].ravel()
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 5.0 / np.sqrt(x.size)


def test_values_are_finite_and_continuous_looking():
    draws = normal_block(5, np.arange(16), 1024).ravel()
    assert np.all(np.isfinite(draws))
    # the ziggurat scales a 52-bit random integer: an exact zero has
    # probability about 2**-52 per draw
    assert np.count_nonzero(draws == 0.0) == 0
    assert np.unique(draws).size == draws.size
