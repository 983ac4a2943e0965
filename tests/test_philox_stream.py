"""The sampler's stream is numpy's Philox, one counter range per replicate."""

import numpy as np
import pytest

from lqdisc.sampling import normal_block


@pytest.mark.parametrize("seed", [0, 31, 2 ** 63 + 5, -1])
def test_rows_are_per_replicate_philox_streams(seed):
    reps = np.array([0, 1, 2, 7, 2047, 2 ** 40])
    block = normal_block(seed, reps, 37)
    for row, rep in zip(block, reps):
        bits = np.random.Philox(key=seed % 2 ** 64, counter=int(rep) << 192)
        assert np.array_equal(row, np.random.Generator(bits).standard_normal(37))
