"""The sampler's stream is numpy's SFC64, one seed sequence per block."""

import numpy as np
import pytest

from lqdisc.sampling import normal_block


def _generator(seed, block):
    bits = np.random.SFC64(np.random.SeedSequence([seed % 2 ** 64, block]))
    return np.random.Generator(bits)


@pytest.mark.parametrize("seed", [0, 31, 2 ** 63 + 5, -1])
def test_blocks_are_per_block_sfc64_streams(seed):
    for block in (0, 1, 2 ** 40):
        want = _generator(seed, block).standard_normal(37)
        assert np.array_equal(normal_block(seed, block, 37), want)


@pytest.mark.parametrize("pieces", [(3, 5, 5, 5), (1, 0, 7, 2, 9)])
def test_one_call_is_consecutive_calls_on_one_generator(pieces):
    # a block's x0 draws, then each interval's, drawn when they are needed
    # from one generator, are the bits of the block's one call
    gen = _generator(17, 3)
    parts = [gen.standard_normal(count) for count in pieces]
    assert np.array_equal(np.concatenate(parts), normal_block(17, 3, sum(pieces)))
