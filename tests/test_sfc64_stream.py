"""The sampler's stream is numpy's SFC64, one seed sequence per block."""

import numpy as np
import pytest

from lqdisc.sampling import block_generator


def _generator(seed, block):
    bits = np.random.SFC64(np.random.SeedSequence([seed % 2 ** 64, block]))
    return np.random.Generator(bits)


@pytest.mark.parametrize("seed", [0, 31, 2 ** 63 + 5, -1])
def test_blocks_are_per_block_sfc64_streams(seed):
    for block in (0, 1, 2 ** 40):
        want = _generator(seed, block).standard_normal(37)
        assert np.array_equal(block_generator(seed, block).standard_normal(37), want)


@pytest.mark.parametrize("pieces", [(3, 5, 5, 5), (1, 0, 7, 2, 9)])
def test_one_call_is_consecutive_calls_on_one_generator(pieces):
    # a block's x0 draws, then each chunk's, drawn when they are needed
    # from one generator (every other piece filled into a reused buffer,
    # as a block fills its pieces), are the bits of the block's one call
    gen = block_generator(17, 3)
    buffer = np.empty(max(pieces))
    parts = []
    for i, count in enumerate(pieces):
        if i % 2:
            gen.standard_normal(out=buffer[:count])
            parts.append(buffer[:count].copy())
        else:
            parts.append(gen.standard_normal(count))
    want = block_generator(17, 3).standard_normal(sum(pieces))
    assert np.array_equal(np.concatenate(parts), want)
