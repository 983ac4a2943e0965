"""Reproducible Gaussian sampling for the Monte Carlo runs.

Block ``b`` of a run with seed ``s`` reads one stream: numpy's SFC64 bit
generator seeded by ``SeedSequence([s mod 2**64, b])``, turned into
standard normals by ``Generator.standard_normal`` in one call.  So a draw
is a pure function of ``(seed, block, position)``: any block can be
produced on any worker, in any order, with bit-identical results.  A
longer call extends a shorter one, so consecutive calls on one generator
give the bits of one call; a block may draw its stream in pieces.  The
fill runs in numpy's C loop without the GIL.  Under numpy's
stream-compatibility policy (NEP 19) the normals are reproducible for a
given numpy version.
"""

from __future__ import annotations

import numpy as np

__all__ = ["normal_block", "DRAWS_PER_REPLICATE"]

# draw budget per Monte Carlo sample (checked by the Monte Carlo plan)
DRAWS_PER_REPLICATE = 2 ** 21


def normal_block(seed: int, block: int, count: int) -> np.ndarray:
    """``count`` standard normals, the start of block ``block``'s stream
    for ``seed``; the seed enters as ``seed mod 2**64``."""
    bits = np.random.SFC64(np.random.SeedSequence([seed % 2 ** 64, block]))
    return np.random.Generator(bits).standard_normal(count)
