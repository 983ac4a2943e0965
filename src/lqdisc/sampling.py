"""Reproducible Gaussian sampling for the Monte Carlo runs.

Draws are a pure function of ``(seed, replicate, index)``: replicate ``r``
reads numpy's counter-based Philox generator (Salmon et al. 2011,
"Parallel random numbers: as easy as 1, 2, 3") keyed by the seed, from
the counter ``[0, 0, 0, r]`` with an empty buffer.  That is the stream of
``Generator(Philox(key=seed, counter=r << 192))``, so any replicate can be
produced on any worker, in any order and in any batch, with bit-identical
results.  The normals come from ``Generator.standard_normal``; under
numpy's stream-compatibility policy (NEP 19) they are reproducible for a
given numpy version.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError

__all__ = ["normal_block", "DRAWS_PER_REPLICATE"]

# draw budget per Monte Carlo sample
DRAWS_PER_REPLICATE = 2 ** 21


def normal_block(seed: int, replicates: np.ndarray, count: int) -> np.ndarray:
    """``(len(replicates), count)`` standard normals, row ``i`` a function of
    ``(seed, replicates[i])`` only; the Philox key is ``seed mod 2**64``."""
    if count > DRAWS_PER_REPLICATE:
        raise ResourceLimitError(
            f"replicate needs {count} draws, above the per-replicate "
            f"budget {DRAWS_PER_REPLICATE}"
        )
    reps = np.asarray(replicates, dtype=np.uint64)
    bits = np.random.Philox(key=seed % 2 ** 64)
    gen = np.random.Generator(bits)
    # one bit generator, reset per replicate to the fresh state (empty
    # buffer) with counter [0, 0, 0, r]: the stream of a new
    # Philox(key=seed, counter=r << 192), without building one each time
    state = bits.state
    counter = state["state"]["counter"]
    out = np.empty((reps.shape[0], count))
    for i, rep in enumerate(reps):
        counter[3] = rep
        bits.state = state
        gen.standard_normal(count, out=out[i])
    return out
