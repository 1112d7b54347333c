"""Compensated summation helpers.

Truncated series in this package are summed with compensation: arrays of up
to 4096 elements and scalar streams through math.fsum, longer numpy arrays
chunkwise (numpy's pairwise sum within each chunk of 65536, exactly rounded
combination of the chunk totals via math.fsum).
"""

from __future__ import annotations

import math

import numpy as np

# Arrays up to this length are summed exactly rounded by math.fsum.
_EXACT = 4096
# Chunk length for longer arrays. Pairwise summation inside a chunk keeps
# the per-chunk error at ~log2(CHUNK) ulp; the chunk totals are then combined
# exactly.
_CHUNK = 1 << 16


def compensated_sum(values) -> float:
    """Sum a 1-D float64 array (or any iterable) with compensation.

    Arrays of up to 4096 elements and other iterables go through math.fsum.
    Longer arrays are reduced chunkwise: numpy's pairwise sum inside each
    chunk of 65536, math.fsum across the chunk totals. A single chunk's total
    is returned as numpy summed it, since math.fsum([x]) == x.
    """
    if isinstance(values, np.ndarray):
        flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
        if flat.size <= _EXACT:
            # fsum is exactly rounded, so reading Python floats from a list
            # (faster than iterating the array) gives the same bits.
            return math.fsum(flat.tolist())
        partials = [float(flat[i : i + _CHUNK].sum()) for i in range(0, flat.size, _CHUNK)]
        return math.fsum(partials)
    return math.fsum(values)

