"""Compensated summation helpers.

Truncated series in this package are summed with compensation: short arrays
and scalar streams through math.fsum, large numpy arrays chunkwise (pairwise
within a chunk, exactly rounded combination of the chunk totals via
math.fsum).
"""

from __future__ import annotations

import math

import numpy as np

# Chunk length for array reduction. Pairwise summation inside a chunk keeps
# the per-chunk error at ~log2(CHUNK) ulp; the chunk totals are then combined
# exactly.
_CHUNK = 1 << 16


def compensated_sum(values) -> float:
    """Sum a 1-D float64 array (or any iterable) with compensation.

    Arrays are reduced chunkwise: numpy's pairwise sum inside each chunk,
    math.fsum across chunk totals. Iterables go straight through fsum.
    """
    if isinstance(values, np.ndarray):
        flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
        if flat.size <= _CHUNK:
            return float(math.fsum(flat)) if flat.size <= 4096 else float(flat.sum())
        partials = [float(flat[i : i + _CHUNK].sum()) for i in range(0, flat.size, _CHUNK)]
        return math.fsum(partials)
    return math.fsum(values)

