"""Compensated and exact summation helpers.

Truncated series in this package are summed with compensation: arrays of up
to 4096 elements through math.fsum, longer ones chunkwise (numpy's pairwise
sum within each chunk of 65536, exactly rounded combination of the chunk
totals via math.fsum).

`prefix_fsums` returns math.fsum of many prefixes of one array without
re-summing each prefix in Python. Error-free extraction (Rump, Ogita and
Oishi 2008, "Accurate floating-point summation part I") splits every value
into a part on a coarse grid, whose partial sums numpy adds exactly, and a
residual far below it; a few levels of that leave a handful of exact floats
per prefix, and math.fsum of those is the correctly rounded prefix sum, the
value fsum of the prefix itself returns.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Arrays up to this length are summed exactly rounded by math.fsum.
_EXACT = 4096
# Chunk length for longer arrays. Pairwise summation inside a chunk keeps
# the per-chunk error at ~log2(CHUNK) ulp; the chunk totals are then combined
# exactly.
_CHUNK = 1 << 16
# Extraction levels before the leftover residuals are handed to fsum as they
# are. Each level takes about 53 - log2(n) bits off the largest residual, so
# for smooth series of a few 10^4 terms the few residuals left are tiny.
_LEVELS = 3
# Largest extraction grid 2^k: the values then sum to less than 2^1022 in
# absolute value, so neither numpy's sums nor fsum can overflow.
_MAX_GRID_EXP = 1022


def compensated_sum(values: np.ndarray) -> float:
    """Sum a float64 array with compensation.

    Arrays of up to 4096 elements go through math.fsum. Longer arrays are
    reduced chunkwise: numpy's pairwise sum inside each chunk of 65536,
    math.fsum across the chunk totals. A single chunk's total is returned as
    numpy summed it, since math.fsum([x]) == x.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if flat.size <= _EXACT:
        # fsum is exactly rounded, so reading Python floats from a list
        # (faster than iterating the array) gives the same bits.
        return math.fsum(flat.tolist())
    partials = [float(flat[i : i + _CHUNK].sum()) for i in range(0, flat.size, _CHUNK)]
    return math.fsum(partials)


def prefix_fsums(x: np.ndarray, ends: Sequence[int]) -> list[float]:
    """math.fsum(x[:e]) for every e in `ends`, bit for bit, in one pass.

    `ends` may be unsorted and repeat; each lies in 0..len(x). With
    sigma = 2^k above (n+1) max|x| for the n = max(ends) values summed,
    q = (x + sigma) - sigma is a multiple of 2^-53 sigma and x - q is exact
    and below 2^-53 sigma, and no sum of q's exceeds sigma, so numpy adds
    the q's exactly in any order: one `reduceat` over the segments between
    the sorted ends and a cumsum give every prefix's sum of q's. Repeating
    on the residuals leaves, per prefix, one exact float per level plus the
    residuals still nonzero, whose fsum is the correctly rounded exact
    prefix sum. Non-finite values, or a grid that would reach 2^1023, fall
    back to fsum of each prefix.
    """
    x = np.asarray(x, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.int64)
    if ends.size == 0:
        return []
    if ends.min() < 0 or ends.max() > x.size:
        raise ValueError(f"prefix ends must lie in 0..{x.size}")
    uniq, inverse = np.unique(ends, return_inverse=True)
    n = int(uniq[-1])
    head = x[:n]
    top = float(np.max(np.abs(head))) if n else 0.0
    grid_bits = (n + 1).bit_length()
    if not math.isfinite(top) or math.frexp(top)[1] + grid_bits > _MAX_GRID_EXP:
        return [math.fsum(x[:e].tolist()) for e in ends.tolist()]
    cuts = uniq[uniq > 0]
    # Segment starts are strictly increasing and below n: reduceat never
    # sees an empty segment.
    starts = np.concatenate(([0], cuts[:-1]))
    levels = []
    rest = head.copy()
    while top != 0.0 and len(levels) < _LEVELS:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + grid_bits)
        q = (rest + sigma) - sigma
        rest -= q
        levels.append(np.cumsum(np.add.reduceat(q, starts)).tolist())
        top = float(np.max(np.abs(rest)))
    left = np.flatnonzero(rest)
    sums = [0.0] * (uniq.size - cuts.size)
    for k, e in enumerate(cuts.tolist()):
        parts = [level[k] for level in levels]
        if left.size:
            parts += rest[left[: np.searchsorted(left, e)]].tolist()
        sums.append(math.fsum(parts))
    return [sums[i] for i in inverse.tolist()]
