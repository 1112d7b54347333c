#!/usr/bin/env python3
"""Convergence of smoothed Moebius partial transforms along the critical line.

For a fixed smoothing exponent, compares the cutoff-L partial transform with
its analytic limit at every point of the frozen 101-point critical-line grid
and prints the sup gap as the cutoff grows. The gap shrinking with L is the
transform-side picture of the distance sweep's decay.
"""

import argparse
import math
import sys

from nblab.analytic import (
    CRITICAL_LINE_GRID,
    moebius_limit_transform,
    moebius_partial_transform,
    worst,
)
from nblab.errors import UnstablePointError


def run(eps: float, cutoffs: tuple[int, ...]) -> int:
    limits = {}
    skipped = 0
    for s in CRITICAL_LINE_GRID.points:
        try:
            limits[s] = moebius_limit_transform(eps, s)
        except UnstablePointError:
            skipped += 1  # too close to a zeta zero for a trustworthy limit
    print(f"grid {CRITICAL_LINE_GRID.grid_id}, eps {eps}, "
          f"{len(limits)} usable points, {skipped} skipped", file=sys.stderr)
    print("L,sup_gap,mean_gap")
    partials = moebius_partial_transform(cutoffs, eps, list(limits))
    for L, row in zip(cutoffs, partials.tolist()):
        gaps = [abs(p - lim) for p, lim in zip(row, limits.values())]
        sup = worst(gaps)
        mean = sum(gaps) / len(gaps)
        print(f"{L},{sup!r},{mean!r}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument(
        "--cutoffs", default="10,30,100,300,1000",
        help="comma-separated partial-sum cutoffs",
    )
    a = ap.parse_args()
    if not (a.eps > 0.0 and math.isfinite(a.eps)):
        ap.error(f"--eps must be positive and finite, got {a.eps}")
    try:
        cutoffs = tuple(sorted({int(tok) for tok in a.cutoffs.split(",")}))
    except ValueError:
        ap.error(f"--cutoffs must be comma-separated integers, got {a.cutoffs!r}")
    if cutoffs[0] < 1:
        ap.error(f"--cutoffs must be >= 1, got {cutoffs[0]}")
    return run(a.eps, cutoffs)


if __name__ == "__main__":
    raise SystemExit(main())
