#!/usr/bin/env python3
"""Sweep the squared distance over a range of cutoffs and report the rate.

Writes one CSV row per cutoff with the squared distance, the rate diagnostic
d2 * log L, and the gap to the conjectured limiting constant. The rows come
from one `distance_sweep` call with the chosen method: one factorization of
the Gram matrix at the largest cutoff. A Gram cache path makes repeat sweeps
nearly free; the cache is rewritten only when the sweep added entries or the
file is missing. Exit codes follow `nblab distance`: 65 for a cache it cannot
use (a path that cannot be written fails before any work), 1 for other errors.
"""

import argparse
import sys
from pathlib import Path

from nblab.criterion import BasisKind, SolveMethod, asymptotic_rate_constant, distance_sweep
from nblab.cli import exit_code, open_store


def run(l_max: int, l_step: int, basis: str, method: str, cache: Path | None) -> int:
    cutoffs = sorted({2, *range(l_step, l_max + 1, l_step)})
    with open_store(cache) as store:
        rows = distance_sweep(cutoffs, BasisKind(basis), (SolveMethod(method),), store)

    limit = asymptotic_rate_constant()
    print("L,d2,rate,rate_minus_limit,cond")
    for r in rows:
        print(
            f"{r.L},{r.d2!r},{r.a_est!r},{r.a_est - limit!r},{r.cond_estimate:.6e}"
        )
    print(f"# conjectured limit {limit!r}", file=sys.stderr)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--l-max", type=int, default=300)
    ap.add_argument("--l-step", type=int, default=10)
    ap.add_argument("--basis", default="exclude-one",
                    choices=[b.value for b in BasisKind])
    ap.add_argument("--method", default="ls", choices=("ls", "det"))
    ap.add_argument("--cache", type=Path, default=None)
    a = ap.parse_args()
    if a.l_max < 2:
        ap.error(f"--l-max must be at least 2, got {a.l_max}")
    if a.l_step < 1:
        ap.error(f"--l-step must be at least 1, got {a.l_step}")
    return exit_code(run, a.l_max, a.l_step, a.basis, a.method, a.cache)


if __name__ == "__main__":
    raise SystemExit(main())
