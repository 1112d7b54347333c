"""Moebius function tables via a linear sieve.

The sieve tracks the smallest prime factor of every integer up to the limit,
which yields mu and the square-free flags in a single O(n) pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class MoebiusTable:
    """Moebius values and square-free flags for 1..limit.

    Attributes:
        limit: Largest argument covered by the table.
        mu: int8 array of length limit+1; mu[n] is the Moebius value of n.
            Index 0 is unused and set to 0.
        squarefree: Bool array of length limit+1; squarefree[n] iff n has no
            squared prime factor. Equivalent to mu[n] != 0.
    """

    limit: int
    mu: np.ndarray
    squarefree: np.ndarray


def sieve_moebius(limit: int) -> MoebiusTable:
    """Build a MoebiusTable for 1..limit with a linear sieve.

    Args:
        limit: Inclusive upper bound, must be >= 1.

    Returns:
        MoebiusTable with mu and squarefree flags.

    Raises:
        DomainError: If limit < 1.
    """
    if limit < 1:
        raise DomainError(f"sieve_moebius: limit must be >= 1, got {limit}")
    mu = np.zeros(limit + 1, dtype=np.int8)
    spf = np.zeros(limit + 1, dtype=np.int64)
    mu[1] = 1
    primes: list[int] = []
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i] = i
            mu[i] = -1
            primes.append(i)
        si = spf[i]
        for p in primes:
            ip = i * p
            if p > si or ip > limit:
                break
            spf[ip] = p
            # p == spf[i] means p^2 | ip, killing the Moebius value.
            mu[ip] = 0 if p == si else -mu[i]
    squarefree = mu != 0
    squarefree[0] = False
    return MoebiusTable(limit=limit, mu=mu, squarefree=squarefree)


def verify_recurrence(table: MoebiusTable, n_max: int) -> bool:
    """Check sum_{l | n} mu(l) == (1 if n == 1 else 0) for all n <= n_max.

    The divisor sums are accumulated sieve-style (for each l, add mu[l] to
    every multiple of l), so the check is independent of the table's own
    factorization data.
    """
    if not 1 <= n_max <= table.limit:
        raise DomainError(f"verify_recurrence: n_max={n_max} outside 1..{table.limit}")
    acc = np.zeros(n_max + 1, dtype=np.int64)
    for l in range(1, n_max + 1):
        acc[l::l] += table.mu[l]
    return acc[1] == 1 and not acc[2:].any()
