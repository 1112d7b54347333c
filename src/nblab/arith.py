"""Moebius function tables via a numpy sieve of Eratosthenes.

Every integer up to the limit has at most one prime factor above the square
root of the limit, so sieving by the primes up to the square root, and
dividing each one out of a remainder array, yields mu in a few numpy slice
operations per prime; n is square-free exactly where mu[n] != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class MoebiusTable:
    """Moebius values for 1..limit.

    Attributes:
        limit: Largest argument covered by the table.
        mu: int8 array of length limit+1; mu[n] is the Moebius value of n,
            nonzero iff n is square-free. Index 0 is unused and set to 0.
    """

    limit: int
    mu: np.ndarray


def sieve_moebius(limit: int) -> MoebiusTable:
    """Build a MoebiusTable for 1..limit with a numpy sieve.

    For each prime p <= sqrt(limit), mu flips sign on the multiples of p,
    vanishes on the multiples of p^2, and p is divided out of `rest`. A
    square-free n whose `rest` stays above 1 has one prime factor left, above
    sqrt(limit), and flips once more.

    Args:
        limit: Inclusive upper bound, must be >= 1.

    Returns:
        MoebiusTable with mu.

    Raises:
        DomainError: If limit < 1.
    """
    if limit < 1:
        raise DomainError(f"sieve_moebius: limit must be >= 1, got {limit}")
    root = math.isqrt(limit)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    mu = np.ones(limit + 1, dtype=np.int8)
    rest = np.arange(limit + 1, dtype=np.int64)
    for p in np.flatnonzero(is_prime).tolist():
        mu[::p] *= -1
        mu[:: p * p] = 0
        rest[::p] //= p
    mu[rest > 1] *= -1
    mu[0] = 0
    return MoebiusTable(limit=limit, mu=mu)


def verify_recurrence(table: MoebiusTable, n_max: int) -> bool:
    """Check sum_{l | n} mu(l) == (1 if n == 1 else 0) for all n <= n_max.

    The divisor sums are accumulated sieve-style over the pairs l * k <= n_max,
    split at r = isqrt(n_max): each l <= r adds mu[l] to every multiple of l
    in one slice, and each k <= n_max // (r + 1) adds mu[l] at k * l for all
    l > r in one indexed add. The check reads only mu, not the table's
    factorization.
    """
    if not 1 <= n_max <= table.limit:
        raise DomainError(f"verify_recurrence: n_max={n_max} outside 1..{table.limit}")
    mu = table.mu
    acc = np.zeros(n_max + 1, dtype=np.int64)
    root = math.isqrt(n_max)
    for l in range(1, root + 1):
        acc[l::l] += mu[l]
    for k in range(1, n_max // (root + 1) + 1):
        ls = np.arange(root + 1, n_max // k + 1)
        acc[k * ls] += mu[ls]
    return acc[1] == 1 and not acc[2:].any()
