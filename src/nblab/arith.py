"""Moebius values via a numpy sieve of Eratosthenes.

Every integer up to the limit has at most one prime factor above the square
root of the limit, so sieving by the primes up to the square root, and
dividing each one out of a remainder array, yields mu in a few numpy slice
operations per prime; n is square-free exactly where mu[n] != 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def sieve_moebius(limit: int) -> np.ndarray:
    """The Moebius values of 0..limit as an int8 array of length limit + 1.

    mu[n] is nonzero iff n is square-free, and mu[0] = 0. For each prime
    p <= sqrt(limit), mu flips sign on the multiples of p, vanishes on the
    multiples of p^2, and p is divided out of `rest`. A square-free n whose
    `rest` stays above 1 has one prime factor left, above sqrt(limit), and
    flips once more.

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
    return mu


def verify_recurrence(mu: np.ndarray) -> bool:
    """Check sum_{l | n} mu[l] == (1 if n == 1 else 0) for every n in
    1..mu.size - 1.

    The divisor sums are accumulated sieve-style over the pairs l * k <= n_max,
    with n_max = mu.size - 1, split at r = isqrt(n_max): each l <= r adds
    mu[l] to every multiple of l in one slice, and each k <= n_max // (r + 1)
    adds mu[l] at k * l for all l > r in one indexed add.
    """
    n_max = mu.size - 1
    acc = np.zeros(n_max + 1, dtype=np.int64)
    root = math.isqrt(n_max)
    for l in range(1, root + 1):
        acc[l::l] += mu[l]
    for k in range(1, n_max // (root + 1) + 1):
        ls = np.arange(root + 1, n_max // k + 1)
        acc[k * ls] += mu[ls]
    return acc[1] == 1 and not acc[2:].any()
